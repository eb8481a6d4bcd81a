"""Packaged experiment suites: the three single-source distribution schemes
on one scenario, and the three multi-source frameworks (replicated
traditional, equal split, strategic split) on another.

Every report row carries the scenario hash and seed; rerunning a suite
reproduces each cell exactly.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from .engine import RunMetrics, run_scenario
from .scenario import Scenario, build_scenario, scenario_hash

def configured(scenario: Scenario, packets: int | None = None,
               **engine_overrides) -> Scenario:
    """A copy of the scenario with adjusted traffic volume or run config."""
    sources = [dataclasses.replace(s, packets=packets if packets is not None else s.packets)
               for s in scenario.sources]
    engine = dataclasses.replace(scenario.engine, **engine_overrides)
    return dataclasses.replace(scenario, sources=sources, engine=engine)


# each suite's variants in row order: the name its rows carry and the run
# config it overrides
_VARIANTS = {
    "schemes": {scheme: {"scheme": scheme} for scheme in (1, 2, 3)},
    "frameworks": {
        "traditional": {"replicate": True, "fragmented": False},
        "equal": {"replicate": False, "fragmented": True, "scheme": 2},
        "strategic": {"replicate": False, "fragmented": True, "scheme": 3},
    },
}
FRAMEWORKS = tuple(_VARIANTS["frameworks"])


@dataclass
class Report:
    suite: str
    scenario_hash: str
    rows: list[dict] = field(default_factory=list)
    checks: list[tuple[str, bool]] = field(default_factory=list)

    def to_csv(self, path: str) -> None:
        write_rows_csv(self.rows, path)

    def to_text(self) -> str:
        text = render_rows(self.rows, "text")
        if self.checks:
            text += "\n" + "".join(f"[{'PASS' if ok else 'FAIL'}] {label}\n"
                                   for label, ok in self.checks)
        return text


def _cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_rows(rows: list[dict], fmt: str) -> str:
    """The rows as CSV (``fmt == "csv"``) or as a space-aligned text table.
    Columns are the union of the rows' keys in first-seen order; a row
    without a column leaves its cell empty."""
    cols = list(dict.fromkeys(key for row in rows for key in row))
    table = [cols] + [[_cell(row.get(c, "")) for c in cols] for row in rows]
    if fmt == "csv":
        out = io.StringIO()
        csv.writer(out).writerows(table)
        return out.getvalue()
    widths = [max(len(line[i]) for line in table) for i in range(len(cols))]
    lines = ("  ".join(v.ljust(w) for v, w in zip(line, widths)).rstrip()
             for line in table)
    return "".join(line + "\n" for line in lines)


# a pool worker's copy of the suite's shared build, sent once per worker
_worker_build: tuple | None = None


def _share_build(built) -> None:
    global _worker_build
    _worker_build = built


def _run_cell(scenario: Scenario) -> RunMetrics:
    return run_scenario(scenario, _worker_build)


def _run_suite(suite: str, scenario: Scenario, packet_counts: list[int], jobs: int,
               rows) -> tuple[Report, dict[tuple, RunMetrics]]:
    """Run the suite's cells, one per (traffic volume, variant) in that
    order and `jobs` at a time, and tabulate them: `rows(d, variant,
    metrics)` gives a cell's rows, which follow the provenance columns.
    Returns the report, without checks, and the runs by cell.

    The cells differ from the scenario only in packet counts and run
    config, so they share its one build: one topology and one path set per
    source, which reaches each pool worker once. The report's hash is the
    only one computed."""
    report = Report(suite=suite, scenario_hash=scenario_hash(scenario))
    variants = _VARIANTS[suite]
    keys = [(d, v) for d in packet_counts for v in variants]
    cells = [configured(scenario, packets=d, **variants[v]) for d, v in keys]
    built = build_scenario(scenario)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs, initializer=_share_build,
                                 initargs=(built,)) as pool:
            results = list(pool.map(_run_cell, cells))
    else:
        results = [run_scenario(c, built) for c in cells]
    base = {"suite": suite, "scenario": scenario.name, "scenario_hash": report.scenario_hash}
    for (d, variant), metrics in zip(keys, results):
        report.rows += [{**base, "seed": metrics.seed, **row}
                        for row in rows(d, variant, metrics)]
    return report, dict(zip(keys, results))


def _ordering(label: str, ranked: list[tuple[str, float]]) -> tuple[str, bool]:
    """The check that the values of `ranked` do not decrease along it,
    labelled `label` and its names joined by " <= "."""
    values = [value for _name, value in ranked]
    return (f"{label} " + " <= ".join(name for name, _value in ranked),
            all(a <= b for a, b in zip(values, values[1:])))


def _scheme_rows(d: int, scheme: int, metrics: RunMetrics) -> list[dict]:
    return [{"packets": d, "scheme": scheme, "source": src, "path": idx,
             "hops": stats["hops"], "quota": stats["quota"],
             "delivered": stats["delivered"], "dropped": stats["dropped"],
             "path_delay_sim_s": stats["sim_delay_s"],
             "path_delay_model_s": stats["model_delay_s"],
             "path_energy_model_j": stats["model_energy_j"],
             "mean_queue_wait_s": stats["mean_wait_s"],
             "net_delay_s": metrics.completion_s,
             "net_energy_j": metrics.energy_spent_j}
            for (src, idx), stats in sorted(metrics.per_path.items())]


def run_scheme_comparison(scenario: Scenario, packet_counts: list[int],
                          jobs: int = 1) -> Report:
    """Run each distribution scheme at each traffic volume and tabulate
    per-scheme totals plus per-path delay and allocation."""
    report, runs = _run_suite("schemes", scenario, packet_counts, jobs, _scheme_rows)
    for d in packet_counts:
        report.checks += [
            _ordering(f"D={d}: delay", [(f"scheme{s}", runs[(d, s)].completion_s)
                                        for s in (3, 2, 1)]),
            _ordering(f"D={d}: energy", [(f"scheme{s}", runs[(d, s)].energy_spent_j)
                                         for s in (1, 3, 2)])]
    return report


def _framework_rows(d: int, framework: str, metrics: RunMetrics) -> list[dict]:
    return [{"framework": framework, "packets": d, "source": src,
             "source_delay_s": metrics.per_source_completion_s[src],
             "source_energy_j": metrics.per_source_comm_j[src],
             "delivered": metrics.delivered[src],
             "injected": metrics.injected[src],
             "net_delay_s": metrics.completion_s,
             "net_energy_j": metrics.energy_spent_j,
             "dropped_overflow": metrics.dropped_overflow,
             "dropped_fault": metrics.dropped_fault,
             "duplicates": metrics.duplicates}
            for src in sorted(metrics.per_source_completion_s)]


def run_multisource_frameworks(scenario: Scenario, packet_counts: list[int],
                               jobs: int = 1) -> Report:
    """Compare replicated traditional delivery against the fragmented-queue
    machinery with equal and strategic splits."""
    report, runs = _run_suite("frameworks", scenario, packet_counts, jobs,
                              _framework_rows)
    for d in packet_counts:
        ranked = [(f, runs[(d, f)]) for f in reversed(FRAMEWORKS)]
        report.checks += [
            _ordering(f"D={d}: net delay", [(f, m.completion_s) for f, m in ranked]),
            _ordering(f"D={d}: net energy", [(f, m.energy_spent_j) for f, m in ranked])]
        for src in sorted(ranked[0][1].per_source_completion_s):
            report.checks += [
                _ordering(f"D={d} source {src}: delay",
                          [(f, m.per_source_completion_s[src]) for f, m in ranked]),
                _ordering(f"D={d} source {src}: energy",
                          [(f, m.per_source_comm_j[src]) for f, m in ranked])]
    return report


def metrics_rows(metrics: RunMetrics) -> list[dict]:
    """Flatten one run into per-path, per-source and net records."""
    rows = []
    base = {"scenario": metrics.scenario_name,
            "scenario_hash": metrics.scenario_hash, "seed": metrics.seed}
    for (src, idx), stats in sorted(metrics.per_path.items()):
        rows.append({**base, "record": "path", "source": src, "path": idx,
                     "route": "-".join(str(n) for n in stats["route"]),
                     "hops": stats["hops"], "quota": stats["quota"],
                     "delivered": stats["delivered"], "dropped": stats["dropped"],
                     "tau_s": stats["tau_s"],
                     "delay_sim_s": stats["sim_delay_s"],
                     "delay_model_s": stats["model_delay_s"],
                     "energy_model_j": stats["model_energy_j"],
                     "mean_queue_wait_s": stats["mean_wait_s"],
                     "contention": metrics.contention_history.get((src, idx), [0])[-1]})
    for src in sorted(metrics.per_source_completion_s):
        rows.append({**base, "record": "source", "source": src,
                     "delivered": metrics.delivered[src],
                     "injected": metrics.injected[src],
                     "delay_sim_s": metrics.per_source_completion_s[src],
                     "energy_comm_j": metrics.per_source_comm_j[src]})
    rows.append({**base, "record": "net",
                 "delivered": metrics.total_delivered,
                 "injected": metrics.total_injected,
                 "delay_sim_s": metrics.completion_s,
                 "energy_total_j": metrics.energy_spent_j,
                 "dropped_overflow": metrics.dropped_overflow,
                 "dropped_fault": metrics.dropped_fault,
                 "retransmissions": metrics.retransmissions,
                 "duplicates": metrics.duplicates,
                 "events": metrics.event_count,
                 "final_time_s": metrics.final_time_s})
    return rows


def write_rows_csv(rows: list[dict], path: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(render_rows(rows, "csv"))


def write_plot_data(rows: list[dict], out_dir: str) -> None:
    """Two-column numeric series for the standard figures, one ``.dat``
    file each, from the rows of one run (`metrics_rows`) or of the schemes
    suite; other rows give none.

    A run's path rows give their 1-based path index against quota and
    simulated delay, in row order; a path that delivered nothing has a
    quota but no delay. The schemes suite gives the same for
    its strategic runs and each scheme's net delay and energy, in files
    suffixed ``_d{D}``."""
    series: dict[str, list[tuple]] = {}
    runs: dict[tuple[int, int], dict] = {}
    for row in rows:
        if "scheme" in row:
            runs.setdefault((row["packets"], row["scheme"]), row)
            if row["scheme"] != 3:
                continue
            tag, delay = f"_d{row['packets']}", row["path_delay_sim_s"]
        elif row.get("record") == "path":
            tag, delay = "", row["delay_sim_s"]
        else:
            continue
        series.setdefault(f"allocation_per_path{tag}.dat", []).append(
            (row["path"] + 1, row["quota"]))
        if row["delivered"]:  # a path that delivered nothing has no delay
            series.setdefault(f"delay_per_path{tag}.dat", []).append((row["path"] + 1, delay))
    for (d, scheme), row in sorted(runs.items()):
        series.setdefault(f"delay_vs_scheme_d{d}.dat", []).append(
            (scheme, row["net_delay_s"]))
        series.setdefault(f"energy_vs_scheme_d{d}.dat", []).append(
            (scheme, row["net_energy_j"]))
    for name, pairs in series.items():
        with open(os.path.join(out_dir, name), "w") as fh:
            fh.writelines(f"{_cell(x)} {_cell(y)}\n" for x, y in pairs)


__all__ = [
    "FRAMEWORKS", "Report", "configured", "metrics_rows",
    "render_rows", "run_multisource_frameworks", "run_scheme_comparison",
    "write_plot_data", "write_rows_csv",
]
