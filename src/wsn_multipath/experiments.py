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
from .scenario import Scenario, scenario_hash

FRAMEWORKS = ("traditional", "equal", "strategic")


def configured(scenario: Scenario, packets: int | None = None,
               **engine_overrides) -> Scenario:
    """A copy of the scenario with adjusted traffic volume or run config."""
    sources = [dataclasses.replace(s, packets=packets if packets is not None else s.packets)
               for s in scenario.sources]
    engine = dataclasses.replace(scenario.engine, **engine_overrides)
    return dataclasses.replace(scenario, sources=sources, engine=engine)


def _framework_config(name: str) -> dict:
    if name == "traditional":
        return {"replicate": True, "fragmented": False}
    if name == "equal":
        return {"replicate": False, "fragmented": True, "scheme": 2}
    if name == "strategic":
        return {"replicate": False, "fragmented": True, "scheme": 3}
    raise ValueError(f"unknown framework {name!r}")


@dataclass
class Report:
    suite: str
    scenario_name: str
    scenario_hash: str
    seed: int
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


def _run_cells(cells: list[Scenario], jobs: int) -> list[RunMetrics]:
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(run_scenario, cells))
    return [run_scenario(c) for c in cells]


def run_scheme_comparison(scenario: Scenario, packet_counts: list[int],
                          schemes: tuple[int, ...] = (1, 2, 3),
                          jobs: int = 1) -> Report:
    """Run each distribution scheme at each traffic volume and tabulate
    per-scheme totals plus per-path delay and allocation."""
    report = Report(suite="schemes", scenario_name=scenario.name,
                    scenario_hash=scenario_hash(scenario), seed=scenario.seed)
    cells = [configured(scenario, packets=d, scheme=s)
             for d in packet_counts for s in schemes]
    results = _run_cells(cells, jobs)
    by_key: dict[tuple[int, int], RunMetrics] = {}
    for cfg, metrics in zip(cells, results):
        d = cfg.sources[0].packets
        by_key[(d, cfg.engine.scheme)] = metrics
        for (src, idx), stats in sorted(metrics.per_path.items()):
            report.rows.append({
                "suite": "schemes", "scenario": scenario.name,
                "scenario_hash": report.scenario_hash, "seed": metrics.seed,
                "packets": d, "scheme": cfg.engine.scheme, "source": src,
                "path": idx, "hops": stats["hops"], "quota": stats["quota"],
                "delivered": stats["delivered"], "dropped": stats["dropped"],
                "path_delay_sim_s": stats["sim_delay_s"],
                "path_delay_model_s": stats["model_delay_s"],
                "path_energy_model_j": stats["model_energy_j"],
                "mean_queue_wait_s": stats["mean_wait_s"],
                "net_delay_s": metrics.completion_s,
                "net_energy_j": metrics.energy_spent_j,
            })
    for d in packet_counts:
        delays = {s: by_key[(d, s)].completion_s for s in schemes}
        energies = {s: by_key[(d, s)].energy_spent_j for s in schemes}
        if {1, 2, 3} <= set(schemes):
            report.checks.append((
                f"D={d}: delay scheme3 <= scheme2 <= scheme1",
                delays[3] <= delays[2] <= delays[1]))
            report.checks.append((
                f"D={d}: energy scheme1 <= scheme3 <= scheme2",
                energies[1] <= energies[3] <= energies[2]))
    return report


def run_multisource_frameworks(scenario: Scenario, packet_counts: list[int],
                               jobs: int = 1) -> Report:
    """Compare replicated traditional delivery against the fragmented-queue
    machinery with equal and strategic splits."""
    report = Report(suite="frameworks", scenario_name=scenario.name,
                    scenario_hash=scenario_hash(scenario), seed=scenario.seed)
    cells = [configured(scenario, packets=d, **_framework_config(f))
             for d in packet_counts for f in FRAMEWORKS]
    labels = [(d, f) for d in packet_counts for f in FRAMEWORKS]
    results = _run_cells(cells, jobs)
    by_key = dict(zip(labels, results))
    for (d, framework), metrics in zip(labels, results):
        for src in sorted(metrics.per_source_completion_s):
            report.rows.append({
                "suite": "frameworks", "scenario": scenario.name,
                "scenario_hash": report.scenario_hash, "seed": metrics.seed,
                "framework": framework, "packets": d, "source": src,
                "source_delay_s": metrics.per_source_completion_s[src],
                "source_energy_j": metrics.per_source_comm_j[src],
                "delivered": metrics.delivered[src],
                "injected": metrics.injected[src],
                "net_delay_s": metrics.completion_s,
                "net_energy_j": metrics.energy_spent_j,
                "dropped_overflow": metrics.dropped_overflow,
                "dropped_fault": metrics.dropped_fault,
                "duplicates": metrics.duplicates,
            })
    for d in packet_counts:
        delay = {f: by_key[(d, f)].completion_s for f in FRAMEWORKS}
        energy = {f: by_key[(d, f)].energy_spent_j for f in FRAMEWORKS}
        report.checks.append((
            f"D={d}: net delay strategic <= equal <= traditional",
            delay["strategic"] <= delay["equal"] <= delay["traditional"]))
        report.checks.append((
            f"D={d}: net energy strategic <= equal <= traditional",
            energy["strategic"] <= energy["equal"] <= energy["traditional"]))
        sources = sorted(by_key[(d, "strategic")].per_source_completion_s)
        for src in sources:
            sd = {f: by_key[(d, f)].per_source_completion_s[src] for f in FRAMEWORKS}
            se = {f: by_key[(d, f)].per_source_comm_j[src] for f in FRAMEWORKS}
            report.checks.append((
                f"D={d} source {src}: delay strategic <= equal <= traditional",
                sd["strategic"] <= sd["equal"] <= sd["traditional"]))
            report.checks.append((
                f"D={d} source {src}: energy strategic <= equal <= traditional",
                se["strategic"] <= se["equal"] <= se["traditional"]))
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
    simulated delay, in row order. The schemes suite gives the same for
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
