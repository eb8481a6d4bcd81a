"""Packaged experiment suites: the three single-source distribution
schemes, and the three multi-source frameworks (replicated traditional,
equal split, strategic split). Each is a `SUITES` entry that declares its
variants (run-config overrides, in row order), a cell's rows, its
orderings for the network and per source, and its plot files, built from
its runs; `run_suite` runs any entry, one cell per (volume, variant).

Every report row carries the scenario hash and seed; rerunning a suite
reproduces each cell exactly.
"""

from __future__ import annotations

import csv
import dataclasses
import io
from dataclasses import dataclass, field
from typing import Callable

from .engine import RunMetrics, run_scenario
from .scenario import Scenario, build_scenario, scenario_hash

def configured(scenario: Scenario, packets: int | None = None,
               **engine_overrides) -> Scenario:
    """A copy of the scenario with adjusted traffic volume or run config."""
    sources = [dataclasses.replace(s, packets=packets if packets is not None else s.packets)
               for s in scenario.sources]
    engine = dataclasses.replace(scenario.engine, **engine_overrides)
    return dataclasses.replace(scenario, sources=sources, engine=engine)


@dataclass
class Report:
    suite: str
    scenario_hash: str
    rows: list[dict] = field(default_factory=list)
    checks: list[tuple[str, bool]] = field(default_factory=list)
    # file name -> text of the suite's plot files, which --plot-data writes
    plots: dict[str, str] = field(default_factory=dict)

    def to_csv(self, path: str) -> None:
        write_rows_csv(self.rows, path)

    def to_text(self) -> str:
        text = render_rows(self.rows, "text")
        if self.checks:
            text += "\n" + "".join(f"[{'PASS' if ok else 'FAIL'}] {label}\n"
                                   for label, ok in self.checks)
        return text


def _cell(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


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


def _plot_files(series: dict[str, list[tuple]]) -> dict[str, str]:
    """Each series with a point as a file's text: one "x y" line a point."""
    return {name: "".join(f"{_cell(x)} {_cell(y)}\n" for x, y in points)
            for name, points in series.items() if points}


def path_plots(metrics: RunMetrics, tag: str = "") -> dict[str, str]:
    """The run's paths in (source, path) order, their 1-based index against
    quota in ``allocation_per_path{tag}.dat`` and against simulated delay
    in ``delay_per_path{tag}.dat``; a path that delivered nothing has a
    quota but no delay."""
    paths = sorted(metrics.per_path.items())
    return _plot_files({
        f"allocation_per_path{tag}.dat": [(i + 1, s["quota"]) for (_src, i), s in paths],
        f"delay_per_path{tag}.dat": [(i + 1, s["sim_delay_s"])
                                     for (_src, i), s in paths if s["delivered"]]})


def _scheme_rows(d: int, _variant: str, metrics: RunMetrics) -> list[dict]:
    return [{"packets": d, "scheme": metrics.scenario.engine.scheme, "source": src,
             "path": idx, "hops": stats["hops"], "quota": stats["quota"],
             "delivered": stats["delivered"], "dropped": stats["dropped"],
             "path_delay_sim_s": stats["sim_delay_s"],
             "path_delay_model_s": stats["model_delay_s"],
             "path_energy_model_j": stats["model_energy_j"],
             "mean_queue_wait_s": stats["mean_wait_s"],
             "net_delay_s": metrics.completion_s,
             "net_energy_j": metrics.energy_spent_j}
            for (src, idx), stats in sorted(metrics.per_path.items())]


def _scheme_plots(d: int, runs: dict[str, RunMetrics]) -> dict[str, str]:
    """The strategic run's path series and each scheme's net delay and
    energy against its number, suffixed ``_d{d}``."""
    schemes = [(m.scenario.engine.scheme, m) for m in runs.values()]
    return {**path_plots(runs["scheme3"], f"_d{d}"), **_plot_files({
        f"delay_vs_scheme_d{d}.dat": [(s, m.completion_s) for s, m in schemes],
        f"energy_vs_scheme_d{d}.dat": [(s, m.energy_spent_j) for s, m in schemes]})}


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


@dataclass(frozen=True)
class Suite:
    # variant name -> the run config it overrides, in row order
    variants: dict[str, dict]
    # (packets, variant, metrics) -> the cell's rows, after the provenance columns
    rows: Callable[[int, str, RunMetrics], list[dict]]
    # (label, RunMetrics attribute, variant order): the check that the
    # attribute does not decrease along the order, for the network and, on
    # an attribute that maps each source to its value, for each source
    orderings: tuple[tuple[str, str, tuple[str, ...]], ...]
    source_orderings: tuple[tuple[str, str, tuple[str, ...]], ...] = ()
    # (packets, that volume's runs by variant) -> plot file name -> text
    plots: Callable[[int, dict[str, RunMetrics]], dict[str, str]] | None = None


_BEST_FIRST = ("strategic", "equal", "traditional")

SUITES = {
    "schemes": Suite(
        variants={f"scheme{s}": {"scheme": s} for s in (1, 2, 3)},
        rows=_scheme_rows,
        orderings=(("delay", "completion_s", ("scheme3", "scheme2", "scheme1")),
                   ("energy", "energy_spent_j", ("scheme1", "scheme3", "scheme2"))),
        plots=_scheme_plots),
    "frameworks": Suite(
        variants={
            "traditional": {"replicate": True, "fragmented": False},
            "equal": {"replicate": False, "fragmented": True, "scheme": 2},
            "strategic": {"replicate": False, "fragmented": True, "scheme": 3},
        },
        rows=_framework_rows,
        orderings=(("net delay", "completion_s", _BEST_FIRST),
                   ("net energy", "energy_spent_j", _BEST_FIRST)),
        source_orderings=(("delay", "per_source_completion_s", _BEST_FIRST),
                          ("energy", "per_source_comm_j", _BEST_FIRST))),
}


# a pool worker's copy of the suite's shared build, sent once per worker
_worker_build: tuple | None = None


def _share_build(built) -> None:
    global _worker_build
    _worker_build = built


def _run_cell(scenario: Scenario) -> RunMetrics:
    return run_scenario(scenario, _worker_build)


def _ordering(label: str, order: tuple[str, ...], values: list[float]) -> tuple[str, bool]:
    """The check that `values` do not decrease along `order`, labelled
    `label` and the order joined by " <= "."""
    return (f"{label} " + " <= ".join(order),
            all(a <= b for a, b in zip(values, values[1:])))


def run_suite(name: str, scenario: Scenario, packet_counts: list[int],
              jobs: int = 1) -> Report:
    """Run the suite's cells, one per (traffic volume, variant) in that
    order and up to `jobs` at a time, and report their rows, their
    orderings as checks and their plot files.

    The cells differ from the scenario only in packet counts and run
    config, so they share its one build: one topology and one path set per
    source, which reaches each pool worker once. The report's hash is the
    only one computed."""
    suite = SUITES[name]
    report = Report(suite=name, scenario_hash=scenario_hash(scenario))
    keys = [(d, v) for d in packet_counts for v in suite.variants]
    cells = [configured(scenario, packets=d, **suite.variants[v]) for d, v in keys]
    built = build_scenario(scenario)
    workers = min(jobs, len(cells))  # a pool starts all its workers at once
    if workers > 1:
        # imported here: `multiprocessing` costs every serial process memory
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers, initializer=_share_build,
                                 initargs=(built,)) as pool:
            results = list(pool.map(_run_cell, cells))
    else:
        results = [run_scenario(c, built) for c in cells]
    base = {"suite": name, "scenario": scenario.name, "scenario_hash": report.scenario_hash}
    runs = dict(zip(keys, results))
    for (d, variant), metrics in runs.items():
        report.rows += [{**base, "seed": metrics.seed, **row}
                        for row in suite.rows(d, variant, metrics)]
    for d in packet_counts:
        cell = {v: runs[d, v] for v in suite.variants}
        report.checks += [
            _ordering(f"D={d}: {label}", order, [getattr(cell[v], attr) for v in order])
            for label, attr, order in suite.orderings]
        for src in sorted(results[0].per_source_completion_s):
            report.checks += [
                _ordering(f"D={d} source {src}: {label}", order,
                          [getattr(cell[v], attr)[src] for v in order])
                for label, attr, order in suite.source_orderings]
        if suite.plots is not None:
            report.plots.update(suite.plots(d, cell))
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


__all__ = [
    "Report", "SUITES", "Suite", "configured", "metrics_rows", "path_plots",
    "render_rows", "run_suite", "write_rows_csv",
]
