"""Command-line entry point: discover (each source's path set), allocate
(per-path quotas), run (one simulation), experiment (scheme or framework
suite) and gen-topology (seeded uniform deployment).

The first four print their rows in --format (text, csv or json-lines), or
with --out DIR write them to DIR as CSV beside their companion files
(summary, trace, suite report, plot data) and print nothing. --trace and
--plot-data need --out.

Exit codes: 0 success, 1 usage error, 2 scenario error (loading, building
or discovering a scenario, or constructing its engine), 3 simulation error
(anything raised while an engine runs: a livelock, a stalled flow, a bug).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback

from .allocator import AllocationInput, PathParams, scheme_allocation
from .engine import Engine, SimulationError
from .experiments import (
    Report,
    configured,
    metrics_rows,
    render_rows,
    run_multisource_frameworks,
    run_scheme_comparison,
    write_plot_data,
    write_rows_csv,
)
from .scenario import (
    build_scenario,
    generate_random_scenario,
    load_scenario,
    save_scenario,
    scenario_hash,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SCENARIO = 2
EXIT_SIMULATION = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Parser:
    parser = _Parser(prog="wsn-multipath",
                     description="multi-source multipath routing simulator")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p):
        p.add_argument("--scenario", required=True, help="scenario YAML file")
        p.add_argument("--seed", type=int, default=None, help="seed override")
        output = p.add_mutually_exclusive_group()
        output.add_argument("--out", default=None,
                            help="write the CSV and its companion files here; print nothing")
        output.add_argument("--format", choices=("csv", "text", "json-lines"),
                            default=None, help="stdout format without --out (default text)")

    p = sub.add_parser("discover", help="print discovered/declared path sets")
    common(p)

    p = sub.add_parser("allocate", help="per-path packet quotas")
    common(p)
    p.add_argument("--packets", type=int, default=None,
                   help="override packets per source")
    p.add_argument("--scheme", type=int, choices=(1, 2, 3), default=None)
    p.add_argument("--source", type=int, default=None,
                   help="restrict output to one source")

    p = sub.add_parser("run", help="simulate one scenario")
    common(p)
    p.add_argument("--packets", type=int, default=None)
    p.add_argument("--scheme", type=int, choices=(1, 2, 3), default=None)
    p.add_argument("--trace", action="store_true", help="write the event trace")
    p.add_argument("--plot-data", action="store_true")

    p = sub.add_parser("experiment", help="run a packaged suite")
    common(p)
    p.add_argument("--suite", choices=("schemes", "frameworks"), required=True)
    p.add_argument("--packets", dest="volumes", metavar="D", type=int, nargs="+",
                   default=[100, 200])
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--plot-data", action="store_true")

    p = sub.add_parser("gen-topology", help="write a seeded uniform deployment")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--area", type=float, required=True, help="square side, meters")
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--packets", type=int, default=100)
    p.add_argument("--out", required=True, help="output scenario file")
    return parser


def _load(args):
    """The scenario file with the command's --seed, --packets, --scheme and
    --trace applied."""
    scenario = load_scenario(args.scenario)
    if args.seed is not None:
        scenario.seed = args.seed
    overrides = {"record_trace": True} if getattr(args, "trace", False) else {}
    if getattr(args, "scheme", None) is not None:
        overrides["scheme"] = args.scheme
    return configured(scenario, packets=getattr(args, "packets", None), **overrides)


def _emit(args, name: str, rows: list[dict], files: dict[str, str] | None = None,
          report: Report | None = None) -> int:
    """The output rule. With --out, write the rows to `name` as CSV, each
    of `files`, and with --plot-data the plot series, and print nothing; a
    report writes its own CSV and its text as `{suite}.txt`. Without
    --out, print the rows in --format; a report's text format is its own
    table with its check lines."""
    if args.out is None:
        fmt = args.format or "text"
        if fmt == "json-lines":
            sys.stdout.writelines(json.dumps(row, sort_keys=True) + "\n" for row in rows)
        elif fmt == "text" and report is not None:
            sys.stdout.write(report.to_text())
        else:
            sys.stdout.write(render_rows(rows, fmt))
        return EXIT_OK
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, name)
    if report is None:
        write_rows_csv(rows, path)
    else:
        report.to_csv(path)
        files = {f"{report.suite}.txt": report.to_text()}
    for file_name, text in (files or {}).items():
        with open(os.path.join(args.out, file_name), "w") as fh:
            fh.write(text)
    if getattr(args, "plot_data", False):
        write_plot_data(rows, args.out)
    return EXIT_OK


def cmd_discover(args) -> int:
    scenario = _load(args)
    topology, specs = build_scenario(scenario)
    rows = []
    for spec in specs:
        for idx, path in enumerate(spec.paths):
            rows.append({
                "source": spec.node_id, "path": idx,
                "route": "-".join(str(n) for n in path.nodes),
                "hops": path.hops, "tau_s": path.tau_s,
                "hop_dist_m": round(path.hop_dist_m, 6),
                "sensing_w": scenario.params.sensing_w,
                "tx_electronics_w": scenario.params.tx_electronics_w,
                "tx_amp_w_per_mk": scenario.params.tx_amp_w_per_mk,
                "tx_bit_time_s": scenario.params.tx_bit_time_s,
                "rx_bit_time_s": scenario.params.rx_bit_time_s,
            })
    return _emit(args, "paths.csv", rows)


def cmd_allocate(args) -> int:
    scenario = _load(args)
    sources = [s.id for s in scenario.sources]
    if args.source is not None and args.source not in sources:
        print(f"wsn-multipath allocate: error: node {args.source} is not a source; "
              f"the sources of {scenario.name} are {', '.join(map(str, sources))}",
              file=sys.stderr)
        return EXIT_USAGE
    topology, specs = build_scenario(scenario)
    # the scenario's own probes, if it declares any, discount each route
    # by the last count they recorded
    contention = ({key: history[-1] for key, history
                   in Engine(scenario).run().contention_history.items()}
                  if scenario.engine.probe_times else {})
    rows = []
    for spec in specs:
        if args.source is not None and spec.node_id != args.source:
            continue
        paths = [PathParams(p.hops, p.tau_s, contention.get((spec.node_id, i), 0))
                 for i, p in enumerate(spec.paths)]
        alloc = scheme_allocation(
            scenario.engine.scheme,
            AllocationInput(params=scenario.params, total_packets=spec.packets,
                            paths=paths, source_sink_dist_m=spec.source_sink_dist_m))
        for idx, (p, quota) in enumerate(zip(spec.paths, alloc.quotas)):
            rows.append({
                "source": spec.node_id, "path": idx,
                "route": "-".join(str(n) for n in p.nodes),
                "hops": p.hops, "contention": paths[idx].contention,
                "quota": quota, "raw_bound": alloc.raw_quotas[idx],
                "budget_edp_js": alloc.budget_edp,
                "exceeds_bound": alloc.exceeds_bound[idx],
            })
    return _emit(args, "allocation.csv", rows)


def cmd_run(args) -> int:
    metrics = Engine(_load(args)).run()
    files = {"summary.txt": _summary_text(metrics)}
    if args.trace:
        files["trace.txt"] = "\n".join(metrics.trace) + ("\n" if metrics.trace else "")
    return _emit(args, "metrics.csv", metrics_rows(metrics), files)


def _summary_text(metrics) -> str:
    lines = [
        f"scenario: {metrics.scenario_name} ({metrics.scenario_hash}) seed {metrics.seed}",
        f"completion: {metrics.completion_s!r} s over {metrics.event_count} events",
        f"delivered {metrics.total_delivered} / injected {metrics.total_injected} "
        f"(overflow {metrics.dropped_overflow}, fault {metrics.dropped_fault}, "
        f"retransmissions {metrics.retransmissions}, duplicates {metrics.duplicates})",
        f"energy spent: {metrics.energy_spent_j!r} J "
        f"{ {k: round(v, 9) for k, v in metrics.energy_breakdown_j.items()} }",
    ]
    for src in sorted(metrics.per_source_completion_s):
        lines.append(
            f"source {src}: completion {metrics.per_source_completion_s[src]!r} s, "
            f"comm energy {metrics.per_source_comm_j[src]!r} J")
    return "\n".join(lines) + "\n"


def cmd_experiment(args) -> int:
    run_suite = (run_scheme_comparison if args.suite == "schemes"
                 else run_multisource_frameworks)
    report = run_suite(_load(args), args.volumes, jobs=args.jobs)
    return _emit(args, f"{args.suite}.csv", report.rows, report=report)


def cmd_gen_topology(args) -> int:
    scenario, connected = generate_random_scenario(
        args.count, args.area, args.radius, args.seed, packets=args.packets)
    if not connected:
        print(f"warning: source {scenario.sources[0].id} cannot reach sink "
              f"{scenario.sink} at radius {args.radius}", file=sys.stderr)
    out_parent = os.path.dirname(os.path.abspath(args.out))
    os.makedirs(out_parent, exist_ok=True)
    save_scenario(scenario, args.out)
    print(f"{args.out}: {args.count} nodes, seed {args.seed}, "
          f"hash {scenario_hash(scenario)}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.out is None and (getattr(args, "trace", False)
                             or getattr(args, "plot_data", False)):
        parser.error("--trace and --plot-data write files, so they need --out")
    handlers = {
        "discover": cmd_discover,
        "allocate": cmd_allocate,
        "run": cmd_run,
        "experiment": cmd_experiment,
        "gen-topology": cmd_gen_topology,
    }
    try:
        return handlers[args.command](args)
    except SimulationError as exc:
        if exc.__cause__ is not None:  # an engine bug: show where it broke
            traceback.print_exception(exc.__cause__, file=sys.stderr)
        print(f"simulation error: {exc}", file=sys.stderr)
        return EXIT_SIMULATION
    except (ValueError, KeyError) as exc:
        # Engine.run turns everything it raises into SimulationError, so
        # these come from loading, building or discovering the scenario
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_SCENARIO


if __name__ == "__main__":
    raise SystemExit(main())
