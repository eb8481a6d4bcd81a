"""Command-line entry point: discover (each source's path set), allocate
(per-path quotas), run (one simulation), experiment (scheme or framework
suite) and gen-topology (seeded uniform deployment).

The first four print their rows in --format (text, csv or json-lines), or
with --out DIR write them to DIR as CSV beside their companion files
(summary, trace, suite report, plot data) and print nothing. --trace and
--plot-data need --out.

Exit codes: 0 success, 1 usage error, 2 scenario error (a ScenarioError:
the file or the scenario it describes is rejected), 3 simulation error
(anything raised while an engine runs: a livelock, a stalled flow, a bug)
or any other exception, which is a bug and is printed with its traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback

from .engine import Engine, SimulationError, source_allocation
from .experiments import (
    SUITES,
    Report,
    configured,
    metrics_rows,
    path_plots,
    render_rows,
    run_suite,
    write_rows_csv,
)
from .model import ScenarioError
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
    p.add_argument("--suite", choices=tuple(SUITES), required=True)
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
    """The output rule. With --out, write the rows to `name` as CSV and
    each of `files`, and print nothing; a report writes its own CSV and
    its text as `{suite}.txt`. Without --out, print the rows in --format;
    a report's text format is its own table with its check lines."""
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
        files = {f"{report.suite}.txt": report.to_text(), **(files or {})}
    for file_name, text in (files or {}).items():
        with open(os.path.join(args.out, file_name), "w") as fh:
            fh.write(text)
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
                   in Engine(scenario, (topology, specs)).run().contention_history.items()}
                  if scenario.engine.probe_times else {})
    rows = []
    for spec in specs:
        if args.source is not None and spec.node_id != args.source:
            continue
        alloc = source_allocation(scenario.engine, scenario.params, spec, contention)
        for idx, (p, quota) in enumerate(zip(spec.paths, alloc.quotas)):
            rows.append({
                "source": spec.node_id, "path": idx,
                "route": "-".join(str(n) for n in p.nodes),
                "hops": p.hops, "contention": contention.get((spec.node_id, idx), 0),
                "quota": quota, "raw_bound": alloc.raw_quotas[idx],
                "budget_edp_js": alloc.budget_edp,
                "exceeds_bound": alloc.exceeds_bound[idx],
            })
    return _emit(args, "allocation.csv", rows)


def cmd_run(args) -> int:
    scenario = _load(args)
    metrics = Engine(scenario).run()
    files = {"summary.txt": _summary_text(metrics)}
    if scenario.engine.record_trace:  # from the file or --trace
        files["trace.txt"] = "\n".join(metrics.trace) + ("\n" if metrics.trace else "")
    if args.plot_data:
        files.update(path_plots(metrics))
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
    report = run_suite(args.suite, _load(args), args.volumes, jobs=args.jobs)
    return _emit(args, f"{args.suite}.csv", report.rows,
                 report.plots if args.plot_data else None, report)


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


def _check_out(parser, out: str, want_dir: bool) -> None:
    """A usage error, before any work, unless `out` can be written: a
    directory for the row commands or a file for gen-topology, under no
    file. Nothing is created here."""
    path = os.path.abspath(out)
    if os.path.exists(path) and os.path.isdir(path) != want_dir:
        found, wanted = ("file", "directory") if want_dir else ("directory", "file")
        parser.error(f"--out {out} names a {found}, not a {wanted}")
    parent = os.path.dirname(path)
    while not os.path.exists(parent):
        parent = os.path.dirname(parent)
    if not os.path.isdir(parent):
        parser.error(f"--out {out} lies under the file {parent}")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.out is None and (getattr(args, "trace", False)
                             or getattr(args, "plot_data", False)):
        parser.error("--trace and --plot-data write files, so they need --out")
    if args.out is not None:
        _check_out(parser, args.out, want_dir=args.command != "gen-topology")
    if getattr(args, "jobs", 1) < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    packets = min(getattr(args, "volumes", None) or [getattr(args, "packets", None) or 0])
    if packets < 0:
        parser.error(f"--packets must be >= 0, got {packets}")
    volumes = getattr(args, "volumes", None) or []
    repeated = next((d for i, d in enumerate(volumes) if d in volumes[:i]), None)
    if repeated is not None:
        parser.error(f"--packets lists {repeated} more than once")
    handlers = {
        "discover": cmd_discover,
        "allocate": cmd_allocate,
        "run": cmd_run,
        "experiment": cmd_experiment,
        "gen-topology": cmd_gen_topology,
    }
    try:
        return handlers[args.command](args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_SCENARIO
    except SimulationError as exc:
        if exc.__cause__ is not None:  # an engine bug: show where it broke
            traceback.print_exception(exc.__cause__, file=sys.stderr)
        print(f"simulation error: {exc}", file=sys.stderr)
        return EXIT_SIMULATION
    except Exception as exc:  # a bug outside the engine's run
        traceback.print_exc(file=sys.stderr)
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SIMULATION


if __name__ == "__main__":
    raise SystemExit(main())
