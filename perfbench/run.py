"""Benchmark of the wsn_multipath simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Writes the workload's scenarios from the seed, then runs the workload's CLI
commands on them again and again, all commands of one run in one fresh
worker process, one run at a time, until S seconds have passed (at least
MIN_RUNS times). Every run's engine results are checked (conservation,
energy ledger) and its CSV outputs hashed; all runs of one invocation must
write identical CSVs.

Reported times are reference seconds. A shared host's speed swings by up
to 2x over stretches of seconds to a minute, which no run length of this
benchmark averages out. So a fixed pure-Python loop, independent of the
program, is timed on the same CPU just before and just after every run,
and the run's host seconds are divided by the loop's measured time over
its nominal REF_S: on a host that runs the loop in REF_S, a reference
second is a host second. The lines for people also print host seconds.

The last line of standard output is one JSON object:
``correct``, ``attempted`` and ``failed`` count runs,
``metrics`` holds the end-to-end metrics (``--trace 0``) or the per-layer
metrics of a traced run (``--trace 1``). The lines before it print the same
figures for people, with ``fail_frac`` and the ``sim_digest``.

``--smoke`` shrinks every workload to a few seconds; it checks the harness,
not the program's speed.
"""

from __future__ import annotations

import argparse
import heapq
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REQUIRED = (os.path.join("src", "wsn_multipath", "cli.py"),
            os.path.join("scenarios", "three-source-mesh-sim.yaml"))
MIN_RUNS = 3            # untraced runs per invocation; traced runs too with --trace 1
RUN_TIMEOUT_S = 170.0   # one invocation must end within 180 s
REF_ITERATIONS = 40000  # one pass of the reference loop
REF_PASSES = 5          # passes timed before and again after each run
REF_S = 0.04            # nominal seconds of one pass; sets the reference second


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    return parser.parse_args(argv)


def _reference_pass() -> float:
    """Seconds one pass of a fixed pure-Python loop takes now. It does the
    heap, tuple, dict and float work of an event loop and uses no code of the
    program under test, so it tracks the speed the host gives this process."""
    start = time.perf_counter()
    heap: list[tuple[float, int]] = []
    table: dict[int, float] = {}
    x = 0.0
    for i in range(REF_ITERATIONS):
        heapq.heappush(heap, (x + (i * 7919) % 1000, i))
        if len(heap) > 64:
            t, j = heapq.heappop(heap)
            table[j & 511] = table.get(j & 511, 0.0) + t
        x = x * 0.5 + 1.0
    return time.perf_counter() - start


def _reference() -> list[float]:
    return [_reference_pass() for _ in range(REF_PASSES)]


def _run_worker(commands: list[list[str]], work: str, index: int, traced: bool,
                deadline: float) -> dict:
    outs = [os.path.join(work, f"out{index}-{i}") for i in range(len(commands))]
    request = os.path.join(work, f"request{index}.json")
    result = os.path.join(work, f"result{index}.json")
    with open(request, "w") as fh:
        json.dump({"root": ROOT, "trace": traced, "outs": outs,
                   "commands": [[*argv, "--out", out] for argv, out in zip(commands, outs)]},
                  fh)
    before = _reference()
    try:
        subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), request, result],
                       cwd=ROOT, stdout=sys.stderr, check=True,
                       timeout=max(1.0, deadline - time.monotonic()))
        with open(result) as fh:
            data = json.load(fh)
    except (subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"run {index}: worker failed: {exc}", file=sys.stderr)
        data = {"ok": False, "checks_failed": [], "tally": {}}
    for failure in data["checks_failed"]:
        print(f"run {index}: check failed: {failure}", file=sys.stderr)
    if data.get("exit_code") not in (0, None):
        print(f"run {index}: CLI exited {data['exit_code']}", file=sys.stderr)
    data["traced"] = traced
    # host seconds per reference second while this run ran
    data["host_per_ref"] = statistics.median(before + _reference()) / REF_S
    for out in outs:
        shutil.rmtree(out, ignore_errors=True)
    return data


def _ref(run: dict, host_s: float) -> float:
    """Host seconds of ``run`` in reference seconds."""
    return host_s / run["host_per_ref"]


def _pkts_per_s(run: dict, host: bool = False) -> float:
    """Packets resolved per reference second (host second when ``host``)
    of ``cli.main``."""
    return run["tally"]["resolved"] / (run["main_s"] if host else _ref(run, run["main_s"]))


def _setup_s(run: dict, host: bool = False) -> float:
    return run["setup_s"] if host else _ref(run, run["setup_s"])


def _end_to_end(runs: list[dict]) -> tuple[dict, int, int]:
    """Metrics of the untraced runs, and the packets injected and
    unresolved. A failed run counts every packet it should have injected
    as unresolved."""
    ok = [r for r in runs if r["ok"]]
    nominal = max(r["tally"]["injected"] for r in ok)
    injected = sum(r["tally"]["injected"] for r in ok) + nominal * (len(runs) - len(ok))
    resolved = sum(r["tally"]["resolved"] for r in ok)
    metrics = {
        "pkts_per_s": (statistics.median(_pkts_per_s(r) for r in ok), "packets/s"),
        "setup_s": (statistics.median(_setup_s(r) for r in ok), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in ok), "MB"),
        "resolved_frac": (resolved / injected, "ratio"),
    }
    return metrics, injected, injected - resolved


def _per_layer(untraced: list[dict], traced: list[dict]) -> dict:
    ok = [r for r in traced if r["ok"]]
    tally, counts = ok[0]["tally"], ok[0]["counts"]

    def self_s(name):
        return statistics.median(_ref(r, r["self_s"].get(name, 0.0)) for r in ok)

    untraced_ok = [r for r in untraced if r["ok"]]
    main_untraced = statistics.median(_ref(r, r["main_s"]) for r in untraced_ok)
    main_traced = statistics.median(_ref(r, r["main_s"]) for r in ok)
    s, n = "s", "count"
    return {
        "scenario.load_s": (self_s("scenario.load_s"), s),
        "scenario.hash_s": (self_s("scenario.hash_s"), s),
        "scenario.hash_calls": (counts.get("scenario.hash_calls", 0), n),
        "model.topology_s": (self_s("model.topology_s"), s),
        "model.topology_calls": (counts.get("model.topology_calls", 0), n),
        "model.links": (ok[0]["max_links"], n),
        "model.link_calls": (counts.get("model.link_calls", 0), n),
        "discovery.discover_s": (self_s("discovery.discover_s"), s),
        "discovery.paths": (ok[0]["paths"], n),
        "discovery.probe_calls": (counts.get("discovery.probe_calls", 0), n),
        "allocator.alloc_s": (self_s("allocator.alloc_s"), s),
        "allocator.calls": (counts.get("allocator.calls", 0), n),
        "metrics.energy_calls": (counts.get("metrics.energy_calls", 0), n),
        "engine.init_s": (self_s("engine.init_s"), s),
        "engine.run_s": (self_s("engine.run_s"), s),
        "engine.events": (tally["events"], n),
        "engine.events_per_s": (
            tally["events"] / statistics.median(_ref(r, r["engine_run_s"]) for r in untraced_ok),
            "1/s"),
        "engine.dropped_overflow": (tally["dropped_overflow"], n),
        "engine.retransmissions": (tally["retransmissions"], n),
        "engine.detections": (tally["detections"], n),
        "engine.replacements": (tally["replacements"], n),
        "engine.unresolved": (tally["unresolved"], n),
        "experiments.cells": (counts.get("experiments.cells", 0), n),
        "experiments.write_s": (self_s("experiments.write_s"), s),
        "experiments.checks_failed": (ok[0]["report_checks_failed"], n),
        "cli.main_s": (main_traced, s),
        "other_s": (self_s("cli.main_s"), s),
        "trace.overhead_frac": (1.0 - main_untraced / main_traced, "ratio"),
    }


def _consistent(runs: list[dict]) -> list[str]:
    """Reasons the successful runs disagree on what they simulated."""
    ok = [r for r in runs if r["ok"]]
    problems = []
    digests = sorted({r["digest"] for r in ok})
    if len(digests) > 1:
        problems.append(f"runs wrote different CSVs: digests {digests}")
    tallies = {json.dumps(r["tally"], sort_keys=True) for r in ok}
    if len(tallies) > 1:
        problems.append(f"runs simulated different counts: {sorted(tallies)}")
    counts = {json.dumps(r["counts"], sort_keys=True) for r in ok if r["traced"]}
    if len(counts) > 1:
        problems.append(f"traced runs made different call counts: {sorted(counts)}")
    return problems


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return ""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return f"  [{len(values)} runs; q1 {q1:.6g}, median {median:.6g}, q3 {q3:.6g}]"


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from workloads import FULL, SMOKE, WORKLOADS

    if workload not in WORKLOADS:
        print(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_TIMEOUT_S
    # the reference loop and every worker share one CPU, so that the loop
    # times the speed the runs get
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    work_root = os.path.join(HERE, ".work")
    os.makedirs(work_root, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=work_root)
    try:
        try:
            commands = WORKLOADS[workload](ROOT, work, seed, SMOKE if smoke else FULL)
        except RuntimeError as exc:
            print(f"{workload}: cannot build the workload: {exc}", file=sys.stderr)
            return 1
        runs: list[dict] = []
        measuring = time.monotonic()
        needed = MIN_RUNS * (2 if trace else 1)
        longest = 0.0
        while len(runs) < needed or time.monotonic() - measuring < seconds:
            if time.monotonic() + 1.5 * longest > deadline:
                print(f"{workload}: stopping early to end within the time limit",
                      file=sys.stderr)
                break
            begun = time.monotonic()
            traced = trace and len(runs) % 2 == 1
            runs.append(_run_worker(commands, work, len(runs), traced, deadline))
            longest = max(longest, time.monotonic() - begun)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    elapsed = time.monotonic() - measuring

    untraced = [r for r in runs if not r["traced"]]
    traced = [r for r in runs if r["traced"]]
    failed = sum(1 for r in runs if not r["ok"])
    if not any(r["ok"] for r in untraced) or (trace and not any(r["ok"] for r in traced)):
        print(f"{workload}: no run succeeded", file=sys.stderr)
        return 1
    problems = _consistent(runs)
    for problem in problems:
        print(f"{workload}: {problem}", file=sys.stderr)

    e2e, injected, unresolved = _end_to_end(untraced)
    metrics = _per_layer(untraced, traced) if trace else e2e
    ok_untraced = [r for r in untraced if r["ok"]]
    print(f"workload {workload} seed {seed}: {len(runs)} runs "
          f"({failed} failed) in {elapsed:.1f} s")
    series = {
        "pkts_per_s": [_pkts_per_s(r) for r in ok_untraced],
        "setup_s": [_setup_s(r) for r in ok_untraced],
        "peak_rss_mb": [r["peak_rss_mb"] for r in ok_untraced],
    }
    for name, (value, unit) in e2e.items():
        print(f"  {name:<14} {value:.6g} {unit}{_quartiles(series.get(name, []))}")
    host = {
        "pkts_per_s (host s)": [_pkts_per_s(r, host=True) for r in ok_untraced],
        "setup_s (host s)": [_setup_s(r, host=True) for r in ok_untraced],
        "host s per ref s": [r["host_per_ref"] for r in ok_untraced],
    }
    for name, values in host.items():
        print(f"  {name:<20} {statistics.median(values):.6g}{_quartiles(values)}")
    print(f"  {'fail_frac':<14} {unresolved / injected:.6g} ratio  "
          f"({unresolved} of {injected} packets unresolved)")
    if trace:
        for name, (value, unit) in metrics.items():
            print(f"  {name:<26} {value:.6g} {unit}")
    digests = sorted({r["digest"] for r in runs if r["ok"]})
    print(f"sim_digest {workload} {' '.join(digests)}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    missing = [p for p in REQUIRED if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        print(f"not a wsn-multipath checkout: missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    return measure(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)


if __name__ == "__main__":
    raise SystemExit(main())
