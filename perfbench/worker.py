"""One repetition of a workload, in a fresh process.

    python3 perfbench/worker.py <request.json> <result.json>

The request names the repository root, the CLI commands with their output
directories and whether to trace. The worker runs ``wsn_multipath.cli.main``
once per command, in order, checks every engine run they made, and writes
one JSON result. It runs alone in its process so that its peak resident
memory is the workload's.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
import traceback

SUM_REL_TOL = 1e-9      # energy buckets against the spent total
LEDGER_REL_TOL = 1e-6   # initial minus residual against the spent total


def check_run(engine, metrics) -> tuple[dict, list[str]]:
    """Tallies of one engine run and the output checks it fails."""
    unresolved = sum(f.backlog + f.outstanding for f in engine.flows.values())
    resolved = metrics.total_delivered + metrics.total_dropped
    injected = metrics.total_injected
    failures = []
    if resolved + unresolved != injected:
        failures.append(
            f"conservation: delivered {metrics.total_delivered} + dropped "
            f"{metrics.total_dropped} + unresolved {unresolved} != injected {injected}")
    spent = metrics.energy_spent_j
    buckets = sum(metrics.energy_breakdown_j.values())
    if abs(buckets - spent) > SUM_REL_TOL * abs(spent):
        failures.append(f"energy buckets sum to {buckets!r}, spent {spent!r}")
    drained = sum(metrics.initial_j[n] - metrics.residual_j[n] for n in metrics.initial_j)
    if abs(drained - spent) > LEDGER_REL_TOL * abs(spent):
        failures.append(f"node energy drained {drained!r}, spent {spent!r}")
    tally = {
        "injected": injected,
        "resolved": resolved,
        "unresolved": unresolved,
        "events": metrics.event_count,
        "dropped_overflow": metrics.dropped_overflow,
        "retransmissions": metrics.retransmissions,
        "detections": len(metrics.detections),
        "replacements": len(metrics.replacements),
    }
    return tally, failures


def csv_digest(out_dirs: list[str]) -> str:
    digest = hashlib.sha256()
    for index, out_dir in enumerate(out_dirs):
        for name in sorted(os.listdir(out_dir)):
            if name.endswith(".csv"):
                digest.update(f"{index}/{name}".encode() + b"\0")
                with open(os.path.join(out_dir, name), "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()[:16]


def run(request: dict) -> dict:
    sys.path.insert(0, os.path.join(request["root"], "src"))
    from wsn_multipath import cli, engine as engine_mod

    from tracer import BOUNDARY_HOOKS, LAYER_HOOKS, Tracer

    runs = []
    engine_run = engine_mod.Engine.run

    def captured_run(self):
        metrics = engine_run(self)
        runs.append((self, metrics))
        return metrics

    engine_mod.Engine.run = captured_run
    tracer = Tracer()
    tracer.install(LAYER_HOOKS if request["trace"] else BOUNDARY_HOOKS)

    result: dict = {"ok": False, "checks_failed": []}
    code = 0
    result["main_s"] = 0.0
    for argv in request["commands"]:
        started = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:
            traceback.print_exc()
            code = None
        result["main_s"] += time.perf_counter() - started
        if code != 0:
            break
    result["exit_code"] = code
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    totals: dict[str, int] = {}
    for engine, metrics in runs:
        tally, failures = check_run(engine, metrics)
        result["checks_failed"].extend(failures)
        for key, value in tally.items():
            totals[key] = totals.get(key, 0) + value
    result["tally"] = totals
    result["setup_s"] = tracer.setup_s()
    result["engine_run_s"] = tracer.total("engine.run_s")
    if code != 0 or not runs:
        return result
    result["digest"] = csv_digest(request["outs"])
    result["ok"] = not result["checks_failed"]
    if request["trace"]:
        result["self_s"] = tracer.self_times()
        result["counts"] = dict(tracer.counts)
        result["max_links"] = max(len(e.topology.links) for e, _ in runs)
        result["paths"] = sum(len(s.paths) for e, _ in runs for s in e.specs)
        result["report_checks_failed"] = sum(
            1 for line in _report_text(request["outs"]) if line.startswith("[FAIL]"))
    return result


def _report_text(out_dirs: list[str]) -> list[str]:
    lines: list[str] = []
    for out_dir in out_dirs:
        for name in sorted(os.listdir(out_dir)):
            if name.endswith(".txt") and name != "summary.txt":
                with open(os.path.join(out_dir, name)) as fh:
                    lines.extend(fh.read().splitlines())
    return lines


def main(argv: list[str]) -> int:
    request_path, result_path = argv
    with open(request_path) as fh:
        request = json.load(fh)
    result = run(request)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
