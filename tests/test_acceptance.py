"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import dataclasses
import math
import random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from wsn_multipath.allocator import (
    AllocationInput,
    PathParams,
    allocate_multi_source,
    solve_quota_bound,
)
from wsn_multipath.engine import run_scenario
from wsn_multipath.experiments import configured, run_suite
from wsn_multipath.metrics import average_edp, path_edp
from wsn_multipath.model import NetworkParams
from wsn_multipath.scenario import FaultDecl, build_scenario, generate_random_scenario

from conftest import (
    allocate_single_source,
    crossing_fault_scenario,
    crossing_scenario,
    fault_beacon_scenario,
    fault_timer_scenario,
    line_scenario,
    random_scenario,
    shipped,
    small_params,
    with_another_fault,
    with_fault,
)
from test_engine import (
    _line_link_fault,
    _replaced_successor_out_of_range,
    _spare_taking_the_route_end,
    _star_scenario,
)

PARAMS = NetworkParams()


def _passline(n, text):
    print(f"\n[criterion {n:2d}] PASS  {text}")


def _quotas_for(scenario, packets):
    _, specs = build_scenario(scenario)
    out = {}
    for spec in specs:
        alloc = allocate_multi_source(AllocationInput(
            params=scenario.params, total_packets=packets,
            paths=[PathParams(p.hops, p.tau_s) for p in spec.paths],
            source_sink_dist_m=spec.source_sink_dist_m))
        out[spec.node_id] = alloc.quotas
    return out


def test_criterion_01_mesh_allocation_reproduction():
    targets = {1: (30, 40, 30), 3: (45, 35, 20), 10: (37, 37, 26)}
    quotas = _quotas_for(shipped("three-source-mesh"), packets=100)
    for src, want in targets.items():
        got = quotas[src]
        for g, w in zip(got, want):
            assert abs(g - w) <= 3, (src, got, want)
    _passline(1, f"13-node quotas {quotas} within +-3 of {targets}")


def test_criterion_02_large_volume_quota_reproduction():
    targets = {
        1000: {1: (310, 380, 310), 3: (434, 336, 230), 10: (372, 372, 256)},
        2000: {1: (620, 760, 620), 3: (866, 672, 462), 10: (743, 743, 514)},
    }
    scenario = shipped("three-source-mesh-sim")
    for packets, by_source in targets.items():
        quotas = _quotas_for(scenario, packets)
        for src, want in by_source.items():
            for g, w in zip(quotas[src], want):
                assert abs(g - w) <= 0.03 * w, (packets, src, quotas[src], want)
    _passline(2, "quotas at 1000/2000 packets within +-3% of every target cell")


def test_criterion_03_allocator_oracle_equivalence():
    rng = random.Random(99)
    checked = 0
    for _ in range(200):
        n = rng.randint(1, 6)
        hops = [rng.randint(1, 10) for _ in range(n)]
        taus = [rng.uniform(0.005, 0.05) for _ in range(n)]
        dist = rng.uniform(5.0, 29.0)
        packets = rng.randint(1, 200)
        h_avg = sum(hops) / n
        tau_avg = sum(taus) / n
        rhs = average_edp(PARAMS, packets, n, h_avg, tau_avg, dist)
        for h, t in zip(hops, taus):
            root = solve_quota_bound(PARAMS, h, t, dist, rhs)
            assert path_edp(PARAMS, root, h, t, dist) <= rhs * (1 + 1e-9)
            scan = 0
            while path_edp(PARAMS, scan + 1, h, t, dist) <= rhs:
                scan += 1
            assert abs(root - scan) <= 1.0
            checked += 1
    _passline(3, f"closed-form root vs integer scan within 1 packet on "
                 f"{checked} path instances across 200 random inputs")


@settings(max_examples=200, deadline=None)
@given(paths=st.lists(
    st.tuples(st.integers(min_value=1, max_value=10),
              st.floats(min_value=0.005, max_value=0.05)),
    min_size=1, max_size=6),
    packets=st.integers(min_value=0, max_value=200),
    dist=st.floats(min_value=5.0, max_value=29.0))
def test_criterion_04_zero_contention_reduction(paths, packets, dist):
    inp = AllocationInput(params=PARAMS, total_packets=packets,
                          paths=[PathParams(h, t, 0) for h, t in paths],
                          source_sink_dist_m=dist)
    single = allocate_single_source(inp)
    multi = allocate_multi_source(inp)
    assert multi.quotas == single.quotas
    assert multi.raw_quotas == single.raw_quotas


def test_criterion_04_passline():
    _passline(4, "zero-contention multi-source allocation bit-identical to "
                 "single-source over 200 random property cases")


def _cov(values):
    mean = sum(values) / len(values)
    var = sum((v - mean) ** 2 for v in values) / len(values)
    return math.sqrt(var) / mean


def test_criterion_05_scheme_orderings_and_dispersion():
    fan = shipped("five-path-fan")
    for packets in (100, 200):
        runs = {s: run_scenario(configured(fan, packets=packets, scheme=s))
                for s in (1, 2, 3)}
        delay = {s: m.completion_s for s, m in runs.items()}
        energy = {s: m.energy_spent_j for s, m in runs.items()}
        assert delay[3] <= delay[2] <= delay[1], (packets, delay)
        assert energy[1] <= energy[3] <= energy[2], (packets, energy)
        per_path = lambda m: [st_["sim_delay_s"] for st_ in m.per_path.values()]
        cov3 = _cov(per_path(runs[3]))
        cov2 = _cov(per_path(runs[2]))
        assert cov3 < 0.10, (packets, cov3)
        assert cov2 > 0.40, (packets, cov2)
    _passline(5, f"simulated delay/energy orderings hold at 100 and 200 packets; "
                 f"per-path delay spread {cov3:.1%} (strategic) vs {cov2:.1%} (equal)")


def test_criterion_06_framework_orderings():
    report = run_suite("frameworks", shipped("three-source-mesh-sim"), [1000, 2000])
    net_checks = [ok for label, ok in report.checks if "net" in label]
    assert all(net_checks), report.checks
    source_delay = [ok for label, ok in report.checks
                    if "source" in label and "delay" in label]
    source_energy = [ok for label, ok in report.checks
                     if "source" in label and "energy" in label]
    assert len(source_delay) == 6 and sum(source_delay) >= 5, report.checks
    assert len(source_energy) == 6 and sum(source_energy) >= 5, report.checks
    _passline(6, f"net orderings 4/4; per-source delay {sum(source_delay)}/6, "
                 f"energy {sum(source_energy)}/6")


def test_criterion_07_determinism(tmp_path):
    from wsn_multipath.cli import main
    from wsn_multipath.scenario import save_scenario
    sc = shipped("three-source-mesh")
    sc_path = tmp_path / "mesh.yaml"
    save_scenario(sc, str(sc_path))
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["run", "--scenario", str(sc_path), "--out", str(out),
                     "--trace", "--seed", "42"]) == 0
        outs.append(out)
    for fname in ("metrics.csv", "trace.txt", "summary.txt"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()
    _passline(7, "repeated runs byte-identical (metrics.csv, trace.txt, summary.txt)")


def _conservation_cases():
    for seed in range(50):
        yield f"random-{seed}", random_scenario(seed)
    # pipelined multi-source traffic: sources relay for one another, so a
    # source's first-hop sub-queue fills with foreign packets
    for mesh in (shipped("three-source-mesh"), shipped("three-source-mesh-sim")):
        yield f"{mesh.name}-pipelined", configured(mesh, packets=2000, window=None)
    for seed in range(12):
        yield f"crossing-{seed}", crossing_scenario(seed)
    # the same crossings with one interior node failing mid-run, in both
    # queue disciplines, recovered by a spare or abandoned without one
    for seed in range(3, 6):
        for fragmented in (True, False):
            for spare in (True, False):
                yield (f"crossing-fault-{seed}-{fragmented}-{spare}",
                       crossing_fault_scenario(seed, fragmented, spare))


def test_criterion_08_conservation_suite():
    overflow_seen = relaying = cases = faulted = detected = 0
    for name, scenario in _conservation_cases():
        metrics = run_scenario(scenario)
        assert (metrics.total_delivered + metrics.total_dropped
                == metrics.total_injected), name
        for src, injected in metrics.injected.items():
            resolved = sum(
                stats["delivered"] + stats["dropped"]
                for (s, _), stats in metrics.per_path.items() if s == src)
            assert resolved == injected, (name, src)
        spent = (sum(metrics.initial_j.values())
                 - sum(metrics.residual_j.values()))
        assert metrics.energy_spent_j == pytest.approx(
            spent, abs=1e-12 * sum(metrics.initial_j.values())), name
        overflow_seen += metrics.dropped_overflow > 0
        faulted += bool(scenario.faults)
        detected += bool(metrics.detections)
        relaying += any(n in metrics.injected
                        for stats in metrics.per_path.values()
                        for n in stats["route"][1:-1])
        cases += 1
    assert overflow_seen >= 5
    assert relaying >= 10
    assert detected == faulted == 12
    _passline(8, f"packet conservation and energy ledger balance on {cases} "
                 f"scenarios ({overflow_seen} with forced overflow drops, "
                 f"{relaying} where sources relay for other sources, "
                 f"{faulted} with a detected node fault)")


@st.composite
def faulted_runs(draw):
    """A line, a `crossing_scenario` grid or a small seeded uniform
    deployment, in either queue discipline, with a drawn window and loss
    rate, where one node or link of a route fails within the fault-free,
    lossless run, with or without a spare beside it, under any fault
    detection mode; and maybe, later, the route's next node past that one
    fails too, with a spare of its own beside it. An interior node of the
    route may also be declared a spare, which a fault can make a
    substitute at a second position."""
    family = draw(st.sampled_from(("line", "crossing", "uniform")))
    if family == "line":
        base = line_scenario(packets=draw(st.integers(3, 30)),
                             hops=draw(st.integers(2, 5)))
    elif family == "crossing":
        base = crossing_scenario(draw(st.integers(0, 999)))
    else:
        base, connected = generate_random_scenario(
            draw(st.integers(10, 25)), 80.0, 30.0, seed=draw(st.integers(0, 999)),
            packets=draw(st.integers(5, 40)))
        assume(connected)
        base = dataclasses.replace(base, params=small_params(radio_range_m=30.0))
    base = configured(base, fragmented=draw(st.booleans()),
                      window=draw(st.sampled_from((1, 3, None))), max_attempts=3,
                      fault_detection=draw(st.sampled_from(("auto", "on", "off"))))
    _topology, specs = build_scenario(base)
    route = draw(st.sampled_from([p.nodes for spec in specs for p in spec.paths]))
    at = draw(st.integers(0, len(route) - 2))
    link = (route[at], route[at + 1]) if draw(st.booleans()) else None
    completion_s = run_scenario(configured(base, loss_prob=0.0)).completion_s
    time_s = draw(st.floats(0.0, 1.0)) * completion_s
    spare_beside = ((route[at + 1] if link else route[at])
                    if draw(st.booleans()) else None)
    scenario = with_fault(base, FaultDecl(time_s, node=None if link else route[at], link=link),
                          spare_beside)
    after = at + 2 if link else at + 1  # the route's next node past the fault
    if after < len(route) - 1 and draw(st.booleans()):
        later_s = time_s + draw(st.floats(0.0, 1.0, exclude_min=True)) * completion_s
        scenario = with_another_fault(scenario, FaultDecl(later_s, node=route[after]),
                                      route[after])
    if len(route) > 2 and draw(st.booleans()):
        scenario = dataclasses.replace(scenario, redundant=(
            *scenario.redundant, draw(st.sampled_from(route[1:-1]))))
    return configured(scenario, loss_prob=draw(st.sampled_from((0.0, 0.1, 0.3))))


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(scenario=faulted_runs())
# the shared FIFO on a dead link that nothing detects retried forever
@example(scenario=configured(_line_link_fault(), fault_detection="off",
                             fragmented=False))
# random losses on a live hop to the sink were taken for a fault
@example(scenario=configured(shipped("three-source-mesh-sim"), packets=100, window=None,
                             max_attempts=3, loss_prob=0.2, fault_detection="on"))
# the link from node 2 into the sink 3 dies: the spare beside the sink
# takes the end of every route, while packets still fly to the sink
# over its other links
@example(scenario=with_fault(
    configured(crossing_scenario(1), fragmented=True, window=1, max_attempts=3,
               fault_detection="on"),
    FaultDecl(0.05, link=(2, 3)), spare_beside=3))
# a relay that a spare replaced still held frames for its successor when
# that failed, and the successor's spare was out of the relay's range
@example(scenario=_replaced_successor_out_of_range(fragmented=True))
@example(scenario=_replaced_successor_out_of_range(fragmented=False))
# a spare replaced alive took the route's end with its old hop, and
# frames circled until the event cap
@example(scenario=_spare_taking_the_route_end(fragmented=True))
@example(scenario=_spare_taking_the_route_end(fragmented=False))
def test_criterion_08_faulted_runs_property(scenario):
    _topology, specs = build_scenario(scenario)
    hops = max(p.hops for spec in specs for p in spec.paths)
    packets = sum(decl.packets for decl in scenario.sources)
    metrics = run_scenario(configured(
        scenario, record_trace=True,
        max_events=20 * packets * hops * scenario.engine.max_attempts))
    assert metrics.total_delivered + metrics.total_dropped == metrics.total_injected
    for src, injected in metrics.injected.items():
        assert injected == sum(stats["delivered"] + stats["dropped"]
                               for (s, _), stats in metrics.per_path.items()
                               if s == src)
    clock = [float(line.split(",", 1)[0]) for line in metrics.trace]
    assert clock == sorted(clock)
    assert all(j >= 0.0 for j in metrics.energy_breakdown_j.values())
    declared = {n for fault in scenario.faults
                for n in (fault.link or (fault.node,))}
    assert all(d["failed"] in declared for d in metrics.detections), metrics.detections


def test_criterion_09_fault_protocol():
    beacon = run_scenario(fault_beacon_scenario())
    assert beacon.replacements == [(3, 6)]          # nearest spare takes over
    assert beacon.retransmissions == 10             # the full attempt budget
    assert beacon.total_delivered == 5 and beacon.total_dropped == 0
    timer = run_scenario(fault_timer_scenario())
    assert timer.replacements == [(2, 7)]
    assert timer.total_delivered == 5 and timer.total_dropped == 0
    watchdog = [d for d in timer.detections if d["kind"] == "receiver_timer"]
    assert watchdog
    tau = (1000 / 5000 + 1000 / 50000 + 1000 / 50000) / 3
    assert watchdog[0]["latency_s"] <= 10 * tau + 1e-9
    _passline(9, f"replacement after 10 attempts, all packets delivered; "
                 f"watchdog latency {watchdog[0]['latency_s']:.3f}s <= m*tau "
                 f"{10 * tau:.3f}s")


def test_criterion_10_queue_isolation():
    light = lambda m: {k: v for k, v in m.per_source_completion_s.items() if k != 1}
    shallow = run_scenario(_star_scenario(flood_packets=6))
    deep = run_scenario(_star_scenario(flood_packets=18))
    assert light(shallow) == light(deep)
    for src in (2, 3, 4):
        wait = deep.per_path[(src, 0)]["mean_wait_s"]
        assert wait <= 4 * 0.02 + 1e-9, (src, wait)
    fifo = run_scenario(_star_scenario(flood_packets=18, fragmented=False))
    for src in (2, 3, 4):
        assert (deep.per_source_completion_s[src]
                < fifo.per_source_completion_s[src])
    _passline(10, "sibling sub-queues unaffected by a saturated neighbor queue "
                  "(depth-independent timing, waits within the round-robin share)")
