"""Shared scenario factories for the test suite."""

from __future__ import annotations

import hashlib
import math
import random
from pathlib import Path

import pytest

from wsn_multipath.allocator import Allocation, AllocationInput, apportion, solve_quota_bound
from wsn_multipath.experiments import configured, metrics_rows, render_rows
from wsn_multipath.metrics import average_edp
from wsn_multipath.model import NetworkParams
from wsn_multipath.scenario import FaultDecl, RunConfig, Scenario, SourceDecl, load_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def shipped(name: str, packets: int | None = None) -> Scenario:
    """The shipped scenario `scenarios/{name}.yaml`, freshly loaded, with
    `packets` per source when given."""
    return configured(load_scenario(str(SCENARIOS / f"{name}.yaml")), packets=packets)


def fingerprint(metrics) -> str:
    """SHA-256 of one canonical text of everything a run reports: the
    trace, the `metrics_rows` CSV, residuals, contention histories,
    detections, replacements, abandonments, per-source completion,
    duplicates, event count, energy breakdown and `per_path`. Dicts are
    written in their own order, so a change of order moves it too."""
    text = "\n".join([
        *metrics.trace,
        render_rows(metrics_rows(metrics), "csv"),
        repr(metrics.residual_j),
        repr(metrics.contention_history),
        repr(metrics.detections),
        repr(metrics.replacements),
        repr(metrics.abandoned),
        repr(metrics.per_source_completion_s),
        repr(metrics.duplicates),
        repr(metrics.event_count),
        repr(metrics.energy_breakdown_j),
        repr(metrics.per_path),
    ])
    return hashlib.sha256(text.encode()).hexdigest()


def key_path(where: tuple) -> str:
    """`where` as a scenario error names it: ("faults", 0, "time") is
    faults[0].time."""
    return "".join(f"[{k}]" if type(k) is int else f".{k}" for k in where).lstrip(".")


def small_params(**overrides) -> NetworkParams:
    base = dict(
        tx_electronics_w=1.024e-3,
        tx_amp_w_per_mk=1.0e-12,
        path_loss_exp=2.0,
        rx_electronics_w=8.192e-4,
        tx_bit_time_s=2.0e-5,
        rx_bit_time_s=2.0e-5,
        sensing_w=1e-9,
        packet_size_bits=1000.0,
        radio_range_m=25.0,
        initial_energy_j=23760.0,
    )
    base.update(overrides)
    return NetworkParams(**base)


def allocate_single_source(inp: AllocationInput) -> Allocation:
    """Oracle for the strategic split without contention, from the public
    pieces: the equal-split EDP at the fleet-average hops and latency is
    every path's budget, each path's bound is the largest real packet count
    within it, and the bounds are apportioned to the exact total."""
    n = len(inp.paths)
    budget = average_edp(inp.params, inp.total_packets, n,
                         sum(p.hops for p in inp.paths) / n,
                         sum(p.tau_s for p in inp.paths) / n,
                         inp.source_sink_dist_m)
    bounds = [solve_quota_bound(inp.params, p.hops, p.tau_s, inp.source_sink_dist_m,
                                budget)
              for p in inp.paths]
    return Allocation(quotas=apportion(bounds, inp.total_packets),
                      raw_quotas=bounds, budget_edp=budget)


def line_scenario(packets=20, hops=5, window=None, link_delay=0.0,
                  **engine_overrides) -> Scenario:
    """Source 1 -> interior 11.. -> sink 2, nodes 20 m apart."""
    positions = {1: (0.0, 0.0)}
    route = [1]
    for i in range(hops - 1):
        positions[11 + i] = (20.0 * (i + 1), 0.0)
        route.append(11 + i)
    positions[2] = (20.0 * hops, 0.0)
    route.append(2)
    return Scenario(
        name=f"line-{hops}hops",
        params=small_params(),
        positions=positions,
        sink=2,
        sources=[SourceDecl(1, packets, paths=[route])],
        link_delay_s=link_delay,
        engine=RunConfig(scheme=2, window=window, **engine_overrides),
    )


def y_scenario(shared: bool, packets=2) -> Scenario:
    """Two sources merging at a relay (shared) or using private relays."""
    positions = {1: (0.0, 0.0), 2: (0.0, 30.0), 5: (60.0, 15.0)}
    if shared:
        positions[3] = (20.0, 15.0)
        positions[4] = (40.0, 15.0)
        paths1, paths2 = [[1, 3, 4, 5]], [[2, 3, 4, 5]]
    else:
        positions.update({3: (20.0, 0.0), 4: (40.0, 2.0),
                          6: (20.0, 30.0), 7: (40.0, 28.0)})
        paths1, paths2 = [[1, 3, 4, 5]], [[2, 6, 7, 5]]
    return Scenario(
        name="y-shared" if shared else "y-disjoint",
        params=small_params(radio_range_m=26.0),
        positions=positions,
        sink=5,
        sources=[SourceDecl(1, packets, paths=paths1),
                 SourceDecl(2, packets, paths=paths2)],
        engine=RunConfig(scheme=2, window=None, fault_detection="off"),
    )


def fault_beacon_scenario(packets=5, fail_time=0.125) -> Scenario:
    """Line 1-2-3-4 with a third neighbor for node 2 and a redundant spare
    next to node 3; node 3 (the receiver of hop 2->3) fails mid-run."""
    positions = {1: (0.0, 0.0), 2: (20.0, 0.0), 3: (40.0, 0.0), 4: (60.0, 0.0),
                 5: (20.0, 20.0), 6: (40.0, 1.0)}
    return Scenario(
        name="fault-beacon",
        params=small_params(),
        positions=positions,
        sink=4,
        sources=[SourceDecl(1, packets, paths=[[1, 2, 3, 4]])],
        redundant=(6,),
        faults=[FaultDecl(fail_time, node=3)],
        engine=RunConfig(scheme=2, window=1),
    )


def fault_timer_scenario(packets=5, fail_time=0.6) -> Scenario:
    """Line 1-2-3-4 where node 2 (the sender of hop 2->3) fails while idle.

    The source's link is slowed tenfold so its own retry counter cannot
    reach the threshold before the downstream watchdog concludes the
    failure; the receiver-timer path is the one that resolves. A spare
    sits next to node 2.
    """
    positions = {1: (0.0, 0.0), 2: (20.0, 0.0), 3: (40.0, 0.0), 4: (60.0, 0.0),
                 7: (20.0, 1.0)}
    return Scenario(
        name="fault-timer",
        params=small_params(),
        positions=positions,
        sink=4,
        sources=[SourceDecl(1, packets, paths=[[1, 2, 3, 4]])],
        link_overrides={(1, 2): (5000.0, 0.0), (1, 7): (5000.0, 0.0)},
        redundant=(7,),
        faults=[FaultDecl(fail_time, node=2)],
        engine=RunConfig(scheme=2, window=1),
    )


def random_scenario(seed: int) -> Scenario:
    """Small random connected deployment for conservation sweeps.

    Roughly a third get one-packet sub-queues fed through a fast ingress
    link, which reliably forces overflow drops at the first relay.
    """
    rng = random.Random(seed)
    hops = rng.randint(2, 6)
    branches = rng.randint(1, 3)
    positions = {1: (0.0, 0.0)}
    sink = 2
    paths = []
    nid = 10
    # tent heights scaled so every hop stays within the 25 m radio range
    heights = [0.0, 6.0 * hops, -6.0 * hops]
    span = 20.0 * hops
    for b in range(branches):
        route = [1]
        for i in range(1, hops):
            t = i / hops
            y = heights[b] * (2 * t if t <= 0.5 else 2 * (1 - t))
            positions[nid] = (span * t, y)
            route.append(nid)
            nid += 1
        route.append(sink)
        paths.append(route)
        nid = (nid // 10 + 1) * 10
    positions[sink] = (span, 0.0)
    packets = rng.randint(5, 40)
    tight = rng.random() < 0.35
    overrides = {}
    if tight:
        window = None
        for route in paths:
            a, b = sorted((route[0], route[1]))
            overrides[(a, b)] = (200000.0, 0.0)
    else:
        window = rng.choice([None, 1, 3])
    return Scenario(
        name=f"random-{seed}",
        seed=seed,
        params=small_params(radio_range_m=25.0),
        positions=positions,
        sink=sink,
        sources=[SourceDecl(1, packets, paths=paths)],
        link_overrides=overrides,
        engine=RunConfig(
            scheme=rng.choice([1, 2, 3]),
            window=window,
            queue_packets_per_subqueue=1 if tight else 50,
            fault_detection="off",
        ),
    )


def crossing_scenario(seed: int) -> Scenario:
    """Several pipelined sources on a grid, routes discovered.

    Nodes sit 20 m apart under a 25 m radio range, so each talks to its
    four grid neighbours. The discovered routes of different sources
    cross, and often pass through another source, which then relays
    foreign traffic through the same sub-queues its own packets enter.
    """
    rng = random.Random(seed)
    side = rng.randint(4, 6)
    positions = {r * side + c + 1: (20.0 * c, 20.0 * r)
                 for r in range(side) for c in range(side)}
    sink = rng.choice(sorted(positions))
    ids = rng.sample(sorted(n for n in positions if n != sink), rng.randint(2, 4))
    return Scenario(
        name=f"crossing-{seed}",
        seed=seed,
        params=small_params(radio_range_m=25.0),
        positions=positions,
        sink=sink,
        sources=[SourceDecl(n, rng.randint(20, 80)) for n in sorted(ids)],
        engine=RunConfig(
            scheme=rng.choice([1, 2, 3]),
            window=rng.choice([None, None, 2]),
            queue_packets_per_subqueue=rng.choice([1, 2, 3, 5, 50]),
            fragmented=rng.random() < 0.75,
            fault_detection="off",
        ),
    )


def with_fault(base: Scenario, fault: FaultDecl, spare_beside: int | None = None) -> Scenario:
    """`base` with its discovered routes declared, one fault, and with
    `spare_beside` a spare 1 m from that node, which hears the same
    neighbours; declared routes cannot change to pass through it."""
    from dataclasses import replace

    from wsn_multipath.scenario import build_scenario

    _topology, specs = build_scenario(base)
    positions, redundant = dict(base.positions), ()
    if spare_beside is not None:
        x, y = positions[spare_beside]
        redundant = (max(positions) + 1,)
        positions[redundant[0]] = (x, y + 1.0)
    return replace(
        base, positions=positions, redundant=redundant, faults=[fault],
        sources=[replace(decl, paths=[list(p.nodes) for p in spec.paths])
                 for decl, spec in zip(base.sources, specs)])


def with_another_fault(base: Scenario, fault: FaultDecl, spare_beside: int) -> Scenario:
    """`base` with `fault` after its own, and a spare of its own 1 m from
    node `spare_beside`."""
    from dataclasses import replace

    x, y = base.positions[spare_beside]
    spare = max(base.positions) + 1
    return replace(base, positions={**base.positions, spare: (x, y + 1.0)},
                   redundant=(*base.redundant, spare), faults=[*base.faults, fault])


def crossing_fault_scenario(seed: int, fragmented: bool, spare: bool) -> Scenario:
    """`crossing_scenario(seed)` in the given queue discipline, where the
    middle interior node of the first route with one fails halfway through
    the fault-free run, with fault detection on and a livelock cap far
    above what these runs need.

    The discovered routes are declared explicitly, so that the spare
    (with `spare`: a new node 1 m from the failed one, which hears the
    same grid neighbours) cannot change them.
    """
    from dataclasses import replace

    from wsn_multipath.engine import run_scenario
    from wsn_multipath.scenario import build_scenario

    base = crossing_scenario(seed)
    base.engine = replace(base.engine, fragmented=fragmented)
    _topology, specs = build_scenario(base)
    route = next(p.nodes for spec in specs for p in spec.paths if p.hops > 1)
    failed = route[len(route) // 2]
    completion_s = run_scenario(base).completion_s
    positions = dict(base.positions)
    redundant = ()
    if spare:
        x, y = positions[failed]
        spare_id = max(positions) + 1
        positions[spare_id] = (x, y + 1.0)
        redundant = (spare_id,)
    return replace(
        base,
        name=f"crossing-fault-{seed}",
        positions=positions,
        sources=[replace(decl, paths=[list(p.nodes) for p in spec.paths])
                 for decl, spec in zip(base.sources, specs)],
        redundant=redundant,
        faults=[FaultDecl(completion_s / 2.0, node=failed)],
        engine=replace(base.engine, fault_detection="on", max_events=100_000),
    )


def late_spare_scenario(fragmented: bool) -> Scenario:
    """Sources 1 and 2 both relay through node 5 to the sink 9: source 1
    on 1-5-2-9, source 2 on 2-5-9. Node 5 fails at 0.3 s and spare 6,
    1 m from it, takes its place, so the spare holds its first frame only
    after the replacement. Slow links out of the spare and five-packet
    sub-queues with no window keep its sub-queues toward 2 and toward 9
    full while it is probed at 1.0-3.0 s."""
    positions = {1: (-20.0, 0.0), 2: (10.0, 17.0), 5: (0.0, 0.0), 6: (0.0, 1.0),
                 9: (20.0, 0.0)}
    return Scenario(
        name="late-spare",
        params=small_params(),
        positions=positions,
        sink=9,
        sources=[SourceDecl(1, 120, paths=[[1, 5, 2, 9]]),
                 SourceDecl(2, 120, paths=[[2, 5, 9]])],
        link_overrides={(2, 6): (12500.0, 0.0), (6, 9): (12500.0, 0.0)},
        redundant=(6,),
        faults=[FaultDecl(0.3, node=5)],
        engine=RunConfig(scheme=2, window=None, queue_packets_per_subqueue=5,
                         fragmented=fragmented, fault_detection="on",
                         record_trace=True, probe_times=[1.0, 1.5, 2.0, 2.5, 3.0]),
    )


def uniform_fault_scenario(count: int, area_m: float, radius_m: float, seed: int,
                           packets: int) -> Scenario:
    """A connected seeded uniform deployment, traced, where the middle
    interior node of the first discovered route fails halfway through the
    fault-free run. Spares are the common neighbours of its two route
    neighbours that lie on no route."""
    from dataclasses import replace

    from wsn_multipath.engine import run_scenario
    from wsn_multipath.scenario import build_scenario, generate_random_scenario

    base, connected = generate_random_scenario(count, area_m, radius_m, seed,
                                               packets=packets)
    assert connected
    topology, specs = build_scenario(base)
    route = specs[0].paths[0].nodes
    middle = len(route) // 2
    failed, before, after = route[middle], route[middle - 1], route[middle + 1]
    on_routes = {n for spec in specs for p in spec.paths for n in p.nodes}
    spares = (set(topology.neighbors(before)) & set(topology.neighbors(after))) - on_routes
    return replace(
        base,
        redundant=tuple(sorted(spares)),
        faults=[FaultDecl(run_scenario(base).completion_s / 2.0, node=failed)],
        engine=replace(base.engine, record_trace=True),
    )


@pytest.fixture
def mesh():
    return shipped("three-source-mesh")


@pytest.fixture
def mesh_sim():
    return shipped("three-source-mesh-sim")


@pytest.fixture
def fan():
    return shipped("five-path-fan")
