"""The benchmark's workloads: each writes its scenario YAML files from the
seed and returns the CLI commands, one argument list each, that run them.
The program under test sees only the YAML files and the arguments.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass

MESH = os.path.join("scenarios", "three-source-mesh-sim.yaml")


@dataclass(frozen=True)
class Sizes:
    frameworks_packets: tuple[int, ...]
    pipelined_packets: int
    uniform_nodes: int
    uniform_area_m: float
    uniform_radius_m: float
    uniform_packets: int


FULL = Sizes(frameworks_packets=(1000, 2000), pipelined_packets=10000,
             uniform_nodes=5000, uniform_area_m=1200.0, uniform_radius_m=30.0,
             uniform_packets=300)
# a few seconds for both workloads; the small deployment gets a longer
# radio range than FULL so that its corner source is rarely cut off
SMOKE = Sizes(frameworks_packets=(50,), pipelined_packets=50,
              uniform_nodes=200, uniform_area_m=240.0, uniform_radius_m=40.0,
              uniform_packets=50)


def mesh(root: str, work: str, seed: int, sizes: Sizes) -> list[list[str]]:
    """The shipped mesh twice: windowed as shipped under all three
    multi-source frameworks, then with no window, where queues run deep and
    routes cross."""
    from wsn_multipath.experiments import configured
    from wsn_multipath.scenario import load_scenario, save_scenario

    shipped = dataclasses.replace(load_scenario(os.path.join(root, MESH)), seed=seed)
    frameworks = os.path.join(work, "frameworks.yaml")
    save_scenario(shipped, frameworks)
    pipelined = os.path.join(work, "pipelined.yaml")
    save_scenario(configured(shipped, packets=sizes.pipelined_packets, window=None),
                  pipelined)
    return [["experiment", "--suite", "frameworks", "--jobs", "1",
             "--packets", *map(str, sizes.frameworks_packets), "--scenario", frameworks],
            ["run", "--scenario", pipelined]]


def uniform_fault(root: str, work: str, seed: int, sizes: Sizes) -> list[list[str]]:
    """A seeded uniform deployment with one scheduled node failure.

    The generator's source is the node farthest from the sink; when that
    node cannot reach the sink, the farthest node that can is the source.
    The failed node is the middle interior node of the first route; it
    fails at half the fault-free completion time. Spares are the common
    neighbours of its two route neighbours that lie on no route, so a
    replacement fits when one exists and the flow is abandoned otherwise.
    """
    from wsn_multipath.engine import Engine
    from wsn_multipath.scenario import (
        FaultDecl,
        generate_random_scenario,
        save_scenario,
    )

    scenario, connected = generate_random_scenario(
        sizes.uniform_nodes, sizes.uniform_area_m, sizes.uniform_radius_m, seed,
        packets=sizes.uniform_packets)
    if not connected:
        scenario = _farthest_connected_source(scenario)
    engine = Engine(scenario)
    completion_s = engine.run().completion_s
    route = engine.specs[0].paths[0].nodes
    if len(route) < 3:
        raise RuntimeError(f"seed {seed}: first route {route} has no interior node")
    middle = len(route) // 2
    failed, before, after = route[middle], route[middle - 1], route[middle + 1]
    on_routes = {n for spec in engine.specs for p in spec.paths for n in p.nodes}
    topology = engine.topology
    spares = (set(topology.neighbors(before)) & set(topology.neighbors(after))) - on_routes
    scenario = dataclasses.replace(
        scenario, redundant=tuple(sorted(spares)),
        faults=[FaultDecl(completion_s / 2.0, node=failed)])
    path = os.path.join(work, "scenario.yaml")
    save_scenario(scenario, path)
    return [["run", "--scenario", path]]


def _farthest_connected_source(scenario):
    from wsn_multipath.model import build_topology

    topology = build_topology(scenario.positions, scenario.params.radio_range_m)
    sink_xy = scenario.positions[scenario.sink]
    reachable = topology.reachable_from(scenario.sink) - {scenario.sink}
    if not reachable:
        raise RuntimeError(f"sink {scenario.sink} has no neighbour")
    source = max(reachable, key=lambda n: (math.dist(scenario.positions[n], sink_xy), -n))
    return dataclasses.replace(
        scenario, sources=[dataclasses.replace(scenario.sources[0], id=source)])


WORKLOADS = {
    "mesh": mesh,
    "uniform-5000-fault": uniform_fault,
}
