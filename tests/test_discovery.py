import pytest
from hypothesis import example, given, settings, strategies as st

from wsn_multipath.discovery import (
    _lex_shortest_path,
    choke_probe,
    discover_paths,
)
from wsn_multipath.model import ConnectivityError, DomainError, build_topology, validate_path
from wsn_multipath.scenario import build_scenario

from conftest import crossing_scenario


def occupancy(path, fill=None, dead=()):
    """The probe's input: each live node of `path`, at `fill` or empty."""
    fill = fill or {}
    return {n: fill.get(n, 0.0) for n in path.nodes if n not in dead}


def test_line_graph_single_path():
    topo = build_topology({1: (0, 0), 3: (10, 0), 2: (20, 0)}, radio_range_m=12.0)
    paths = discover_paths(topo, 1, 2)
    assert len(paths) == 1
    assert paths[0].nodes == (1, 3, 2)
    assert paths[0].hops == 2


def test_mesh_discovery_matches_declared_sets(mesh):
    topo, specs = build_scenario(mesh)
    found = discover_paths(topo, 1, 6)
    declared = {s.node_id: s for s in specs}[1]
    assert ({frozenset(p.interior) for p in found}
            == {frozenset(p.interior) for p in declared.paths})
    # extraction order: shortest first, then lowest-id tie-break
    assert found[0].nodes == (1, 7, 8, 9, 6)
    assert found[1].nodes == (1, 2, 3, 4, 5, 6)
    assert found[2].nodes == (1, 10, 11, 12, 13, 6)


def test_complete_graph_enumeration():
    # all four nodes mutually in range; by-hand enumeration: the direct
    # route is found first, then no interior-disjoint alternative is needed
    topo = build_topology({1: (0, 0), 3: (1, 0), 4: (0, 1), 2: (1, 1)},
                          radio_range_m=2.0)
    paths = discover_paths(topo, 1, 2)
    assert paths[0].nodes == (1, 2)
    assert len(paths) <= len(topo.neighbors(1))
    for a in paths:
        for b in paths:
            if a is not b:
                assert not (a.interior & b.interior)


def test_direct_route_is_found_once():
    # source 7 is a grid neighbour of sink 3: the one-hop route blocks no
    # node, so another round would only return it again
    topo, specs = build_scenario(crossing_scenario(2))
    assert [p.nodes for p in discover_paths(topo, 7, 3)] == [(7, 3)]
    assert [p.nodes for p in specs[0].paths] == [(7, 3)]
    assert len(topo.neighbors(7)) == 4


def test_discovery_unreachable():
    topo = build_topology({1: (0, 0), 2: (100, 0)}, radio_range_m=5.0)
    with pytest.raises(ConnectivityError):
        discover_paths(topo, 1, 2)


def test_discovery_source_equals_sink(mesh):
    topo, _ = build_scenario(mesh)
    with pytest.raises(DomainError):
        discover_paths(topo, 6, 6)


def test_discovery_deterministic(mesh):
    topo1, _ = build_scenario(mesh)
    topo2, _ = build_scenario(mesh)
    assert ([p.nodes for p in discover_paths(topo1, 3, 6)]
            == [p.nodes for p in discover_paths(topo2, 3, 6)])


def _one_ended_lex_shortest_path(topology, source, sink, blocked):
    """The reference search: one ball grown from the sink until its level
    reaches the source, then the greedy lowest-id walk down its levels."""
    adjacency = topology.adjacency
    dist = {sink: 0}
    seen = blocked | {sink}
    frontier = [sink]
    level = 0
    while frontier and source not in seen:
        level += 1
        nxt = []
        for n in frontier:
            for m in adjacency[n]:
                if m not in seen:
                    seen.add(m)
                    nxt.append(m)
        dist.update(dict.fromkeys(nxt, level))
        frontier = nxt
    if source not in seen:
        return None
    path = [source]
    current = source
    while current != sink:
        step = min(m for m in adjacency[current]
                   if dist.get(m) == dist[current] - 1)
        path.append(step)
        current = step
    return tuple(path)


@st.composite
def _searches(draw):
    """A random geometric graph in the unit square, a source and a sink,
    and a random set of blocked interior nodes."""
    radius = draw(st.sampled_from([0.15, 0.25, 0.4]))
    ids = draw(st.lists(st.integers(1, 99), min_size=2, max_size=60, unique=True))
    unit = st.floats(0.0, 1.0, allow_nan=False)
    positions = {nid: (draw(unit), draw(unit)) for nid in ids}
    source, sink = draw(st.permutations(ids))[:2]
    blocked = set(draw(st.lists(st.sampled_from(ids), max_size=len(ids))))
    return positions, radius, source, sink, blocked - {source, sink}


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_searches())
# the source next to the sink, beside a two-hop route
@example(({1: (0.0, 0.0), 2: (0.2, 0.0), 3: (0.1, 0.1)}, 0.25, 1, 2, set()))
# the source cut off by the blocked set, in a component of many nodes
@example(({1: (0.0, 0.0), 5: (0.1, 0.0),
           **{n: (0.2 + 0.1 * (n % 5), 0.1 * (n // 5 - 2)) for n in range(10, 40)}},
          0.15, 1, 39, {5}))
# a deck of two components, the sink's larger
@example(({1: (0.0, 0.0), 2: (0.1, 0.0),
           **{n: (0.6 + 0.05 * (n % 6), 0.05 * (n // 6)) for n in range(10, 40)}},
          0.15, 1, 25, set()))
# several shortest routes that tie on length: the lowest ids win
@example(({1: (0.0, 0.5), 2: (0.2, 0.3), 3: (0.2, 0.7), 4: (0.2, 0.5),
           5: (0.4, 0.5)}, 0.3, 1, 5, set()))
def test_two_ended_search_returns_the_one_ended_path(search):
    positions, radius, source, sink, blocked = search
    topo = build_topology(positions, radius)
    expected = _one_ended_lex_shortest_path(topo, source, sink, set(blocked))
    assert _lex_shortest_path(topo, source, sink, blocked) == expected
    assert blocked == search[4]  # the search leaves its argument as it was


def _mesh_path(mesh, nodes):
    topo, _ = build_scenario(mesh)
    return validate_path(topo, nodes)


def test_choke_probe_idle_network(mesh):
    path = _mesh_path(mesh, [3, 7, 8, 9, 6])
    assert choke_probe(occupancy(path), path.nodes) == 0


def test_choke_probe_saturation_counts_sink(mesh):
    # every visited node (interior + sink, not the probing source) flagged
    path = _mesh_path(mesh, [3, 7, 8, 9, 6])
    occ = {n: 0.9 for n in path.nodes}
    assert choke_probe(occupancy(path, occ), path.nodes) == path.hops


def test_choke_probe_single_hot_node(mesh):
    path = _mesh_path(mesh, [3, 7, 8, 9, 6])
    assert choke_probe(occupancy(path, {8: 0.6}), path.nodes) == 1
    # the probing source's own queue is not inspected
    assert choke_probe(occupancy(path, {3: 0.9}), path.nodes) == 0


def test_choke_probe_threshold_is_strict(mesh):
    path = _mesh_path(mesh, [3, 7, 8, 9, 6])
    assert choke_probe(occupancy(path, {8: 0.5}), path.nodes) == 0


def test_choke_probe_failed_node(mesh):
    path = _mesh_path(mesh, [3, 7, 8, 9, 6])
    with pytest.raises(KeyError):
        choke_probe(occupancy(path, dead=(8,)), path.nodes)


def test_choke_count_monotone_in_occupancy(mesh):
    path = _mesh_path(mesh, [3, 7, 8, 9, 6])
    base = {7: 0.6, 8: 0.3, 9: 0.7}
    before = choke_probe(occupancy(path, dict(base)), path.nodes)
    filled = {**base, 8: 0.8}           # one queue fills
    drained = {**base, 7: 0.1}          # one queue drains
    assert choke_probe(occupancy(path, filled), path.nodes) >= before
    assert choke_probe(occupancy(path, drained), path.nodes) <= before
