import math

import pytest
from hypothesis import example, given, settings, strategies as st

from wsn_multipath.model import (
    ConnectivityError,
    DomainError,
    InvalidPathError,
    Link,
    NetworkParams,
    RoutingError,
    ScenarioError,
    SourceSpec,
    build_topology,
    path_tau,
    validate_path,
)
from wsn_multipath.engine import run_scenario
from wsn_multipath.scenario import Scenario, SourceDecl, build_scenario

from conftest import uniform_fault_scenario


def test_params_reject_nonpositive_fields():
    with pytest.raises(ScenarioError):
        NetworkParams(tx_electronics_w=0.0)
    with pytest.raises(ScenarioError):
        NetworkParams(packet_size_bits=-1.0)


def test_params_path_loss_bounds():
    NetworkParams(path_loss_exp=2.0)
    NetworkParams(path_loss_exp=4.0)
    with pytest.raises(ScenarioError):
        NetworkParams(path_loss_exp=1.9)
    with pytest.raises(ScenarioError):
        NetworkParams(path_loss_exp=4.1)


def test_two_nodes_in_range():
    topo = build_topology({1: (0, 0), 2: (1, 0)}, radio_range_m=2.4)
    assert topo.are_adjacent(1, 2)
    assert len(topo.neighbors(1)) == 1
    assert len(topo.neighbors(2)) == 1


def test_two_nodes_out_of_range():
    topo = build_topology({1: (0, 0), 2: (3, 0)}, radio_range_m=2.4)
    assert not topo.are_adjacent(1, 2)
    with pytest.raises(RoutingError, match="no link between 1 and 2"):
        topo.link(1, 2)
    with pytest.raises(ConnectivityError) as err:
        build_scenario(Scenario(name="apart", params=NetworkParams(radio_range_m=2.4),
                                positions={1: (0, 0), 2: (3, 0)}, sink=2,
                                sources=[SourceDecl(1, 5)]))
    assert err.value.source == 1
    assert "1" in str(err.value)


def test_rejects_nonfinite_positions():
    with pytest.raises(DomainError):
        build_topology({1: (0, 0), 2: (math.nan, 0)}, radio_range_m=2.4)


@pytest.mark.parametrize("radius", [0.0, -1.0, math.nan])
def test_rejects_nonpositive_radius(radius):
    with pytest.raises(DomainError):
        build_topology({1: (0, 0), 2: (1, 0)}, radio_range_m=radius)


def _all_pairs_links(positions, radio_range_m, overrides):
    """The reference build: test every pair, in ascending (a, b) order."""
    links = {}
    ids = sorted(positions)
    for i, a in enumerate(ids):
        ax, ay = positions[a]
        for b in ids[i + 1:]:
            bx, by = positions[b]
            if math.hypot(ax - bx, ay - by) <= radio_range_m:
                speed, delay = overrides.get((a, b), (50000.0, 0.0))
                links[(a, b)] = Link(speed, delay)
    return links


@st.composite
def _deployments(draw):
    radius = draw(st.sampled_from([30.0, 0.1, 1 / 3]))
    # a few radii wide, around 0 or far from it on either side
    base = draw(st.sampled_from([0.0, -7.5e3, 1e6, -3e9]))
    coordinate = st.one_of(
        st.floats(-4 * radius, 4 * radius, allow_nan=False),
        st.integers(-4, 4).map(lambda k: k * radius),   # lattice on the radius
        st.floats(-1e-12, 1e-12, allow_nan=False),      # either side of a base of 0
    ).map(lambda v: base + v)
    ids = draw(st.lists(st.integers(0, 300), max_size=40, unique=True))
    positions = {nid: (draw(coordinate), draw(coordinate)) for nid in ids}
    # partners exactly one radius away along an axis
    for nid in draw(st.lists(st.sampled_from(ids), max_size=5, unique=True)
                    if ids else st.just([])):
        x, y = positions[nid]
        dx, dy = draw(st.sampled_from([(1, 0), (-1, 0), (0, 1), (0, -1)]))
        positions[1000 + nid] = (x + dx * radius, y + dy * radius)
    pairs = [(a, b) for a in sorted(positions) for b in sorted(positions) if a < b]
    overrides = {}
    if pairs:
        for pair in draw(st.lists(st.sampled_from(pairs), max_size=6)):
            overrides[pair] = (draw(st.sampled_from([25000.0, 1e6])),
                               draw(st.sampled_from([0.0, 0.003])))
    return positions, radius, overrides


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_deployments())
# in range, yet in cells -1 and 1 if the cells were exactly 30 wide
@example(({1: (-1e-15, 0.0), 2: (30.0, 0.0)}, 30.0, {}))
@example(({1: (0.3, 0.0), 2: (0.4, 0.0), 3: (0.2, 0.1)}, 0.1, {(1, 3): (1e6, 0.0)}))
# overrides on pairs in range, (1, 2) and (2, 3), and out of range, (1, 4)
@example(({1: (0, 0), 2: (10, 0), 3: (20, 0), 4: (50, 0)}, 12.0,
          {(1, 2): (25000.0, 0.002), (2, 3): (1e6, 0.0), (1, 4): (1e6, 0.003)}))
# integer coordinates, which the scan reads through the build's float copy:
# pairs exactly one radius apart across cell edges, and one just out of range
@example(({1: (-7500, 3), 2: (-7470, 3), 3: (-7500, 33), 4: (-7531, 3), 5: (-7441, 3)},
          30.0, {(1, 2): (1e6, 0.0)}))
def test_grid_build_equals_all_pairs_build(deployment):
    positions, radius, overrides = deployment
    topo = build_topology(positions, radius, link_overrides=overrides)
    expected = _all_pairs_links(positions, radius, overrides)
    assert list(topo.links.items()) == list(expected.items())
    for nid in positions:
        assert topo.neighbors(nid) == tuple(sorted(
            b if a == nid else a for a, b in expected if nid in (a, b)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_deployments())
def test_pair_lookups_agree_with_the_link_table(deployment):
    # `are_adjacent` and `link` read the adjacency and the overrides; the
    # table, built when first read, holds the same records. Every ordered
    # pair is asked, a node with itself and an id outside the deck too.
    positions, radius, overrides = deployment
    topo = build_topology(positions, radius, link_overrides=overrides)
    ids = [*positions, max(positions, default=0) + 1]
    for a in ids:
        for b in ids:
            pair = (min(a, b), max(a, b))
            assert topo.are_adjacent(a, b) == (pair in topo.links)
            if pair in topo.links:
                assert topo.link(a, b) is topo.links[pair]
            else:
                with pytest.raises(RoutingError, match=f"^no link between {a} and {b}$"):
                    topo.link(a, b)


def test_a_run_builds_no_link_table():
    sc = uniform_fault_scenario(1000, 540.0, 30.0, seed=10, packets=20)
    built = build_scenario(sc)
    metrics = run_scenario(sc, built)
    assert metrics.replacements  # the run looked links up, and replaced a node
    assert "links" not in vars(built[0])


def test_mesh_pinned_neighbor_counts(mesh):
    topo, _ = build_scenario(mesh)
    assert set(topo.neighbors(3)) == {2, 4, 7}
    assert len(topo.neighbors(3)) == 3
    assert set(topo.neighbors(9)) == {5, 6, 8, 11}
    assert len(topo.neighbors(9)) == 4


def test_adjacency_symmetric_and_degree_consistent(mesh):
    topo, _ = build_scenario(mesh)
    for nid in topo.nodes:
        for other in topo.neighbors(nid):
            assert nid in topo.neighbors(other)
        assert len(topo.neighbors(nid)) == sum(nid in link for link in topo.links)


def test_validate_path_mesh_routes(mesh):
    topo, _ = build_scenario(mesh)
    assert validate_path(topo, [1, 2, 3, 4, 5, 6]).hops == 5
    assert validate_path(topo, [1, 7, 8, 9, 6]).hops == 4


def test_validate_path_degenerate_and_errors(mesh):
    topo, _ = build_scenario(mesh)
    with pytest.raises(InvalidPathError):
        validate_path(topo, [1])
    with pytest.raises(InvalidPathError):
        validate_path(topo, [1, 2, 3, 2, 1, 7])
    with pytest.raises(InvalidPathError) as err:
        validate_path(topo, [1, 2, 9, 6])
    assert err.value.hop_index == 1


def test_path_tau_from_link_parameters():
    topo = build_topology({1: (0, 0), 2: (10, 0), 3: (20, 0)},
                          radio_range_m=12.0, link_speed_bps=50000.0,
                          link_delay_s=0.001)
    info = validate_path(topo, [1, 2, 3])
    assert path_tau(topo, info, 1000.0) == pytest.approx(0.021)


def test_source_spec_disjointness_check(mesh):
    topo, specs = build_scenario(mesh)
    for spec in specs:
        spec.check_locally_disjoint()
    # overlapping pair: both routes relay through nodes 8 and 9
    bad = SourceSpec(node_id=1, packets=10, paths=[
        validate_path(topo, [1, 7, 8, 9, 6]),
        validate_path(topo, [1, 10, 8, 9, 6]),
    ])
    with pytest.raises(InvalidPathError):
        bad.check_locally_disjoint()


def test_link_overrides_apply():
    topo = build_topology({1: (0, 0), 2: (10, 0)}, radio_range_m=12.0,
                          link_overrides={(1, 2): (25000.0, 0.002)})
    link = topo.link(1, 2)
    assert link.speed_bps == 25000.0
    assert link.delay_s == 0.002


def test_pairs_without_override_share_one_link():
    positions = {n: (10.0 * n, 0.0) for n in range(1, 7)}
    topo = build_topology(positions, 12.0,
                          link_overrides={(3, 4): (1e6, 0.0), (1, 6): (1e6, 0.0)})
    assert len({id(link) for link in topo.links.values()}) == 2
    assert topo.link(1, 2) is topo.link(6, 5) == Link(50000.0, 0.0)
    assert topo.link(3, 4) == Link(1e6, 0.0)


@pytest.mark.parametrize("speed", [0.0, -1.0, math.inf, math.nan])
def test_invalid_default_speed_raises_only_when_a_pair_takes_it(speed):
    with pytest.raises(ScenarioError, match=r"^link\.speed_bps must be a finite number > 0, got "):
        build_topology({1: (0, 0), 2: (1, 0)}, radio_range_m=2.4, link_speed_bps=speed)
    # no pair in range, or none without an override: no link takes the default
    assert build_topology({1: (0, 0), 2: (3, 0)}, radio_range_m=2.4,
                          link_speed_bps=speed).links == {}
    topo = build_topology({1: (0, 0), 2: (1, 0)}, radio_range_m=2.4,
                          link_speed_bps=speed, link_overrides={(1, 2): (1e6, 0.0)})
    assert topo.link(2, 1) == Link(1e6, 0.0)


def test_invalid_override_in_range_raises():
    with pytest.raises(ScenarioError,
                       match=r"^link\.delay_s must be a finite number >= 0, got -1\.0$"):
        build_topology({1: (0, 0), 2: (1, 0)}, radio_range_m=2.4,
                       link_overrides={(1, 2): (1e6, -1.0)})
    # out of range, an override is ignored, as the all-pairs build ignored it
    build_topology({1: (0, 0), 2: (3, 0)}, radio_range_m=2.4,
                   link_overrides={(1, 2): (1e6, -1.0)})
