import math

import pytest
from hypothesis import given, settings, strategies as st

from wsn_multipath.allocator import (
    Allocation,
    AllocationInput,
    PathParams,
    allocate_multi_source,
    apportion,
    scheme_allocation,
    solve_quota_bound,
)
from wsn_multipath.metrics import average_edp, path_edp
from wsn_multipath.model import DomainError, NetworkParams

from conftest import allocate_single_source

PARAMS = NetworkParams()   # table-scale constants, sensing 81.2e-6 W


def brute_force_quota(params, hops, tau, dist, rhs):
    """Independent oracle: largest integer packet count whose EDP fits."""
    quota = 0
    while path_edp(params, quota + 1, hops, tau, dist) <= rhs:
        quota += 1
        assert quota < 5_000_000
    return quota


def make_input(hops_list, packets, dist=74.0, tau=0.02, contention=None):
    cs = contention or [0] * len(hops_list)
    return AllocationInput(
        params=PARAMS, total_packets=packets,
        paths=[PathParams(h, tau, c) for h, c in zip(hops_list, cs)],
        source_sink_dist_m=dist)


# ---------------------------------------------------------------- quota bound

def test_quota_bound_zero_budget():
    assert solve_quota_bound(PARAMS, 4, 0.02, 74.0, 0.0) == 0.0


def test_quota_bound_rejects_negative_budget():
    with pytest.raises(DomainError):
        solve_quota_bound(PARAMS, 4, 0.02, 74.0, -1.0)


def test_quota_bound_rejects_zero_tau():
    # a zero per-hop latency zeroes both EDP coefficients: no root exists
    with pytest.raises(DomainError):
        solve_quota_bound(PARAMS, 4, 0.0, 74.0, 1.0)


def test_quota_bound_hits_budget_and_agrees_with_scan():
    rhs = average_edp(PARAMS, 100, 3, 14 / 3, 0.02, 74.0)
    for hops in (3, 4, 7):
        root = solve_quota_bound(PARAMS, hops, 0.02, 74.0, rhs)
        assert path_edp(PARAMS, root, hops, 0.02, 74.0) == pytest.approx(
            rhs, rel=1e-9)
        assert path_edp(PARAMS, math.floor(root) + 1, hops, 0.02, 74.0) > rhs
        scan = brute_force_quota(PARAMS, hops, 0.02, 74.0, rhs)
        assert abs(root - scan) <= 1.0


def test_quota_bound_prefers_fewer_hops_at_table_scale():
    rhs = average_edp(PARAMS, 100, 2, 5.0, 0.02, 74.0)
    shorter = solve_quota_bound(PARAMS, 3, 0.02, 74.0, rhs)
    longer = solve_quota_bound(PARAMS, 7, 0.02, 74.0, rhs)
    assert shorter >= longer


def test_quota_bound_randomized_against_scan():
    import random
    rng = random.Random(20260810)
    for _ in range(200):
        hops = rng.randint(1, 10)
        tau = rng.uniform(0.005, 0.05)
        dist = rng.uniform(5.0, 29.0)
        packets = rng.randint(1, 200)
        n = rng.randint(1, 6)
        rhs = average_edp(PARAMS, packets, n, hops, tau, dist)
        root = solve_quota_bound(PARAMS, hops, tau, dist, rhs)
        scan = brute_force_quota(PARAMS, hops, tau, dist, rhs)
        assert abs(root - scan) <= 1.0
        assert path_edp(PARAMS, root, hops, tau, dist) <= rhs * (1 + 1e-9)


# ----------------------------------------------------------------- apportion

def test_apportion_conserves_total():
    assert sum(apportion([0.3, 0.3, 0.4], 100)) == 100
    assert apportion([1.0], 57) == [57]


def test_apportion_tie_breaks_by_index():
    assert apportion([1.0, 1.0, 1.0], 100) == [34, 33, 33]


def test_apportion_degenerate():
    with pytest.raises(DomainError):
        apportion([0.0, 0.0], 5)
    assert apportion([0.0, 0.0], 0) == [0, 0]


# ----------------------------------------------------------- zero contention

def test_single_path_gets_everything():
    alloc = allocate_multi_source(make_input([4], 100))
    assert alloc.quotas == [100]


def test_identical_paths_split_evenly():
    alloc = allocate_multi_source(make_input([4, 4, 4], 100))
    assert sum(alloc.quotas) == 100
    assert max(alloc.quotas) - min(alloc.quotas) <= 1


def test_mesh_source_two_reproduction():
    alloc = allocate_multi_source(make_input([3, 4, 7], 100, dist=74.0))
    assert alloc.quotas == [45, 35, 20]


def test_raw_bounds_satisfy_budget():
    inp = make_input([3, 4, 7], 100)
    alloc = allocate_multi_source(inp)
    for raw, p in zip(alloc.raw_quotas, inp.paths):
        assert path_edp(PARAMS, raw, p.hops, p.tau_s, 74.0) <= (
            alloc.budget_edp * (1 + 1e-9))


def test_exceeds_bound_flag_set_when_normalization_overshoots():
    alloc = allocate_multi_source(make_input([3, 4, 7], 100))
    for quota, raw, flag in zip(alloc.quotas, alloc.raw_quotas, alloc.exceeds_bound):
        assert flag == (quota > raw + 1e-9)


# --------------------------------------------------------------- multi source

def test_zero_contention_reduces_to_single_source():
    inp = make_input([3, 4, 7], 100)
    single = allocate_single_source(inp)
    multi = allocate_multi_source(inp)
    assert multi.quotas == single.quotas
    assert multi.raw_quotas == single.raw_quotas


def test_full_contention_annihilates_path():
    cs = [0, 0, 8]  # third path: every node flagged (hops 7 -> 8 nodes)
    alloc = allocate_multi_source(make_input([3, 4, 7], 100, contention=cs))
    assert alloc.quotas[2] == 0
    assert sum(alloc.quotas) == 100


def test_twin_paths_full_discount():
    alloc = allocate_multi_source(make_input([4, 4], 60, contention=[0, 5]))
    assert alloc.quotas == [60, 0]


@pytest.mark.parametrize("hops, packets, message", [
    ([3], -1, "total packets must be >= 0"),
    ([], 10, "need at least one path"),
    ([3, 0], 10, "path 1: hops must be >= 1"),
])
def test_allocation_input_validated(hops, packets, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        make_input(hops, packets)


def test_contention_bounds_validated():
    with pytest.raises(DomainError):
        make_input([3], 10, contention=[5])


# ------------------------------------------------------------------- schemes

def test_scheme_one_min_hop_tie_break():
    alloc = scheme_allocation(1, make_input([3, 4, 7], 100))
    assert alloc.quotas == [100, 0, 0]
    tie = scheme_allocation(1, make_input([4, 4, 7], 100))
    assert tie.quotas == [100, 0, 0]


def test_scheme_two_equal_split():
    assert scheme_allocation(2, make_input([9, 22, 5, 20, 7], 100)).quotas == [20] * 5
    assert scheme_allocation(2, make_input([3, 4, 7], 100)).quotas == [34, 33, 33]
    assert scheme_allocation(2, make_input([3, 4, 7], 99)).quotas == [33, 33, 33]


def test_scheme_three_uses_contention_when_present():
    inp = make_input([4, 4], 60, contention=[0, 5])
    assert scheme_allocation(3, inp).quotas == [60, 0]
    plain = make_input([3, 4, 7], 100)
    assert scheme_allocation(3, plain).quotas == allocate_single_source(plain).quotas


def test_unknown_scheme_rejected():
    with pytest.raises(DomainError):
        scheme_allocation(4, make_input([3], 10))


# ---------------------------------------------------------------- properties

path_lists = st.lists(
    st.tuples(st.integers(min_value=1, max_value=10),
              st.floats(min_value=0.005, max_value=0.05)),
    min_size=1, max_size=6)


@settings(max_examples=150, deadline=None)
@given(paths=path_lists, packets=st.integers(min_value=0, max_value=200),
       dist=st.floats(min_value=5.0, max_value=29.0))
def test_conservation_every_scheme(paths, packets, dist):
    inp = AllocationInput(params=PARAMS, total_packets=packets,
                          paths=[PathParams(h, t) for h, t in paths],
                          source_sink_dist_m=dist)
    for scheme in (1, 2, 3):
        assert sum(scheme_allocation(scheme, inp).quotas) == packets


@settings(max_examples=150, deadline=None)
@given(paths=path_lists, packets=st.integers(min_value=0, max_value=200),
       dist=st.floats(min_value=5.0, max_value=29.0),
       data=st.data())
def test_zero_contention_bit_identical(paths, packets, dist, data):
    plain = AllocationInput(params=PARAMS, total_packets=packets,
                            paths=[PathParams(h, t, 0) for h, t in paths],
                            source_sink_dist_m=dist)
    single = allocate_single_source(plain)
    multi = allocate_multi_source(plain)
    assert multi.quotas == single.quotas
    assert multi.raw_quotas == single.raw_quotas


@settings(max_examples=100, deadline=None)
@given(paths=path_lists, packets=st.integers(min_value=1, max_value=200),
       dist=st.floats(min_value=5.0, max_value=29.0), seed=st.integers(0, 2**31))
def test_permutation_symmetry(paths, packets, dist, seed):
    import random
    order = list(range(len(paths)))
    random.Random(seed).shuffle(order)
    base = AllocationInput(params=PARAMS, total_packets=packets,
                           paths=[PathParams(h, t) for h, t in paths],
                           source_sink_dist_m=dist)
    shuffled = AllocationInput(params=PARAMS, total_packets=packets,
                               paths=[base.paths[i] for i in order],
                               source_sink_dist_m=dist)
    a = allocate_multi_source(base).raw_quotas
    b = allocate_multi_source(shuffled).raw_quotas
    # the budget's hop/latency means re-sum in shuffled order, so the raw
    # bounds are equal only up to float summation noise
    for out_pos, in_pos in enumerate(order):
        assert b[out_pos] == pytest.approx(a[in_pos], rel=1e-9)


@settings(max_examples=150, deadline=None)
@given(hops=st.lists(st.integers(min_value=1, max_value=10), min_size=2, max_size=6),
       packets=st.integers(min_value=1, max_value=200),
       bump=st.data())
def test_contention_monotonicity(hops, packets, bump):
    n = len(hops)
    cs = [bump.draw(st.integers(min_value=0, max_value=h), label=f"c{i}")
          for i, h in enumerate(hops)]
    target = bump.draw(st.integers(min_value=0, max_value=n - 1), label="which")
    inp = make_input(hops, packets, dist=25.0, contention=cs)
    before = allocate_multi_source(inp)
    cs2 = list(cs)
    cs2[target] += 1
    inp2 = make_input(hops, packets, dist=25.0, contention=cs2)
    try:
        after = allocate_multi_source(inp2)
    except DomainError:
        return
    # exact on the pre-rounding weights; integer quotas carry 1-packet
    # rounding slack (largest-remainder apportionment is not paradox-free)
    assert after.quotas[target] <= before.quotas[target] + 1
    for i in range(n):
        if i != target:
            assert after.quotas[i] >= before.quotas[i] - 1
