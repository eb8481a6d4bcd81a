import collections
import dataclasses
import gc
import hashlib
import itertools
import math
import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from wsn_multipath import engine as engine_module
from wsn_multipath.engine import Engine, RunMetrics, SimulationError, run_scenario
from wsn_multipath.experiments import configured, metrics_rows, render_rows
from wsn_multipath.metrics import receive_energy_per_bit, transmit_energy_per_bit
from wsn_multipath.model import Packet, RoutingError
from wsn_multipath.engine import _Flow, _NodeQueues, _Source
from wsn_multipath.scenario import (
    FaultDecl,
    RunConfig,
    Scenario,
    SourceDecl,
    build_scenario,
    scenario_hash,
)

from conftest import (
    crossing_fault_scenario,
    crossing_scenario,
    fault_beacon_scenario,
    fault_timer_scenario,
    fingerprint,
    late_spare_scenario,
    line_scenario,
    random_scenario,
    shipped,
    small_params,
    uniform_fault_scenario,
    with_fault,
    y_scenario,
)
from test_golden import _relay_link_cases


def _flow(path=0):
    return _Flow(key=(1, path), head=1, source=_Source(bytearray(1)), quota=1, tau_s=0.0)


def _pkt(uid, kind="data", seq=0):
    return Packet(kind=kind, source=1, destination=2, flow=_flow(), seq=seq, uid=uid)


def _served(q):
    """The packet the next dispatch takes, without the key it left."""
    return q.dispatch_next()[0]


# ------------------------------------------------------------- queue mechanics

def test_enqueue_empty_accepts():
    q = _NodeQueues(owner=1, neighbors=(2, 3), capacity_pkts=2, fragmented=True)
    accepted, victim = q.enqueue_data(_pkt(1), 2)
    assert accepted and victim is None


def test_enqueue_older_arrival_evicts_newest_incumbent():
    q = _NodeQueues(owner=1, neighbors=(2,), capacity_pkts=2, fragmented=True)
    q.enqueue_data(_pkt(3), 2)
    q.enqueue_data(_pkt(5), 2)
    accepted, victim = q.enqueue_data(_pkt(4), 2)
    assert accepted and victim.uid == 5
    assert [_served(q).uid for _ in range(2)] == [3, 4]


def test_enqueue_tie_drops_newest():
    q = _NodeQueues(owner=1, neighbors=(2,), capacity_pkts=2, fragmented=True)
    q.enqueue_data(_pkt(1), 2)
    q.enqueue_data(_pkt(2), 2)
    accepted, victim = q.enqueue_data(_pkt(3), 2)
    assert not accepted and victim is None  # the arrival is the newest


def test_enqueue_rejects_non_neighbor():
    q = _NodeQueues(owner=1, neighbors=(2,), capacity_pkts=2, fragmented=True)
    with pytest.raises(RoutingError):
        q.enqueue_data(_pkt(1), 9)
    with pytest.raises(RoutingError):
        q.pass_through(9)


def test_dispatch_round_robin_order():
    q = _NodeQueues(owner=1, neighbors=(2, 3), capacity_pkts=5, fragmented=True)
    p1, p2, p3 = _pkt(1), _pkt(2), _pkt(3)
    q.enqueue_data(p1, 2)
    q.enqueue_data(p3, 2)
    q.enqueue_data(p2, 3)
    assert [_served(q) for _ in range(4)] == [p1, p2, p3, None]


def test_dispatch_alternates_then_idles():
    q = _NodeQueues(owner=1, neighbors=(2, 3), capacity_pkts=5, fragmented=True)
    p1, p2 = _pkt(1), _pkt(2)
    q.enqueue_data(p1, 2)
    q.enqueue_data(p2, 3)
    assert [_served(q) for _ in range(3)] == [p1, p2, None]


def test_control_queue_served_first_and_never_dropped():
    q = _NodeQueues(owner=1, neighbors=(2,), capacity_pkts=1, fragmented=True)
    q.enqueue_data(_pkt(1), 2)
    beacon = _pkt(99, kind="beacon")
    q.enqueue_control(beacon)
    assert _served(q) is beacon
    assert _served(q).uid == 1


def test_cursor_persists_across_calls():
    q = _NodeQueues(owner=1, neighbors=(2, 3, 4), capacity_pkts=5, fragmented=True)
    for uid, hop in ((1, 2), (2, 3), (3, 4), (4, 2)):
        q.enqueue_data(_pkt(uid), hop)
    assert [_served(q).uid for _ in range(2)] == [1, 2]
    q.enqueue_data(_pkt(5), 3)
    # cursor sits at 3; next service continues at 4 before wrapping
    assert [_served(q).uid for _ in range(3)] == [3, 4, 5]


def test_retarget_moves_key_and_cursor_to_substitute():
    q = _NodeQueues(owner=1, neighbors=(2, 3, 4, 5), capacity_pkts=5, fragmented=True)
    q.block(3)
    q.retarget(3, 5)  # a never-used key: only its block is lifted
    assert q.data == {} and q.order == [] and not q.blocked
    p1, p2, p3, p4, p5 = (_pkt(uid) for uid in range(1, 6))
    for pkt, hop in ((p1, 2), (p2, 4), (p3, 4)):
        q.enqueue_data(pkt, hop)
    assert q.order == [2, 4]
    assert [_served(q) for _ in range(2)] == [p1, p2]  # cursor at 4
    q.block(4)
    q.retarget(4, 3)
    assert q.order == [2, 3] and q.cursor == 3 and not q.blocked
    assert list(q.data) == [2, 3] and list(q.data[3]) == [p3] and q.queued == 1
    q.enqueue_data(p4, 2)
    q.enqueue_data(p5, 5)
    assert q.order == [2, 3, 5]
    # service resumes after the substitute and reaches its backlog last
    assert [_served(q) for _ in range(4)] == [p5, p4, p3, None]


def test_dispatch_skips_blocked_key_on_wrap_around():
    q = _NodeQueues(owner=1, neighbors=(2, 3, 4), capacity_pkts=5, fragmented=True)
    pkts = [_pkt(uid) for uid in range(1, 6)]
    for pkt, hop in zip(pkts, (2, 3, 4, 2, 3)):
        q.enqueue_data(pkt, hop)
    assert [_served(q) for _ in range(3)] == pkts[:3]  # cursor at 4
    q.block(2)
    assert [_served(q) for _ in range(2)] == [pkts[4], None]
    assert list(q.data[2]) == [pkts[3]]


def test_shared_fifo_drops_tail_at_combined_capacity():
    # the traditional baseline: one queue holding capacity x neighbors
    q = _NodeQueues(owner=1, neighbors=(2, 3), capacity_pkts=2, fragmented=False)
    for uid, hop in ((1, 2), (2, 3), (3, 2), (4, 2)):
        assert q.enqueue_data(_pkt(uid), hop) == (True, None)
    assert not q.has_space(3)
    # full: even an older arrival is dropped, nothing is evicted
    assert q.enqueue_data(_pkt(0), 3) == (False, None)
    assert [p.uid for p in iter(lambda: _served(q), None)] == [1, 2, 3, 4]


def test_shared_fifo_never_blocked_by_failing_hop():
    fifo = _NodeQueues(owner=1, neighbors=(2, 3), capacity_pkts=2, fragmented=False)
    split = _NodeQueues(owner=1, neighbors=(2, 3), capacity_pkts=2, fragmented=True)
    for q in (fifo, split):
        q.enqueue_data(_pkt(1), 2)
        q.block(2)  # the hop's attempt budget ran out
    assert not fifo.is_blocked(2) and fifo.has_space(2)
    assert _served(fifo).uid == 1
    assert split.is_blocked(2) and not split.has_space(2)
    assert _served(split) is None


# a data frame reaching an idle node goes straight to service only when the
# node holds no frame and the frame's key is open; otherwise it queues

def test_pass_through_refuses_a_key_blocked_while_its_beacon_is_out():
    q = _NodeQueues(owner=1, neighbors=(2, 3), capacity_pkts=2, fragmented=True)
    q.block(2)  # the hop's attempts ran out
    beacon = _pkt(9, kind="beacon")
    q.enqueue_control(beacon)
    assert _served(q) is beacon  # the self-check beacon is out
    assert q.pass_through(2) is None
    pkt = _pkt(1)
    q.enqueue_data(pkt, 2)
    assert _served(q) is None  # held until the self-check ends
    q.unblock(2)
    assert _served(q) is pkt


def test_pass_through_refuses_while_a_control_frame_waits():
    q = _NodeQueues(owner=1, neighbors=(2,), capacity_pkts=2, fragmented=True)
    beacon = _pkt(9, kind="beacon")
    q.enqueue_control(beacon)
    assert q.pass_through(2) is None
    pkt = _pkt(1)
    q.enqueue_data(pkt, 2)
    assert [_served(q) for _ in range(3)] == [beacon, pkt, None]


def test_pass_through_refuses_while_frames_wait_under_other_blocked_keys():
    q = _NodeQueues(owner=1, neighbors=(2, 3, 4), capacity_pkts=2, fragmented=True)
    held = [_pkt(1), _pkt(2)]
    for pkt, hop in zip(held, (3, 4)):
        q.enqueue_data(pkt, hop)
        q.block(hop)
    assert _served(q) is None
    assert q.pass_through(2) is None
    pkt = _pkt(3)
    q.enqueue_data(pkt, 2)
    assert [_served(q) for _ in range(2)] == [pkt, None]
    assert [list(q.data[hop]) for hop in (3, 4)] == [[held[0]], [held[1]]]


@pytest.mark.parametrize("cursor", [None, 2, 4])
def test_pass_through_restores_a_retargeted_key_as_queueing_does(cursor):
    # neighbor 3 was blocked and then replaced before a frame made its key,
    # so `retarget` only lifted the block; a frame bound for 3 makes the key
    # in order, with the cursor on it, whichever way it goes
    def buffer():
        q = _NodeQueues(owner=1, neighbors=(2, 3, 4), capacity_pkts=2, fragmented=True)
        if cursor is not None:
            q.enqueue_data(_pkt(1), cursor)
            _served(q)
        q.block(3)
        q.retarget(3, 4)
        return q

    passed, queued = buffer(), buffer()
    assert 3 not in passed.data
    assert passed.pass_through(3) == 3
    queued.enqueue_data(_pkt(2), 3)
    assert queued.dispatch_next()[1] == 3
    made = sorted({3} | ({cursor} - {None}))
    for q in (passed, queued):
        assert q.order == made and q.cursor == 3 and q.queued == 0
        q.enqueue_data(_pkt(5), 4)
        assert q.queued == 1
    assert passed.order == queued.order and list(passed.data) == list(queued.data)
    assert passed.occupancy() == queued.occupancy() == 1 / 6  # three neighbors of two


_QUEUE_OPS = st.lists(st.tuples(
    st.sampled_from(["enqueue", "requeue", "dispatch", "block", "unblock",
                     "remove_flow", "retarget", "drain", "control"]),
    st.sampled_from((2, 3, 4)), st.integers(0, 2)), max_size=60)


@pytest.mark.parametrize("fragmented", [True, False])
@settings(max_examples=200, deadline=None, derandomize=True)
@given(ops=_QUEUE_OPS)
def test_queued_counts_every_held_frame(fragmented, ops):
    # `queued` is what lets an empty buffer skip its key walk, so it must
    # track every way a data frame enters or leaves a sub-queue
    q = _NodeQueues(owner=1, neighbors=(2, 3, 4), capacity_pkts=2, fragmented=fragmented)
    uids = itertools.count(1)
    flows = [_flow(path) for path in range(3)]
    for op, hop, path in ops:
        pkt = Packet(kind="data", source=1, destination=9, flow=flows[path], seq=0,
                     uid=next(uids))
        if op == "enqueue":
            q.enqueue_data(pkt, hop)
        elif op == "requeue":
            q.requeue(pkt, hop)
        elif op == "dispatch":
            ready = bool(q.control) or any(queue and key not in q.blocked
                                           for key, queue in q.data.items())
            served, key = q.dispatch_next()
            assert (served is not None) == ready
            assert served is not None or key is None
        elif op == "block":
            q.block(hop)
        elif op == "unblock":
            q.unblock(hop)
        elif op == "remove_flow":
            q.remove_flow(flows[path])
        elif op == "retarget":
            q.retarget(hop, 2 + (hop - 1) % 3)  # 2 -> 3 -> 4 -> 2
        elif op == "drain":
            q.drain()
        else:
            q.enqueue_control(dataclasses.replace(pkt, kind="beacon"))
        assert q.queued == sum(len(queue) for queue in q.data.values())
        assert q.occupancy() == q.queued / 6  # three neighbors of two


# ------------------------------------------------------------- service timing

def test_lone_packet_delay():
    metrics = run_scenario(line_scenario(packets=1, hops=1, link_delay=0.001))
    assert metrics.completion_s == pytest.approx(0.021, rel=1e-12)


def test_back_to_back_packets_share_transmitter():
    metrics = run_scenario(line_scenario(packets=2, hops=1, link_delay=0.001))
    # second completes one transmit slot after the first: 2*(S/b) + l
    assert metrics.completion_s == pytest.approx(0.041, rel=1e-12)


def test_pipelined_line_completion():
    metrics = run_scenario(line_scenario(packets=20, hops=5, window=None))
    assert metrics.completion_s == pytest.approx((5 + 20 - 1) * 0.02, rel=1e-9)


def test_windowed_line_completion():
    metrics = run_scenario(line_scenario(packets=20, hops=5, window=1))
    assert metrics.completion_s == pytest.approx(20 * 5 * 0.02, rel=1e-9)


def test_shared_relay_serializes_flows():
    shared = run_scenario(y_scenario(shared=True))
    disjoint = run_scenario(y_scenario(shared=False))
    # hand-traced: merged flows deliver at 0.06/0.08/0.10/0.12 while the
    # private-relay layout finishes both flows at 0.08
    assert shared.per_source_completion_s[1] == pytest.approx(0.10, rel=1e-9)
    assert shared.per_source_completion_s[2] == pytest.approx(0.12, rel=1e-9)
    assert disjoint.per_source_completion_s[1] == pytest.approx(0.08, rel=1e-9)
    assert disjoint.per_source_completion_s[2] == pytest.approx(0.08, rel=1e-9)
    assert shared.completion_s > disjoint.completion_s


def test_disjoint_paths_independent_of_other_traffic():
    solo = Scenario(
        name="solo", params=small_params(radio_range_m=26.0),
        positions={1: (0.0, 0.0), 3: (20.0, 0.0), 4: (40.0, 2.0), 5: (60.0, 15.0)},
        sink=5, sources=[SourceDecl(1, 2, paths=[[1, 3, 4, 5]])],
        engine=RunConfig(scheme=2, window=None, fault_detection="off"))
    alone = run_scenario(solo)
    both = run_scenario(y_scenario(shared=False))
    assert both.per_source_completion_s[1] == pytest.approx(
        alone.per_source_completion_s[1], rel=1e-12)


# ------------------------------------------------------------ energy accounting

def test_energy_per_packet_mode_single_hop():
    sc = line_scenario(packets=1, hops=1)
    sc.engine = RunConfig(scheme=2, energy_mode="per_packet",
                          tx_power_w=1.024e-3, rx_power_w=8.192e-4)
    metrics = run_scenario(sc)
    assert metrics.energy_breakdown_j["tx_data"] == pytest.approx(1.024e-3 * 0.02)
    assert metrics.energy_breakdown_j["rx_data"] == pytest.approx(8.192e-4 * 0.02)


def test_energy_per_bit_mode_matches_table_scale():
    metrics = run_scenario(line_scenario(packets=1, hops=1))
    assert metrics.energy_breakdown_j["tx_data"] == pytest.approx(2.048e-5, rel=1e-4)
    assert metrics.energy_breakdown_j["rx_data"] == pytest.approx(1.6384e-5, rel=1e-6)


@pytest.mark.parametrize("energy_mode", ["per_bit", "per_packet"])
def test_hop_record_matches_the_per_frame_expressions(energy_mode):
    # the record holds what each frame used to compute, bit for bit; hop
    # (1, 11) has its own speed and delay, hop (11, 2) the shared default
    sc = line_scenario(packets=3, hops=2, energy_mode=energy_mode)
    sc.link_overrides = {(1, 11): (25000.0, 0.003)}
    engine = Engine(sc)
    engine.run()
    config, params, topology = engine.config, engine.params, engine.topology
    assert topology.link(1, 11).speed_bps != topology.link(11, 2).speed_bps
    for sender, receiver in ((1, 11), (11, 2)):
        link = topology.link(sender, receiver)
        hop = engine._hops[(sender, receiver)]
        assert (hop.sender, hop.receiver) == (sender, receiver)
        assert hop.delay_s == link.delay_s
        assert hop.pair == (min(sender, receiver), max(sender, receiver))
        for kind, size_bits in (("data", params.packet_size_bits),
                                ("beacon", config.control_size_bits)):
            occupancy = size_bits / link.speed_bps
            if energy_mode == "per_packet":
                expected = (occupancy, config.tx_power_w * occupancy,
                            config.rx_power_w * occupancy)
            else:
                tx_per_bit = transmit_energy_per_bit(params, topology.distance(sender, receiver))
                expected = (occupancy, tx_per_bit * size_bits,
                            receive_energy_per_bit(params) * size_bits)
            assert getattr(hop, kind) == expected


def test_zero_traffic_costs_nothing_but_sensing():
    metrics = run_scenario(line_scenario(packets=0, hops=2))
    assert metrics.completion_s == 0.0
    comm = sum(v for k, v in metrics.energy_breakdown_j.items() if k != "sensing")
    assert comm == 0.0


def test_energy_ledger_balances():
    metrics = run_scenario(line_scenario(packets=30, hops=4, window=None))
    spent_by_residual = sum(metrics.initial_j.values()) - sum(metrics.residual_j.values())
    assert metrics.energy_spent_j == pytest.approx(
        spent_by_residual, abs=1e-12 * sum(metrics.initial_j.values()))


def test_idle_accounting_when_enabled():
    sc = line_scenario(packets=2, hops=2)
    sc.engine = RunConfig(scheme=2, include_idle=True, idle_power_w=4.096e-4)
    metrics = run_scenario(sc)
    assert metrics.energy_breakdown_j["idle"] > 0.0


def test_battery_exhaustion_kills_node():
    sc = line_scenario(packets=10, hops=2, window=None)
    sc.params = small_params(initial_energy_j=3.0e-5)  # a couple of sends
    sc.engine = RunConfig(scheme=2, fault_detection="off")
    metrics = run_scenario(sc)
    assert metrics.total_delivered < 10
    assert metrics.total_delivered + metrics.total_dropped == metrics.total_injected


@pytest.mark.parametrize("fragmented", [True, False], ids=["fragmented", "shared-fifo"])
def test_frame_that_exhausts_its_receiver_is_lost(fragmented):
    # at 3 mJ per node, some relay dies on the receive debit of a frame;
    # that frame used to wait in the dead node's buffer until the run stalled
    sc = configured(shipped("three-source-mesh"), fragmented=fragmented)
    sc.params = dataclasses.replace(sc.params, initial_energy_j=0.003)
    metrics = run_scenario(sc)
    assert metrics.dropped_fault > 0
    assert metrics.total_delivered + metrics.total_dropped == metrics.total_injected


# ------------------------------------------------------------------ drops

def test_overflow_drops_under_pressure():
    sc = line_scenario(packets=40, hops=4, window=None,
                       queue_packets_per_subqueue=1)
    sc.link_overrides = {}
    metrics = run_scenario(sc)
    assert metrics.total_injected == 40
    assert metrics.total_delivered + metrics.total_dropped == 40


def test_conservation_and_ledger_randomized():
    for seed in range(25):
        metrics = run_scenario(random_scenario(seed))
        assert metrics.total_delivered + metrics.total_dropped == metrics.total_injected, seed
        spent = sum(metrics.initial_j.values()) - sum(metrics.residual_j.values())
        assert metrics.energy_spent_j == pytest.approx(
            spent, abs=1e-12 * sum(metrics.initial_j.values())), seed


# ------------------------------------------------------------- queue isolation

def _star_scenario(flood_packets, fragmented=True, fast_first=True):
    """Four flows crossing one relay toward four different next hops."""
    positions = {
        1: (0.0, 20.0), 2: (0.0, 40.0), 3: (0.0, 60.0), 4: (0.0, 80.0),
        5: (20.0, 50.0),                                    # shared relay
        11: (40.0, 20.0), 12: (40.0, 40.0), 13: (40.0, 60.0), 14: (40.0, 80.0),
        9: (60.0, 50.0),                                    # sink
    }
    sources = [SourceDecl(1, flood_packets, paths=[[1, 5, 11, 9]]),
               SourceDecl(2, 3, paths=[[2, 5, 12, 9]]),
               SourceDecl(3, 3, paths=[[3, 5, 13, 9]]),
               SourceDecl(4, 3, paths=[[4, 5, 14, 9]])]
    overrides = {(1, 5): (500000.0, 0.0)} if fast_first else {}
    return Scenario(
        name="star", params=small_params(radio_range_m=45.0),
        positions=positions, sink=9, sources=sources,
        link_overrides=overrides,
        engine=RunConfig(scheme=2, window=None, fragmented=fragmented,
                         queue_packets_per_subqueue=6,
                         fault_detection="off"))


def test_queue_isolation_depth_independent():
    # source 1 floods its sub-queue at the relay over a 10x faster ingress
    # link; however deep that backlog is, sibling flows see identical timing
    light_sources = lambda m: {k: v for k, v in m.per_source_completion_s.items()
                               if k != 1}
    shallow = run_scenario(_star_scenario(flood_packets=6))
    deep = run_scenario(_star_scenario(flood_packets=18))
    assert light_sources(shallow) == light_sources(deep)


def test_queue_isolation_vs_single_fifo():
    fragmented = run_scenario(_star_scenario(flood_packets=18))
    fifo = run_scenario(_star_scenario(flood_packets=18, fragmented=False))
    for src in (2, 3, 4):
        assert (fragmented.per_source_completion_s[src]
                < fifo.per_source_completion_s[src])


def test_saturated_queue_keeps_siblings_within_rr_share():
    metrics = run_scenario(_star_scenario(flood_packets=18))
    # each sibling packet waits at most one service slot per active queue
    # (4 queues x 0.02 s) at the relay, regardless of the flooded backlog
    for src in (2, 3, 4):
        stats = metrics.per_path[(src, 0)]
        assert stats["mean_wait_s"] <= 4 * 0.02 + 1e-9


# ------------------------------------------------------------- fault protocol

def test_no_faults_no_protocol():
    metrics = run_scenario(line_scenario(packets=10, hops=3, window=1))
    assert metrics.retransmissions == 0
    assert metrics.detections == []
    assert metrics.replacements == []


def test_receiver_failure_beacon_detection():
    metrics = run_scenario(fault_beacon_scenario())
    assert metrics.replacements == [(3, 6)]
    assert metrics.retransmissions == 10
    assert metrics.total_delivered == 5
    assert metrics.total_dropped == 0
    kinds = {d["kind"] for d in metrics.detections}
    assert "sender_beacon" in kinds


def test_sender_failure_receiver_timer_detection():
    metrics = run_scenario(fault_timer_scenario())
    assert metrics.replacements == [(2, 7)]
    assert metrics.total_delivered == 5
    assert metrics.total_dropped == 0
    timer = [d for d in metrics.detections if d["kind"] == "receiver_timer"]
    assert timer, metrics.detections
    tau = (1000 / 5000 + 1000 / 50000 + 1000 / 50000) / 3  # slowed first hop
    assert timer[0]["latency_s"] <= 10 * tau + 1e-9


@pytest.mark.parametrize("fragmented", [True, False], ids=["fragmented", "shared-fifo"])
def test_undetected_link_fault_strands_and_conserves(fragmented):
    # the relay's downstream link dies and nothing detects it. With no
    # self-check beacon to wait for, neither discipline blocks the hop:
    # each frame is dropped at the hop's retry limit, and the source's
    # window refills until its backlog is spent. No packet is left behind.
    sc = line_scenario(packets=5, hops=2, window=1)
    sc.faults = [FaultDecl(0.05, link=(11, 2))]
    sc.engine = RunConfig(scheme=2, window=1, max_attempts=3, fault_detection="off",
                          fragmented=fragmented, max_events=10_000)
    engine = Engine(sc)
    metrics = engine.run()
    assert metrics.total_delivered == 1
    assert metrics.dropped_fault == 4
    assert all(f.backlog == f.outstanding == 0 for f in engine.flows.values())


def test_lossy_live_hop_is_a_false_alarm(mesh_sim):
    # random losses make a relay block its live hop to the sink; its beacon
    # arrives, but no fault is on record, so the relay lifts the block and
    # tries again instead of abandoning every flow through the sink
    sc = configured(mesh_sim, packets=100, window=None, max_attempts=3,
                    loss_prob=0.2, fault_detection="on")
    metrics = run_scenario(sc)
    assert metrics.retransmissions > 0
    assert not [d for d in metrics.detections if d["failed"] == mesh_sim.sink]
    assert metrics.abandoned == []
    assert (metrics.total_delivered + metrics.total_dropped
            == metrics.total_injected == 300)


@pytest.mark.parametrize("window", [None, 1])
def test_lossy_live_hop_without_detection_is_not_blocked(mesh_sim, window):
    # no fault is declared, so detection is off and no beacon goes out; a
    # hop that used up its attempts drops the frame instead of blocking
    # for good and stranding its backlog
    sc = configured(mesh_sim, packets=100, window=window, max_attempts=3,
                    loss_prob=0.2)
    engine = Engine(sc)
    metrics = engine.run()
    assert metrics.total_delivered >= 270
    assert metrics.total_delivered + metrics.total_dropped == 300
    assert not any(q.blocked for q in engine.queues.values())


@pytest.mark.parametrize("fragmented", [True, False], ids=["fragmented", "shared-fifo"])
def test_dead_source_loses_its_backlog_as_fault_drops(mesh, fragmented):
    # source 1 dies at 0.5 s with most of its quota not yet injected: that
    # backlog dies with it as fault drops, so when the watchdog detects the
    # failure, only the flows of sources 3 and 10 through node 1 remain to
    # abandon
    sc = configured(mesh, fragmented=fragmented)
    sc.faults = [FaultDecl(0.5, node=1)]
    engine = Engine(sc)
    metrics = engine.run()
    assert metrics.total_delivered + metrics.total_dropped == metrics.total_injected
    assert (metrics.total_delivered, metrics.dropped_fault) == (174, 126)
    assert [source for source, _idx, _lost in metrics.abandoned] == [3, 10]
    own = [f for f in engine.flows.values() if f.key[0] == 1]
    assert all(f.backlog == f.outstanding == 0 for f in own)
    assert sum(f.dropped for f in own) == 100 - sum(f.delivered for f in own) > 0


def test_no_redundant_node_abandons_path():
    # in the shared FIFO, node 2 keeps sending to the dead node 3 while its
    # beacon is out, so a packet is in flight when the flow is abandoned:
    # its failed attempt must drop it, because blocking never stops a FIFO
    # and a requeued packet would be retried forever
    for fragmented in (True, False):
        sc = fault_beacon_scenario()
        sc.redundant = ()
        sc.engine.fragmented = fragmented
        sc.engine.max_events = 10_000
        metrics = run_scenario(sc)
        assert metrics.replacements == []
        assert metrics.abandoned and metrics.abandoned[0][0] == 1
        assert (metrics.total_delivered + metrics.total_dropped
                == metrics.total_injected == 5)
        assert metrics.dropped_fault > 0


def test_replacement_prefers_nearest_spare():
    sc = fault_beacon_scenario()
    sc.positions[8] = (41.0, 2.0)   # second spare, slightly farther from node 2
    sc.redundant = (6, 8)
    metrics = run_scenario(sc)
    assert metrics.replacements == [(3, 6)]


@pytest.mark.parametrize("fragmented", [True, False])
def test_spare_already_on_the_route_does_not_replace(fragmented):
    # spare 4 is adjacent to both route neighbours of the failed node 2,
    # but it is already on the route: [1, 4, 3, 4, 5] would cross it twice,
    # so the flow is abandoned as when no spare fits
    sc = Scenario(
        name="spare-on-route",
        params=small_params(),
        positions={1: (0.0, 0.0), 2: (0.0, 20.0), 3: (20.0, 20.0), 4: (20.0, 0.0),
                   5: (40.0, 0.0)},
        sink=5,
        sources=[SourceDecl(1, 20, paths=[[1, 2, 3, 4, 5]])],
        redundant=(4,),
        faults=[FaultDecl(0.1, node=2)],
        engine=RunConfig(scheme=2, window=1, fragmented=fragmented),
    )
    engine = Engine(sc)
    metrics = engine.run()
    assert [d["failed"] for d in metrics.detections] == [2]
    assert metrics.replacements == []
    assert [(src, idx) for src, idx, _lost in metrics.abandoned] == [(1, 0)]
    assert engine.flows[(1, 0)].route == [1, 2, 3, 4, 5]
    assert metrics.total_delivered + metrics.total_dropped == metrics.total_injected == 20


def test_degree_one_sender_defers_to_watchdog_then_abandons():
    # the source's only neighbor dies and no spare exists: the sender has
    # no third node to beacon, so the downstream watchdog concludes the
    # fault and the path is abandoned with its remaining quota
    sc = fault_timer_scenario()
    sc.positions.pop(7)
    sc.link_overrides.pop((1, 7))  # an override must name a link
    sc.redundant = ()
    metrics = run_scenario(sc)
    assert metrics.replacements == []
    assert [d["kind"] for d in metrics.detections] == ["receiver_timer"]
    assert metrics.abandoned and metrics.abandoned[0][2] > 0
    assert metrics.total_delivered + metrics.total_dropped == metrics.total_injected


def _conserves_and_balances(metrics):
    assert metrics.total_delivered + metrics.total_dropped == metrics.total_injected
    spent = sum(metrics.initial_j.values()) - sum(metrics.residual_j.values())
    assert metrics.energy_spent_j == pytest.approx(
        spent, abs=1e-12 * sum(metrics.initial_j.values()))


def test_frame_landing_on_a_dead_receiver_is_a_fault_drop():
    # the first frame leaves the source at 0.02 s and lands at 0.07 s on
    # node 11, dead since 0.05 s; the source has no third neighbor to
    # beacon, so every later frame is dropped at the hop's retry limit
    sc = line_scenario(packets=5, hops=3, window=1, link_delay=0.05)
    sc.faults = [FaultDecl(0.05, node=11)]
    sc.engine.record_trace = True
    metrics = run_scenario(sc)
    assert "0.070000000,arrival,11,1" in metrics.trace
    assert (metrics.total_delivered, metrics.dropped_fault) == (0, 5)
    _conserves_and_balances(metrics)


@pytest.mark.parametrize("fragmented", [True, False], ids=["fragmented", "shared-fifo"])
def test_beacon_lost_mid_send(fragmented, monkeypatch):
    # node 2 dies at 0.3405 s while it sends its self-check beacon about
    # the dead node 3: the beacon is lost, no detection follows, and the
    # packets not yet past node 2 are fault drops
    lost = []
    lose = Engine._lose
    monkeypatch.setattr(Engine, "_lose",
                        lambda self, pkt: (lost.append(pkt.kind), lose(self, pkt)))
    sc = fault_beacon_scenario(packets=5)
    sc.faults.append(FaultDecl(0.3405, node=2))
    sc.engine.fragmented = fragmented
    metrics = run_scenario(sc)
    assert "beacon" in lost
    assert metrics.detections == [] and metrics.replacements == []
    assert (metrics.total_delivered, metrics.total_dropped) == (2, 3)
    _conserves_and_balances(metrics)


class _BeaconDrainEngine(Engine):
    """An engine whose first self-check beacon finds its receiver with half
    the beacon's receive cost left. What it takes from the receiver is
    booked as received control energy, so that the ledger still balances.
    `drained` records (time, receiver, origin, suspect), and whether the
    origin's hop to the suspect was blocked and its attempt count, before
    and after the beacon landed."""

    drained = None

    def _on_beacon_arrived(self, node, pkt, cost):
        if self.drained is not None:
            super()._on_beacon_arrived(node, pkt, cost)
            return
        origin, (suspect, _tried) = pkt.source, pkt.flow
        hop, queues = self._hops[(origin, suspect)], self._nodes[origin].queues
        before = (suspect in queues.blocked, hop.failed)
        taken = node.residual_j - cost[2] / 2
        node.residual_j -= taken
        self._spent_j += taken
        self._rx_control_j += taken
        super()._on_beacon_arrived(node, pkt, cost)
        self.drained = ((self._now, node.id, origin, suspect), before,
                        (suspect in queues.blocked, hop.failed))


@pytest.mark.parametrize("fragmented", [True, False], ids=["fragmented", "shared-fifo"])
def test_beacon_receive_debit_that_kills_its_receiver(fragmented):
    # node 3 dies at 0.125 s, and at 0.341 s node 2's self-check beacon
    # about it lands on the source, node 1, whose receive debit kills it:
    # node 1 dies then, the lost beacon detects nothing, node 2 lifts its
    # block on 3 and counts its attempts anew, and the run ends cleanly
    sc = fault_beacon_scenario()
    sc.engine.fragmented = fragmented
    sc.params = dataclasses.replace(sc.params, initial_energy_j=0.01)
    engine = _BeaconDrainEngine(sc)
    metrics = engine.run()
    (time_s, receiver, origin, suspect), before, after = engine.drained
    assert (receiver, origin, suspect) == (1, 2, 3)
    assert engine._nodes[1].fault_s == time_s == pytest.approx(0.34128)
    assert before == (True, sc.engine.max_attempts) and after == (False, 0)
    assert all(d["time_s"] > time_s for d in metrics.detections)
    _conserves_and_balances(metrics)


@pytest.mark.parametrize("seed, window, outcome", [(57, None, (91, 84)), (64, 1, (91, 65))])
def test_sender_killed_by_its_own_beacon_loses_the_failed_frame(seed, window, outcome):
    # a data frame at its hop's retry limit sends a self-check beacon whose
    # transmit debit kills the sender and drains its buffer; the frame
    # used to go back into that dead buffer, and the run stalled
    sc = configured(crossing_scenario(seed), window=window, fragmented=True,
                    fault_detection="on")
    sc.params = dataclasses.replace(sc.params, initial_energy_j=0.0015)
    metrics = run_scenario(sc)
    assert (metrics.total_delivered, metrics.total_dropped) == outcome
    assert metrics.dropped_fault > 0
    _conserves_and_balances(metrics)


def test_second_fault_of_a_dead_node_is_ignored():
    once, twice = fault_beacon_scenario(), fault_beacon_scenario()
    twice.faults.append(FaultDecl(0.2, node=3))
    for sc in (once, twice):
        sc.engine.record_trace = True
    a, b = run_scenario(once), run_scenario(twice)
    assert b.event_count == a.event_count + 1
    assert b.trace == a.trace
    assert (b.detections, b.replacements, b.energy_spent_j, b.completion_s) == (
        a.detections, a.replacements, a.energy_spent_j, a.completion_s)


@pytest.mark.parametrize("spare", [True, False], ids=["replaced", "abandoned"])
def test_probes_skip_failed_routes_and_abandoned_flows(spare):
    # node 3 fails at 0.125 s and is found at 0.341 s. The probe at 0.2 s
    # meets it on the route and records nothing; the one at 1.0 s samples
    # the replaced route, or skips the flow abandoned without a spare
    sc = fault_beacon_scenario(packets=20)
    if not spare:
        sc.redundant = ()
    sc.engine.probe_times = [0.1, 0.2, 1.0]
    metrics = run_scenario(sc)
    assert [d["time_s"] for d in metrics.detections] == [pytest.approx(0.34128)]
    assert (bool(metrics.replacements), bool(metrics.abandoned)) == (spare, not spare)
    assert metrics.contention_history == {(1, 0): [0, 0] if spare else [0]}
    _conserves_and_balances(metrics)


def test_mid_run_probes_record_contention():
    sc = line_scenario(packets=30, hops=3, window=None)
    assert run_scenario(sc).contention_history == {}  # no probe scheduled
    sc.engine.probe_times = [0.1]
    history = run_scenario(sc).contention_history[(1, 0)]
    assert len(history) == 1  # the scheduled probe; the idle start is not sampled


def test_probe_follows_the_replaced_route():
    # spare 6 replaces the dead node 3 at 0.341 s; the probes after it
    # sample the flow's current route, not the build-time one through 3
    sc = fault_beacon_scenario(packets=20)
    sc.engine.probe_times = [0.5, 1.0]
    metrics = run_scenario(sc)
    assert metrics.replacements == [(3, 6)]
    assert metrics.contention_history == {(1, 0): [0, 0]}


# digests of the traced late-spare runs (trace, report rows, probe counts)
LATE_SPARE_DIGESTS = {
    True: "8e4bb22a6e03c9a8646a3910dd246573dc7e62b5b0212c37ca367f86d4948c56",
    False: "d8de23ddb43b753c4ff1e2ffaec90d43121cfb00d7d453914329a6814ba98d88",
}


@pytest.mark.parametrize("fragmented", [True, False], ids=["fragmented", "shared-fifo"])
def test_late_spare_fills_queue_size_times_degree(fragmented, monkeypatch):
    # spare 6 holds its first frame only after it replaced node 5. Its four
    # neighbors give it 20 frames of buffer in either discipline, whatever
    # the replacement took: the fragmented spare holds at most 10 at its
    # probes, which is not above the choke threshold, so no probe counts it
    read = []
    on_probe = Engine._on_probe
    monkeypatch.setattr(Engine, "_on_probe", lambda self, *a: (
        read.append(self.queues[6].occupancy()), on_probe(self, *a)))
    metrics = run_scenario(late_spare_scenario(fragmented))
    assert read == ([0.35, 0.45, 0.5, 0.5, 0.35] if fragmented else [1.0] * 5)
    if fragmented:
        assert metrics.contention_history == {(1, 0): [0] * 5, (2, 0): [0] * 5}
    assert metrics.replacements == [(5, 6)]
    replaced_at = metrics.trace.index("0.481280000,replace,6,0")
    first_service = next(i for i, line in enumerate(metrics.trace)
                         if line.split(",")[1:3] == ["service", "6"])
    assert first_service > replaced_at
    text = "\n".join([*metrics.trace, render_rows(metrics_rows(metrics), "csv"),
                      repr(metrics.contention_history)])
    assert hashlib.sha256(text.encode()).hexdigest() == LATE_SPARE_DIGESTS[fragmented]


def test_buffers_exist_only_where_frames_waited():
    # a node's buffer is built when a frame is first queued there, and
    # every frame queued is served unless it is lost first
    engine = Engine(uniform_fault_scenario(1000, 540.0, 30.0, seed=10, packets=100))
    metrics = engine.run()
    served = {int(line.split(",")[2]) for line in metrics.trace
              if line.split(",")[1] == "service"}
    assert set(engine.queues) == served
    assert len(engine.queues) < len(engine.topology.nodes) // 10


def test_node_records_exist_only_where_a_hop_a_buffer_or_a_fault_names_the_node():
    engine = Engine(uniform_fault_scenario(1000, 540.0, 30.0, seed=10, packets=100))
    engine.run()
    named = ({n for pair in engine._hops for n in pair} | set(engine.queues)
             | {fault.node for fault in engine.scenario.faults})
    assert set(engine._nodes) == named
    assert all(node.id == nid for nid, node in engine._nodes.items())
    assert len(engine._nodes) < len(engine.topology.nodes) // 5


@pytest.mark.parametrize("fragmented", [True, False], ids=["fragmented", "shared-fifo"])
def test_hop_records_hold_their_sender_and_receiver_records(fragmented, monkeypatch):
    # node 6 fails, a beacon from 2 finds it and spare 17 takes its place
    beacons, serve_beacon = [], Engine._serve_beacon

    def recorded(self, node, pkt):
        beacons.append((node.id, pkt.destination))
        serve_beacon(self, node, pkt)

    monkeypatch.setattr(Engine, "_serve_beacon", recorded)
    engine = Engine(crossing_fault_scenario(3, fragmented, spare=True))
    metrics = engine.run()
    assert metrics.replacements == [(6, 17)]
    assert [d["kind"] for d in metrics.detections] == ["sender_beacon"]
    assert beacons and all(pair in engine._hops for pair in beacons)
    assert any(17 in pair for flow in engine.flows.values()
               for pair in ((hop.sender, hop.receiver) for hop in flow.hops.values()))
    for (sender, receiver), hop in engine._hops.items():
        assert hop.tx is engine._nodes[sender] and hop.rx is engine._nodes[receiver]
    for flow in engine.flows.values():
        for hop in flow.hops.values():
            assert hop is engine._hops[(hop.sender, hop.receiver)]


@pytest.mark.parametrize("include_idle", [False, True], ids=["no-idle", "idle"])
def test_untouched_nodes_pay_sensing_and_idle_alone(include_idle):
    # a node that no route and no beacon touches spends only what it senses
    # (and idles) while it lives: one that dies off every route, and one
    # that lives to the end of the run
    base = crossing_scenario(0)
    _topology, specs = build_scenario(base)
    on_routes = {n for spec in specs for path in spec.paths for n in path.nodes}
    dead, live = sorted(set(base.positions) - on_routes)[::-1][:2]
    fault_s = 0.05
    scenario = dataclasses.replace(base, faults=[FaultDecl(fault_s, node=dead)],
                                   engine=dataclasses.replace(
                                       base.engine, include_idle=include_idle,
                                       idle_power_w=2.5e-4, record_trace=True))
    metrics = run_scenario(scenario)  # the run checks its energy ledger
    traced = [line.split(",") for line in metrics.trace]
    assert [kind for _t, kind, node, _uid in traced if int(node) in (dead, live)] == ["fault"]
    assert not metrics.detections and fault_s < metrics.final_time_s
    params, config = scenario.params, scenario.engine
    expected_dead = params.initial_energy_j - params.sensing_w * fault_s
    expected_live = params.initial_energy_j - params.sensing_w * metrics.final_time_s
    if include_idle:
        expected_dead -= config.idle_power_w * fault_s
        expected_live -= config.idle_power_w * metrics.final_time_s
    assert metrics.residual_j[dead] == expected_dead
    assert metrics.residual_j[live] == expected_live


@pytest.mark.parametrize("replicate", [False, True], ids=["fragmented", "replicated"])
def test_finished_engine_memory_does_not_grow_with_packets(replicate):
    # what a finished engine keeps is sized by nodes, flows and frames in
    # flight: five times the packets per source (18,098 against 3,659
    # delivered fragmented, 30,703 against 6,703 copies replicated) adds
    # less than 256 KiB, where a record per delivered packet adds MBs
    def held(packets):
        """Bytes still allocated, after a collection, by an engine that
        ran to quiescence and is still referenced."""
        scenario = configured(shipped("three-source-mesh-sim"), packets=packets,
                              window=None, replicate=replicate, fragmented=not replicate)
        gc.collect()
        tracemalloc.start()
        try:
            engine = Engine(scenario)
            engine.run()
            gc.collect()
            return tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    assert held(10_000) - held(2_000) < 256 * 1024


# ---------------------------------------------------------- watchdog deadlines

def _timer_calls(monkeypatch) -> list[int]:
    """The nodes whose watchdog deadline pops, in order, from now on."""
    calls = []
    on_timer = Engine._on_timer

    def counting(self, node_id, *args):
        calls.append(node_id)
        return on_timer(self, node_id, *args)

    monkeypatch.setattr(Engine, "_on_timer", counting)
    return calls


# the frameworks suite's configs, each traced, with no fault and no loss
FAULT_FREE_CONFIGS = {
    "traditional": {"replicate": True, "fragmented": False},
    "equal": {"replicate": False, "fragmented": True, "scheme": 2},
    "strategic": {"replicate": False, "fragmented": True, "scheme": 3},
}


@pytest.mark.parametrize("window", [1, None], ids=["window-1", "pipelined"])
def test_fault_free_detection_run_pops_no_deadline(monkeypatch, window):
    # no node fails, so no deadline enters the heap, and a run with
    # detection on reports exactly what the same run with it off reports:
    # its events, its final time and the sensing drawn until then
    calls = _timer_calls(monkeypatch)
    for name in ("five-path-fan", "three-source-mesh", "three-source-mesh-sim"):
        for variant, config in FAULT_FREE_CONFIGS.items():
            on, off = (run_scenario(configured(
                shipped(name), packets=100, window=window, loss_prob=0.0,
                fault_detection=detection, record_trace=True, **config))
                for detection in ("on", "off"))
            assert calls == [], (name, variant)
            on.scenario_hash = off.scenario_hash
            assert fingerprint(on) == fingerprint(off), (name, variant)


def test_relay_failure_pops_the_detecting_deadline(monkeypatch):
    # of the watchdog deadlines of the run, only the one that finds the
    # failed relay 2 silent enters the heap: node 3's, armed before the
    # failure and released by it. The deadlines held unreleased are not
    # events, and the run ends at its last delivery
    calls = _timer_calls(monkeypatch)
    metrics = run_scenario(fault_timer_scenario())
    assert calls == [3]
    [found] = metrics.detections
    assert (found["kind"], found["detector"], found["failed"]) == ("receiver_timer", 3, 2)
    assert metrics.event_count == 38
    assert metrics.final_time_s == metrics.completion_s == pytest.approx(2.40)


# the fingerprint of the run below when the engine pushed a deadline armed
# from any dead sender, with its two no-op pops counted in `event_count`
REPLACED_SENDER_FINGERPRINT = (
    "2e38a1a59f610f1f53919473f2a711537048c9dd7c9326fa92de21ee6b927eb0")


def test_deadline_armed_from_a_replaced_sender_is_held():
    # on `crossing_scenario(6)` with 0.08 s links, node 4 fails halfway
    # and spare 37 beside it replaces it while frames that 4 sent still
    # fly. Their arrivals arm deadlines against the dead 4, which is no
    # longer upstream; the flow holds them, for the death of the
    # substitute to release, and the two that popped as no-ops are gone
    base = configured(dataclasses.replace(crossing_scenario(6), link_delay_s=0.08),
                      fragmented=True, window=None, max_attempts=3,
                      fault_detection="on", record_trace=True)
    half_s = run_scenario(base).completion_s / 2.0
    metrics = run_scenario(with_fault(base, FaultDecl(half_s, node=4), spare_beside=4))
    assert metrics.replacements == [(4, 37)]
    assert metrics.event_count == 1040
    assert fingerprint(dataclasses.replace(metrics, event_count=1042)) == (
        REPLACED_SENDER_FINGERPRINT)


def test_release_inside_a_timer_handler_pushes_only_deadlines_after_it():
    # a node that dies while a timer's handler acts releases a deadline
    # due at that very time only if the deadline sorts after that timer,
    # by (node, counter); a death in any other handler comes before every
    # timer at its time, and a deadline already past was a no-op
    engine = Engine(fault_timer_scenario())
    flow = engine.flows[(1, 0)]
    due = engine._timer_entry(flow, 3, (0, 0.0, 0))[0]
    engine._now = due

    def pushed(node, counter, armed_s=0.0):
        before = len(engine._events)
        engine._release(flow, node, (0, armed_s, counter))
        return len(engine._events) > before

    engine._acting = (due, 3, 3, 10)
    assert [pushed(2, 50), pushed(3, 9), pushed(3, 11), pushed(4, 1)] == [
        False, False, True, True]
    engine._acting = None
    assert pushed(2, 50) and not pushed(2, 50, armed_s=-1e-3)


def test_event_cap_bounds_the_pops(tmp_path, capsys):
    # the cap bounds the events the run pops, the count `events` reports
    from wsn_multipath.cli import main
    from wsn_multipath.scenario import save_scenario

    sc = fault_timer_scenario()
    assert run_scenario(sc).event_count == 38
    # a pipelined shared FIFO: every buffer has one key, which the
    # round-robin dispatch serves on every pop
    fifo = configured(shipped("three-source-mesh-sim"), packets=100, window=None,
                      fragmented=False)
    engine = Engine(fifo)
    count = engine.run().event_count
    assert engine.queues and all(len(q.order) == 1 for q in engine.queues.values())
    for name, scenario, events in (("timer", sc, 38), ("fifo", fifo, count)):
        for cap, code in ((events, 0), (events - 1, 3)):
            scenario.engine.max_events = cap
            path = tmp_path / f"{name}-{cap}.yaml"
            save_scenario(scenario, str(path))
            out = str(tmp_path / f"{name}-{cap}")
            assert main(["run", "--scenario", str(path), "--out", out]) == code
        assert f"exceeded {events - 1} events" in capsys.readouterr().err


def _line_link_fault():
    sc = line_scenario(packets=5, hops=2, window=1)
    sc.faults = [FaultDecl(0.05, link=(11, 2))]
    sc.engine = RunConfig(scheme=2, window=1, max_attempts=3,
                          fault_detection="on")
    return sc


def test_link_fault_triggers_retries():
    metrics = run_scenario(_line_link_fault())
    assert metrics.retransmissions >= 3
    assert metrics.total_delivered + metrics.total_dropped == metrics.total_injected
    # the sender's beacon finds the link down since 0.05 s
    [found] = metrics.detections
    assert found["kind"] == "sender_beacon" and found["time_s"] == pytest.approx(0.12128)
    assert found["latency_s"] == found["since_fault_s"] == pytest.approx(0.07128)


def test_link_fault_on_an_overridden_link_is_detected():
    # the failed hop has its own link record, not the shared default one
    sc = _line_link_fault()
    sc.link_overrides = {(2, 11): (25000.0, 0.001)}
    engine = Engine(sc)
    assert engine.topology.link(11, 2) is not engine.topology.link(1, 11)
    metrics = engine.run()
    assert metrics.retransmissions >= 3
    assert metrics.total_delivered + metrics.total_dropped == metrics.total_injected
    [found] = metrics.detections
    assert found["kind"] == "sender_beacon" and found["since_fault_s"] > 0


@pytest.mark.parametrize("make", [fault_beacon_scenario, _line_link_fault],
                         ids=["node-failure-replacement", "link-fault"])
def test_faulted_run_leaves_the_build_untouched(make):
    # run state (energy, liveness, spares, down links, rewritten routes)
    # lives in the engine: the topology and path sets equal a fresh build
    engine = Engine(make())
    assert engine.run().detections
    topology, specs = build_scenario(make())
    assert engine.topology.links == topology.links
    assert engine.topology.nodes == topology.nodes
    assert [s.paths for s in engine.specs] == [s.paths for s in specs]


# ------------------------------------------------------------- determinism

def test_golden_trace_two_packets_one_hop():
    sc = line_scenario(packets=2, hops=1, link_delay=0.001)
    sc.engine.record_trace = True
    metrics = run_scenario(sc)
    assert metrics.trace == [
        "0.000000000,inject,1,1",
        "0.000000000,inject,1,2",
        "0.000000000,service,1,1",
        "0.020000000,service,1,2",
        "0.021000000,arrival,2,1",
        "0.021000000,deliver,2,1",
        "0.041000000,arrival,2,2",
        "0.041000000,deliver,2,2",
    ]


def test_identical_runs_reproduce_metrics():
    # a rerun of the same scenario object and a run of one rebuilt from
    # scratch both reproduce the first run bit for bit
    sc = random_scenario(7)
    sc.engine.record_trace = True
    a = run_scenario(sc)
    fresh = random_scenario(7)
    fresh.engine.record_trace = True
    for other in (run_scenario(sc), run_scenario(fresh)):
        assert other.trace == a.trace
        assert other.completion_s == a.completion_s
        assert other.energy_spent_j == a.energy_spent_j
        assert other.residual_j == a.residual_j
    assert a.trace


def _pass_through_cases():
    """(id, scenario factory) pairs: both disciplines at `window` 1 and
    null, seeded crossing grids, some with one-frame sub-queues, random
    losses under detection, a node fault with a spare and link faults."""
    for fragmented in (True, False):
        kind = "fragmented" if fragmented else "fifo"
        for window in (1, None):
            yield (f"mesh-{kind}-window-{window}",
                   lambda f=fragmented, w=window: configured(
                       shipped("three-source-mesh-sim"), packets=300, window=w,
                       fragmented=f))
        yield (f"lossy-{kind}",
               lambda f=fragmented: configured(
                   shipped("three-source-mesh-sim"), packets=100, window=None,
                   fragmented=f, max_attempts=3, loss_prob=0.2, fault_detection="on"))
        yield (f"node-fault-spare-{kind}",
               lambda f=fragmented: crossing_fault_scenario(3, f, spare=True))
        yield f"late-spare-{kind}", lambda f=fragmented: late_spare_scenario(f)
        # the sink's link from 2 fails and the spare beside the sink takes
        # its place in the routes, while 2 still serves frames for the sink
        yield (f"link-fault-spare-{kind}",
               lambda f=fragmented: with_fault(
                   configured(crossing_scenario(1), fragmented=f, window=1,
                              max_attempts=3, fault_detection="on"),
                   FaultDecl(0.05 if f else 1.3, link=(2, 3)), spare_beside=3))
    yield "line-link-fault", _line_link_fault
    for seed in range(6):
        yield f"crossing-{seed}", lambda seed=seed: crossing_scenario(seed)
    # one-frame sub-queues under a window of 2: sources park on every
    # fill and refill with one lone frame on every delivery
    for seed in range(2):
        yield (f"crossing-{seed}-window-2-queue-1",
               lambda seed=seed: configured(crossing_scenario(seed), window=2,
                                            queue_packets_per_subqueue=1))


_PASS_THROUGH_CASES = dict(_pass_through_cases())


@pytest.mark.parametrize("case", list(_PASS_THROUGH_CASES))
def test_pass_through_leaves_what_enqueue_then_dispatch_leaves(case, monkeypatch):
    # with the pass-through refused, every arriving frame and every lone
    # injected frame is queued and dispatched; the run must not differ in
    # any metric or trace record
    scenario = configured(_PASS_THROUGH_CASES[case](), record_trace=True)
    pass_through, taken = _NodeQueues.pass_through, collections.Counter()

    def counted(self, hop):
        key = pass_through(self, hop)
        if key is not None:
            taken[sys._getframe(1).f_code.co_name] += 1  # the calling site
        return key

    monkeypatch.setattr(_NodeQueues, "pass_through", counted)
    default = run_scenario(scenario)
    monkeypatch.setattr(_NodeQueues, "pass_through", lambda self, hop: None)
    queued = run_scenario(scenario)
    assert taken
    if scenario.engine.window == 1:  # a delivery frees the one slot of a window
        assert taken["_fill_source"]
    for name in (f.name for f in dataclasses.fields(RunMetrics)):
        assert getattr(default, name) == getattr(queued, name), name


def test_mean_queue_wait_counts_a_passed_through_frame_as_zero(mesh_sim):
    # docs/csv_schema.md: a frame passed straight through waits exactly
    # nothing; one dispatched from a sub-queue waits from when it last
    # entered it
    line = run_scenario(line_scenario(packets=20, hops=3, window=1))
    assert [path["mean_wait_s"] for path in line.per_path.values()] == [0.0]
    piped = run_scenario(configured(mesh_sim, packets=300, window=None))
    assert any(path["mean_wait_s"] > 0.0 for path in piped.per_path.values())


@pytest.mark.parametrize("fragmented", [True, False], ids=["fragmented", "shared-fifo"])
@pytest.mark.parametrize("window", [1, None], ids=["window-1", "pipelined"])
def test_frame_work_is_its_own_hops_only(mesh_sim, monkeypatch, fragmented, window):
    # on a loss-free, fault-free mesh no buffer is asked for a frame it
    # does not hold, no parked flow tries to inject again before its wake,
    # and a service start wakes only a sub-queue that has parked flows
    dispatch, fill, slot_freed = _NodeQueues.dispatch_next, Engine._fill_source, Engine._slot_freed
    seen = collections.Counter()

    def checked_dispatch(self):
        pkt, key = dispatch(self)
        assert pkt is not None
        seen["dispatch"] += 1
        return pkt, key

    def checked_fill(self, flow, alone=False):
        assert all(flow.key not in parked for parked in self._parked.values())
        seen["fill"] += 1
        fill(self, flow, alone)

    def checked_slot_freed(self, node_id, key):
        assert self._parked.get((node_id, key))
        seen["wake"] += 1
        slot_freed(self, node_id, key)

    monkeypatch.setattr(_NodeQueues, "dispatch_next", checked_dispatch)
    monkeypatch.setattr(Engine, "_fill_source", checked_fill)
    monkeypatch.setattr(Engine, "_slot_freed", checked_slot_freed)
    metrics = run_scenario(configured(mesh_sim, packets=300, window=window,
                                      fragmented=fragmented))
    assert metrics.total_delivered + metrics.total_dropped == metrics.total_injected
    assert seen["dispatch"] and seen["fill"]
    assert bool(seen["wake"]) == (window is None)  # only pipelined sources park


def _sink_link_fault(fragmented: bool):
    """`crossing_scenario(1)`: the link (2, 3) into the sink 3 goes down,
    and the beacon that finds it names the live sink, which spare 17 at
    (40, 1) replaces."""
    return with_fault(
        configured(crossing_scenario(1), fragmented=fragmented, window=1,
                   max_attempts=3, fault_detection="on", record_trace=True),
        FaultDecl(0.05 if fragmented else 1.3, link=(2, 3)), spare_beside=3)


def _relay_link_fault(fragmented: bool):
    """`crossing_scenario(1)` pipelined with a slow link (1, 2): the link
    (1, 5) goes down while relay 1 still queues frames for 2, and spare 17
    beside 1 replaces the live relay."""
    base = configured(crossing_scenario(1), fragmented=fragmented, window=None,
                      max_attempts=3, fault_detection="on", record_trace=True)
    base.link_overrides = {(1, 2): (5000.0, 0.0)}
    return with_fault(base, FaultDecl(0.5 if fragmented else 0.2, link=(1, 5)),
                      spare_beside=1)


# the fingerprints of the two link-fault fixtures as the engine that
# forwarded a frame by its route position left them
LINK_FAULT_FINGERPRINTS = {
    ("_sink_link_fault", True):
        "7c04c680333903d7683ea830c7126f2e421ccfa65e61b056726716cb520b10b8",
    ("_sink_link_fault", False):
        "16c7dc1ec13ae6149f80bf86f8f14ffb8f8a8af265052b34eb4fa60a397f2517",
    ("_relay_link_fault", True):
        "ef2c6aea8359a933cc0162e3c2c22681815e1e499e1686992ed2518176c660b9",
    ("_relay_link_fault", False):
        "cf01c3c597b548dfcbe4f9d72280f1a43becc6c5a75f7b010b7c5fbb0c8e6ae3",
}


@pytest.mark.parametrize("fragmented", [True, False], ids=["fragmented", "shared-fifo"])
def test_hop_records_follow_the_replaced_route(fragmented):
    # after a replacement each affected flow holds one hop per node, from
    # that node: the route's hops, the substitute's included, and the hop
    # a live relay that the spare replaced keeps for the frames it holds
    for make, failed in ((_sink_link_fault, 3), (_relay_link_fault, 1)):
        engine = Engine(make(fragmented))
        metrics = engine.run()
        assert metrics.replacements == [(failed, 17)]
        for flow in engine.flows.values():
            route = flow.route
            for node, hop in flow.hops.items():
                assert hop.sender == node
                assert hop is engine._hops[(node, hop.receiver)]
            # the walk from the head visits each node once and ends at a
            # node with no hop
            assert len(set(route)) == len(route) and route[-1] not in flow.hops
        relayed = engine.flows[(9, 0)]
        assert 17 in relayed.route
        if failed == 1:
            assert relayed.hops[1].receiver == relayed.hops[17].receiver == 2
        assert fingerprint(metrics) == LINK_FAULT_FINGERPRINTS[(make.__name__, fragmented)]
    # the relay's services after the replacement land at its own successor 2
    replaced_at = next(i for i, line in enumerate(metrics.trace) if ",replace," in line)
    later = [line.split(",")[1:] for line in metrics.trace[replaced_at:]]
    served = [uid for kind, node, uid in later if (kind, node) == ("service", "1")]
    landed = {uid for kind, node, uid in later if (kind, node) == ("arrival", "2")}
    assert served and set(served) <= landed


def _spare_at_two_positions(fragmented: bool):
    """Spare 2 sits on the declared route 1-2-3-4-5-6 and queues frames
    behind a slow link (2, 3). The link (1, 2) goes down, and spare 7
    replaces the live node 2, which stays a spare; node 4 then fails, and
    node 2, beside both of 4's neighbours 3 and 5, replaces it while it
    still holds frames of its first position."""
    positions = {1: (-20.0, 0.0), 2: (0.0, 0.0), 3: (0.0, 20.0), 4: (20.0, 20.0),
                 5: (20.0, 0.0), 6: (40.0, 0.0), 7: (-1.0, 1.0)}
    return Scenario(
        name="spare-at-two-positions", params=small_params(), positions=positions, sink=6,
        sources=[SourceDecl(1, 60, paths=[[1, 2, 3, 4, 5, 6]])],
        link_overrides={(2, 3): (2000.0, 0.0)}, redundant=(2, 7),
        faults=[FaultDecl(0.1, link=(1, 2)), FaultDecl(0.3, node=4)],
        engine=RunConfig(scheme=2, window=None, max_attempts=3, fragmented=fragmented,
                         fault_detection="on", record_trace=True))


@pytest.mark.parametrize("fragmented", [True, False], ids=["fragmented", "shared-fifo"])
def test_node_at_two_route_positions_keeps_one_hop_per_flow(fragmented):
    # a flow keeps one hop per node: once node 2 substitutes for 4, every
    # frame of the flow that it holds, those of its first position too,
    # leaves over its new hop to 5, and none goes to 3 again
    engine = Engine(_spare_at_two_positions(fragmented))
    metrics = engine.run()
    assert metrics.replacements == [(2, 7), (4, 2)]
    assert metrics.abandoned == []
    flow = engine.flows[(1, 0)]
    assert flow.route == [1, 7, 3, 2, 5, 6]
    assert flow.hops[2].receiver == 5
    replaced_at = [i for i, line in enumerate(metrics.trace) if ",replace," in line][-1]
    data = {line.split(",")[3] for line in metrics.trace if ",inject," in line}
    sender, hops_taken = {}, set()  # data uid -> its last server; (sender, receiver)
    for line in metrics.trace[replaced_at:]:
        _time, kind, node, uid = line.split(",")
        if uid not in data:
            continue
        if kind == "service":
            sender[uid] = node
        elif kind == "arrival" and uid in sender:
            hops_taken.add((sender[uid], node))
    assert {hop for hop in hops_taken if hop[0] == "2"} == {("2", "5")}
    assert (metrics.delivered, metrics.dropped_fault) == (
        ({1: 59}, 1) if fragmented else ({1: 57}, 3))


def _spare_taking_the_route_end(fragmented: bool):
    """`_spare_at_two_positions` with the link (5, 6) into the sink 6
    going down at 0.5 s in place of the node fault: the beacon that finds
    it names the live sink, and the nearest spare left is node 2, which
    hears node 5 but still has its hop 2 -> 3 on the flow. A low event cap
    ends a run whose frames circle."""
    scenario = _spare_at_two_positions(fragmented)
    return dataclasses.replace(
        scenario, faults=[FaultDecl(0.1, link=(1, 2)), FaultDecl(0.5, link=(5, 6))],
        engine=dataclasses.replace(scenario.engine, max_events=20_000))


@pytest.mark.parametrize("fragmented", [True, False], ids=["fragmented", "shared-fifo"])
def test_spare_with_a_hop_on_the_flow_does_not_take_the_route_end(fragmented):
    # at the route's end spare 2 would keep its hop 2 -> 3 and frames
    # would circle 2-3-4-5-2 until the event cap; it does not fit, and
    # the flow is abandoned
    engine = Engine(_spare_taking_the_route_end(fragmented))
    metrics = engine.run()
    assert metrics.replacements == [(2, 7)]
    assert metrics.abandoned == [(1, 0, 0)]
    flow = engine.flows[(1, 0)]
    assert flow.route == [1, 7, 3, 4, 5, 6] and flow.hops[2].receiver == 3
    assert (metrics.delivered, metrics.dropped_fault, metrics.event_count) == (
        ({1: 13}, 47, 227) if fragmented else ({1: 12}, 48, 219))


@pytest.mark.parametrize("fragmented", [True, False], ids=["fragmented", "shared-fifo"])
def test_spare_that_replaces_a_source_becomes_the_head(fragmented):
    # crossing-6 of the relay-link-fault family, pipelined: source 3
    # fails, and spare 38 beside it heads the route of its open flow
    scenario = list(_relay_link_cases(6, None, fragmented))[1]
    engine = Engine(scenario)
    metrics = engine.run()
    assert metrics.replacements == [(3, 38)]
    flow = engine.flows[(3, 1)]
    assert flow.head == 38 and flow.route == [38, 9, 10, 11, 12, 6]
    assert (flow.delivered, flow.dropped) == ((9, 22) if fragmented else (17, 14))


def test_hops_that_close_a_loop_fail_the_route_walk():
    flow = _flow()
    assert flow.route == [1]  # the head alone until the run builds the hops
    node = {n: engine_module._Node(n, 0.0) for n in (1, 2, 3)}
    flow.hops = {a: engine_module._Hop(a, b, 0.0, (min(a, b), max(a, b)), (0.0,) * 3,
                                       (0.0,) * 3, node[a], node[b])
                 for a, b in ((1, 2), (2, 3))}
    assert flow.route == [1, 2, 3]
    flow.hops[3] = engine_module._Hop(3, 2, 0.0, (2, 3), (0.0,) * 3, (0.0,) * 3,
                                      node[3], node[2])
    with pytest.raises(SimulationError, match=r"flow \(1, 0\)"):
        flow.route


def _replaced_successor_out_of_range(fragmented: bool, spare_xy=(-4.1, 25.5)):
    """The declared route 1-2-3-4-5-6 with a slow link (2, 3): the link
    (1, 2) goes down and spare 7 replaces the live node 2, which still
    queues frames for 3; then node 3 fails and spare 8, beside 7 and 4
    (24.7 m from each) but 25.8 m from node 2, replaces it."""
    positions = {1: (-20.0, 0.0), 2: (0.0, 0.0), 3: (0.0, 20.0), 4: (20.0, 20.0),
                 5: (20.0, 0.0), 6: (40.0, 0.0), 7: (-1.0, 1.0), 8: spare_xy}
    return Scenario(
        name="replaced-successor-out-of-range", params=small_params(), positions=positions,
        sink=6, sources=[SourceDecl(1, 60, paths=[[1, 2, 3, 4, 5, 6]])],
        link_overrides={(2, 3): (2000.0, 0.0)}, redundant=(7, 8),
        faults=[FaultDecl(0.1, link=(1, 2)), FaultDecl(0.3, node=3)],
        engine=RunConfig(scheme=2, window=None, max_attempts=3, fragmented=fragmented,
                         fault_detection="on", record_trace=True))


@pytest.mark.parametrize("fragmented", [True, False], ids=["fragmented", "shared-fifo"])
def test_replaced_relay_out_of_range_of_the_next_spare_drops_as_faults(fragmented):
    # node 2, replaced but alive, keeps its hop into the failed node 3,
    # since it cannot hear spare 8: what it holds of the flow fails there
    # and drops as faults, and the run completes
    engine = Engine(_replaced_successor_out_of_range(fragmented))
    metrics = engine.run()
    assert metrics.replacements == [(2, 7), (3, 8)]
    assert metrics.abandoned == []
    flow = engine.flows[(1, 0)]
    assert (flow.hops[2].receiver, flow.hops[7].receiver) == (3, 8)
    assert (metrics.delivered, metrics.dropped_fault) == (
        ({1: 55}, 5) if fragmented else ({1: 53}, 7))


# with spare 8 at (-3, 22), within range of node 2, every sender into the
# failed node is redirected; the fingerprints are those that the engine
# forwarding a frame by its route position left
IN_RANGE_FINGERPRINTS = {
    True: "b51495017ec46664f1e1ac0c5ed5e6a5a1be11117b81e24b11e9d3e88beb7bf0",
    False: "e17569a57ca5ee7b83e0d9dcd1ed93f40c7f340e0d20e78656fd0bb3e51be4c0",
}


@pytest.mark.parametrize("fragmented", [True, False], ids=["fragmented", "shared-fifo"])
def test_replaced_relay_in_range_of_the_next_spare_follows_it(fragmented):
    engine = Engine(_replaced_successor_out_of_range(fragmented, spare_xy=(-3.0, 22.0)))
    metrics = engine.run()
    assert metrics.replacements == [(2, 7), (3, 8)]
    assert engine.flows[(1, 0)].hops[2].receiver == 8
    assert fingerprint(metrics) == IN_RANGE_FINGERPRINTS[fragmented]


@pytest.mark.parametrize("fragmented", [True, False], ids=["fragmented", "shared-fifo"])
def test_spare_named_by_a_link_fault_is_not_its_own_substitute(fragmented):
    # the link (1, 2) fails and detector 1 names the live spare 2 on its
    # route; spare 7 replaces it whether 7 is nearer node 1 than node 2 is
    # (19.0 m against 20 m) or farther (21.0 m)
    delivered = []
    for spare_xy in [(-1.0, 1.0), (1.0, 1.0)]:
        sc = dataclasses.replace(_spare_at_two_positions(fragmented),
                                 faults=[FaultDecl(0.1, link=(1, 2))])
        sc.positions[7] = spare_xy
        metrics = run_scenario(sc)
        assert metrics.replacements == [(2, 7)]
        assert metrics.abandoned == []
        delivered.append(metrics.delivered)
    # the shared FIFO drops the frame that spent its attempts on the link
    assert delivered == [{1: 60 if fragmented else 59}] * 2


def test_run_reports_the_hash_of_the_scenario_it_was_built_from(monkeypatch):
    sc = crossing_fault_scenario(3, fragmented=True, spare=False)
    expected = scenario_hash(sc)
    hashed = []
    monkeypatch.setattr(engine_module, "scenario_hash",
                        lambda s: hashed.append(s) or scenario_hash(s))
    metrics = run_scenario(sc)
    assert hashed == []  # nothing read the hash yet
    sc.engine.scheme = 1
    sc.engine = RunConfig(scheme=2)
    sc.faults.append(FaultDecl(0.5, node=sc.sources[0].id))
    sc.faults = []
    assert scenario_hash(sc) != expected
    assert metrics.scenario_hash == metrics.scenario_hash == expected
    assert len(hashed) == 1  # computed once, when first read


def test_livelock_guard_fires():
    sc = line_scenario(packets=50, hops=5, window=None)
    sc.engine = RunConfig(scheme=2, max_events=10)
    with pytest.raises(SimulationError):
        run_scenario(sc)


def test_sub_queue_that_refuses_an_injection_it_had_room_for_is_a_simulation_error(
        monkeypatch):
    monkeypatch.setattr(_NodeQueues, "enqueue_data", lambda self, pkt, hop: (False, None))
    with pytest.raises(SimulationError, match=(
            r"node 1: sub-queue 11 reported space but did not take packet 1 "
            r"of flow \(1, 0\) cleanly")):
        run_scenario(line_scenario(packets=3, hops=2, window=None))


class _NoWakeEngine(Engine):
    """An engine whose freed sub-queue slots wake no source."""

    def _slot_freed(self, node_id, key):
        pass


def test_stall_at_quiescence_names_flow_and_subqueue(mesh):
    # sources relay for each other; once a source's first-hop sub-queue
    # has filled with foreign packets only a slot-freed wake-up refills it
    sc = configured(mesh, packets=1000, window=None)
    with pytest.raises(SimulationError,
                       match=r"flow \(1, 0\) stalled .* sub-queue 2 of node 1"):
        _NoWakeEngine(sc).run()


class _MuteRelayEngine(Engine):
    """An engine whose relay 12 never starts a transmission: a frame it
    would serve, dispatched or passed through, goes back to the head of its
    sub-queue."""

    def _serve(self, node_id, pkt, key, hop=None):
        if node_id != 12:
            super()._serve(node_id, pkt, key, hop)
        else:
            self.queues[12].requeue(pkt, pkt.flow.hops[12].receiver)


@pytest.mark.parametrize("fragmented, key", [(True, "2"), (False, "shared")])
def test_stall_names_the_subqueues_that_hold_the_frames(fragmented, key):
    # the frames strand two hops past the source, at the mute relay
    sc = line_scenario(packets=5, hops=3, window=None, fragmented=fragmented)
    with pytest.raises(SimulationError, match=(
            r"flow \(1, 0\) stalled at t=\S+: 0 packets of backlog wait on sub-queue "
            rf"\w+ of node 1, 5 in flight sit in sub-queue {key} of node 12 \(5 frames\), "
            r"and nothing is left to wake them")):
        _MuteRelayEngine(sc).run()


def test_tracing_off_formats_no_record(mesh, monkeypatch):
    # with tracing off, a windowed run with no fault and no drop never
    # reaches the trace writer
    def refuse(self, kind, node, uid):
        raise AssertionError(f"traced {kind} at node {node}")

    monkeypatch.setattr(Engine, "_trace", refuse)
    metrics = run_scenario(configured(mesh, record_trace=False))
    assert mesh.engine.window == 1 and not mesh.faults
    assert metrics.total_dropped == 0 and metrics.total_delivered == metrics.total_injected


class _LeakyEngine(Engine):
    """An engine that books one joule in a bucket, or takes one from a
    node, without spending it, just before the run is finalized."""

    def __init__(self, scenario, leak):
        super().__init__(scenario)
        self._leak = leak

    def _check_quiescent(self):
        super()._check_quiescent()
        if self._leak == "bucket":
            self.metrics.energy_breakdown_j["tx_data"] += 1.0
        else:
            self._nodes[1].residual_j -= 1.0


@pytest.mark.parametrize("leak,match", [
    ("bucket", "energy buckets sum to"), ("residual", "nodes were drained of")])
def test_unbalanced_energy_ledger_is_simulation_error(leak, match):
    sc = line_scenario(packets=5, hops=2, window=1)
    with pytest.raises(SimulationError, match=match):
        _LeakyEngine(sc, leak).run()


def test_random_loss_retries_and_stays_deterministic():
    sc = line_scenario(packets=10, hops=3, window=1)
    sc.engine = RunConfig(scheme=2, window=1, loss_prob=0.2,
                          fault_detection="off", max_attempts=50)
    a = run_scenario(sc)
    b = run_scenario(sc)
    assert a.retransmissions > 0
    assert a.total_delivered == 10
    assert a.retransmissions == b.retransmissions
    assert a.completion_s == b.completion_s
    sc.seed = 99
    c = run_scenario(sc)
    assert c.retransmissions != a.retransmissions or c.completion_s != a.completion_s


def test_multisource_mesh_scheme_completion_ordering(mesh):
    import dataclasses
    results = {}
    for scheme in (1, 2, 3):
        sc = dataclasses.replace(
            mesh, engine=dataclasses.replace(mesh.engine, scheme=scheme))
        results[scheme] = max(
            run_scenario(sc).per_source_completion_s.values())
    assert results[3] <= results[2] <= results[1]
