"""Deterministic discrete-event engine.

One event queue, one transmitter per node. Each node's buffer is split
into per-neighbor sub-queues served round-robin (a reserved control queue
always goes first), so backlog toward one neighbor never blocks traffic
toward the others. Congestion arises purely from queueing at shared nodes;
identical scenario and seed reproduce every metric bit for bit.
"""

from __future__ import annotations

import bisect
import copy
import functools
import heapq
import itertools
import operator
import random
from collections import deque
from dataclasses import dataclass, field, replace
from operator import attrgetter

from .allocator import Allocation, AllocationInput, PathParams, scheme_allocation
from .discovery import choke_probe
from .metrics import (
    path_delay,
    path_energy,
    receive_energy_per_bit,
    transmit_energy_per_bit,
)
from .model import NetworkParams, Packet, RoutingError, SourceSpec, Topology
from .scenario import RunConfig, Scenario, build_scenario, scenario_hash


class SimulationError(RuntimeError):
    """The engine reached a state its invariants forbid: the event cap
    passed before quiescence (a livelock), a flow left unfinished at
    quiescence, or a handler failed mid-run."""


# event ranks: scheduled faults fire before transmissions complete, which
# fire before arrivals land, which fire before watchdog timers and probes.
# A rank names its event's handler, `_on_fault` to `_on_probe` in order.
_RANK_FAULT = 0
_RANK_SERVICE = 1
_RANK_ARRIVAL = 2
_RANK_TIMER = 3
_RANK_PROBE = 4


@dataclass
class _Flow:
    """One source's traffic on one path, and the only record of its
    counts; `RunMetrics.per_path` is built from it at the end of a run."""

    key: tuple[int, int]            # (source node, path index)
    head: int                       # the node that injects: the source, or its spare
    quota: int
    tau_s: float
    first_seq: int = 0              # seq of its first packet
    next_seq: int = 0               # backlog position, 0..quota
    outstanding: int = 0
    delivered: int = 0
    dropped: int = 0
    abandoned: bool = False
    parked: bool = False            # in `Engine._parked`: no free slot until its wake
    last_delivery_s: float = 0.0
    wait_total_s: float = 0.0
    wait_hops: int = 0
    # node -> its hop on the flow, built when the run starts, and the route's
    # one record; a replacement redirects the hops into the node it replaces
    hops: dict[int, _Hop] = field(default_factory=dict)
    # with detection on, for the watchdogs, their only readers: node -> seq,
    # and node -> its watchdog's deadline while off the heap: (seq, armed_s, counter)
    last_arrival: dict[int, int] | None = None
    held: dict[int, tuple[int, float, int]] | None = None

    @property
    def route(self) -> list[int]:
        """The head, then each hop's receiver up to a node with no hop."""
        route = [self.head]
        while (hop := self.hops.get(route[-1])) is not None:
            if len(route) > len(self.hops):
                raise SimulationError(f"flow {self.key}: its hops loop through {route}")
            route.append(hop.receiver)
        return route

    @property
    def backlog(self) -> int:
        return self.quota - self.next_seq

    @property
    def resolved(self) -> int:
        return self.delivered + self.dropped

    @property
    def finished(self) -> bool:
        return self.resolved >= self.quota


@dataclass(slots=True)
class _Hop:
    """One directed hop, built by `Engine._hop` when first asked for; only
    `failed` changes, counting data attempts since a success or self-check."""

    sender: int
    receiver: int
    delay_s: float
    pair: tuple[int, int]           # (low id, high id), as link faults name it
    data: tuple[float, float, float]    # a data frame's (service s, tx J, rx J)
    beacon: tuple[float, float, float]  # a beacon's
    failed: int = 0


_SHARED = "shared"  # the shared FIFO's one key


class _NodeQueues:
    """A node's data buffer as deques keyed by next hop, plus the reserved
    control queue, which is served first and never drops.

    The buffer starts empty: a key is made by the first frame queued for
    it. Either discipline holds at most ``capacity_pkts`` x degree data
    frames, and nothing outside this class knows which one is in force:
    - fragmented: one sub-queue per neighbor, each holding
      ``capacity_pkts``, served round-robin; on overflow the newest packet
      (largest uid), queued or arriving, loses; a hop whose attempts keep
      failing is blocked while its self-check beacon is out;
    - shared FIFO (the traditional-MAC baseline): one key holding the whole
      buffer, drop-tail. ``blocked`` holds hop ids and the shared key is
      never one, so blocking a hop never stops the FIFO.
    Methods that take a data packet out of a sub-queue report its key, so
    that the engine can wake the flows injecting there. `queued` counts the
    data frames under every key, so that the engine asks no empty buffer
    for a frame, and `pass_through` serves an arriving frame, or a source's
    one injected frame, without queueing it.
    """

    def __init__(self, owner: int, neighbors: tuple[int, ...],
                 capacity_pkts: int, fragmented: bool):
        self.owner = owner
        self.neighbors = neighbors
        self.control: deque[Packet] = deque()
        self.blocked: set[int] = set()
        self.cursor = None  # last-served key
        self.queued = 0
        self.evicts = fragmented
        self.total = capacity_pkts * max(1, len(neighbors))
        self.capacity_pkts = capacity_pkts if fragmented else self.total  # per key
        self.data: dict[object, deque[Packet]] = {}
        self.order: list = []  # round-robin order of the keys

    def key(self, hop: int):  # of the sub-queue holding frames bound for `hop`
        return hop if self.evicts else _SHARED

    def _queue(self, hop: int) -> deque[Packet]:
        key = hop if self.evicts else _SHARED
        queue = self.data.get(key)
        if queue is None:
            if hop not in self.neighbors:
                raise RoutingError(
                    f"node {self.owner}: next hop {hop} is not a neighbor")
            queue = self.data[key] = deque()
            bisect.insort(self.order, key)
        return queue

    def occupancy(self) -> float:
        """Data frames held over the buffer's capacity."""
        return self.queued / self.total

    def is_blocked(self, hop: int) -> bool:
        return self.key(hop) in self.blocked

    def block(self, hop: int) -> None:
        self.blocked.add(hop)

    def unblock(self, hop: int) -> None:
        self.blocked.discard(hop)

    def has_space(self, hop: int) -> bool:
        key = hop if self.evicts else _SHARED
        return (key not in self.blocked
                and len(self.data.get(key, ())) < self.capacity_pkts)

    def enqueue_control(self, pkt: Packet) -> None:
        self.control.append(pkt)

    def enqueue_data(self, pkt: Packet, hop: int) -> tuple[bool, Packet | None]:
        """Returns (arrival accepted, evicted victim)."""
        queue = self._queue(hop)
        if len(queue) < self.capacity_pkts:
            queue.append(pkt)
            self.queued += 1
            return True, None
        if not self.evicts:
            return False, None
        victim = max(queue, key=attrgetter("uid"))
        if victim.uid < pkt.uid:
            return False, None
        queue.remove(victim)  # packets compare by identity
        queue.append(pkt)
        return True, victim

    def pass_through(self, hop: int):
        """The key a data frame bound for `hop` leaves if it goes straight
        to service, or None if it must queue: a frame is held, or its key
        is blocked. Leaves what queueing the frame and dispatching it at
        once leaves: the key exists and the cursor is on it."""
        if self.control or self.queued:
            return None
        key = hop if self.evicts else _SHARED
        if key in self.blocked:
            return None
        if key not in self.data:
            self._queue(hop)  # makes the key, or raises RoutingError
        self.cursor = key
        return key

    def requeue(self, pkt: Packet, hop: int) -> None:
        """A packet whose transmission failed goes back to the head."""
        self._queue(hop).appendleft(pkt)
        self.queued += 1

    def dispatch_next(self) -> tuple[Packet | None, object]:
        """(packet, key it left). Control queue first; otherwise advance the
        round-robin cursor over non-empty, non-blocked keys. The cursor
        persists."""
        if self.control:
            return self.control.popleft(), None
        if not self.queued:
            return None, None
        order, data = self.order, self.data
        n = len(order)
        start = order.index(self.cursor) + 1 if n > 1 and self.cursor in data else 0
        for i in range(start, start + n):
            key = order[i % n]
            queue = data[key]
            if queue and key not in self.blocked:
                self.cursor = key
                self.queued -= 1
                return queue.popleft(), key
        return None, None

    def remove_flow(self, flow) -> dict[object, list[Packet]]:
        """Take out every packet of one flow, grouped by the key it left."""
        removed = {}
        for key, queue in self.data.items():
            gone = [p for p in queue if p.flow is flow]
            if gone:
                removed[key] = gone
                self.queued -= len(gone)
                kept = [p for p in queue if p.flow is not flow]
                queue.clear()
                queue.extend(kept)
        return removed

    def retarget(self, failed: int, substitute: int) -> None:
        """Unblock a replaced neighbor and move its sub-queue, if a frame
        made one, under the substitute."""
        self.blocked.discard(failed)
        pending = self.data.pop(failed, None)  # never the shared key
        if pending is None:
            return
        self.order.remove(failed)
        if pending:
            self._queue(substitute).extend(pending)
        if self.cursor == failed:
            self.cursor = substitute

    def drain(self) -> list[Packet]:
        """Empty every queue: control packets first, then data by key."""
        packets = list(self.control)
        self.control.clear()
        for queue in self.data.values():
            packets.extend(queue)
            queue.clear()
        self.queued = 0
        return packets


@dataclass
class RunMetrics:
    # the scenario as the engine was built from it; nothing writes it
    scenario: Scenario = field(repr=False)
    completion_s: float = 0.0
    per_source_completion_s: dict[int, float] = field(default_factory=dict)
    per_path: dict[tuple[int, int], dict] = field(default_factory=dict)
    injected: dict[int, int] = field(default_factory=dict)
    delivered: dict[int, int] = field(default_factory=dict)
    dropped_overflow: int = 0
    dropped_fault: int = 0
    retransmissions: int = 0
    duplicates: int = 0
    energy_spent_j: float = 0.0
    energy_breakdown_j: dict[str, float] = field(default_factory=dict)
    per_source_comm_j: dict[int, float] = field(default_factory=dict)
    residual_j: dict[int, float] = field(default_factory=dict)
    initial_j: dict[int, float] = field(default_factory=dict)
    contention_history: dict[tuple[int, int], list[int]] = field(default_factory=dict)
    detections: list[dict] = field(default_factory=list)
    replacements: list[tuple[int, int]] = field(default_factory=list)
    abandoned: list[tuple[int, int, int]] = field(default_factory=list)
    event_count: int = 0  # events popped from the event queue
    final_time_s: float = 0.0  # time of the last of them: sensing runs until then
    trace: list[str] = field(default_factory=list)

    @property
    def scenario_name(self) -> str:
        return self.scenario.name

    @property
    def seed(self) -> int:
        return self.scenario.seed

    @functools.cached_property
    def scenario_hash(self) -> str:
        """The scenario's hash, computed when first read: a run whose
        report prints no hash never computes one."""
        return scenario_hash(self.scenario)

    @property
    def total_injected(self) -> int:
        return sum(self.injected.values())

    @property
    def total_delivered(self) -> int:
        return sum(self.delivered.values())

    @property
    def total_dropped(self) -> int:
        return self.dropped_overflow + self.dropped_fault


class Engine:
    def __init__(self, scenario: Scenario,
                 built: tuple[Topology, list[SourceSpec]] | None = None):
        """An engine for `scenario`. `built` is what `build_scenario`
        returned for it, or for a scenario that differs from it only in its
        run config and its sources' packet counts; without it the engine
        builds its own."""
        self.scenario = scenario
        self.config: RunConfig = scenario.engine
        self.params = scenario.params
        self.rng = random.Random(scenario.seed)
        self.topology, specs = built or build_scenario(scenario)
        # the build may be another scenario's: the packet counts are this one's
        self.specs = [replace(spec, packets=decl.packets)
                      for spec, decl in zip(specs, scenario.sources)]
        self.detection = (self.config.fault_detection == "on"
                          or (self.config.fault_detection == "auto"
                              and bool(scenario.faults)))
        # the run's hash is computed when first read, from a copy of the
        # scenario, so that a change the caller makes in the meantime cannot
        # move it; the copy's positions are the topology's own copy of them
        self.metrics = RunMetrics(scenario=copy.deepcopy(
            scenario, {id(scenario.positions): self.topology.nodes}))
        self._uid = itertools.count(1)
        self._event_counter = itertools.count()
        self._events: list[tuple] = []
        self._now = 0.0
        # (time, rank, node, counter) of the timer whose handler is acting
        self._acting: tuple | None = None
        # a node's buffer is built when a frame is first queued there; a
        # node without one is empty
        self.queues: dict[int, _NodeQueues] = {}
        self._busy = dict.fromkeys(self.topology.nodes, False)
        # transmit and receive time, kept only for idle energy, its one reader
        self._busy_time = (dict.fromkeys(self.topology.nodes, 0.0)
                           if self.config.include_idle else None)
        self._tracing = self.config.record_trace
        self._loss_prob = self.config.loss_prob
        self._rx_per_bit = receive_energy_per_bit(self.params)
        # (sender, receiver) -> the hop's record, made when first asked for
        self._hops: dict[tuple[int, int], _Hop] = {}
        # run state; the topology and specs are never written. A node is
        # dead exactly when it has a fault time, a link down exactly when
        # it has a down time.
        self._residual = dict.fromkeys(self.topology.nodes,
                                       self.params.initial_energy_j)
        self._fault_time: dict[int, float] = {}
        self._spares = set(scenario.redundant)
        self._down_links: dict[tuple[int, int], float] = {}
        self._fault_resolved: set[int] = set()
        # source -> one byte per sequence number, set by its first copy to
        # land; a source completes when the first copy of its last packet
        # lands, and event time never decreases, so the latest first copy
        # is its completion
        self._first_copy: dict[int, bytearray] = {}
        self.flows: dict[tuple[int, int], _Flow] = {}
        # (source, first-hop queue key) -> flows that found it full or
        # blocked, by flow key, in the order they did
        self._parked: dict[tuple, dict[tuple[int, int], _Flow]] = {}
        for key in ("tx_data", "rx_data", "tx_control", "rx_control",
                    "sensing", "idle"):
            self.metrics.energy_breakdown_j[key] = 0.0
        self._init_flows()

    # ------------------------------------------------------------------ setup

    def _init_flows(self) -> None:
        for spec in self.specs:
            quotas = source_allocation(self.config, self.params, spec).quotas
            self.metrics.injected[spec.node_id] = sum(quotas)
            self.metrics.per_source_comm_j[spec.node_id] = 0.0
            self.metrics.per_source_completion_s[spec.node_id] = 0.0
            # each replicated path numbers its copies 0..packets-1; other
            # paths number theirs in consecutive blocks of their quotas
            self._first_copy[spec.node_id] = bytearray(spec.packets)
            for idx, (path, quota) in enumerate(zip(spec.paths, quotas)):
                flow = _Flow(key=(spec.node_id, idx), head=spec.node_id, quota=quota,
                             tau_s=path.tau_s,
                             first_seq=0 if self.config.replicate else sum(quotas[:idx]))
                if self.detection:
                    flow.last_arrival, flow.held = {}, {}
                self.flows[flow.key] = flow

    # ------------------------------------------------------------- primitives

    def _push(self, time: float, rank: int, node: int, a=None, b=None, c=None) -> None:
        """Schedule the handler of `rank` as `handler(node, a, b, c)`. The
        counter makes every entry unique before its arguments, so those are
        never compared. The per-frame events push their entries inline."""
        heapq.heappush(self._events, (time, rank, node, next(self._event_counter), a, b, c))

    def _trace(self, kind: str, node: int, pkt_uid: int) -> None:
        if self._tracing:
            self.metrics.trace.append(f"{self._now:.9f},{kind},{node},{pkt_uid}")

    def _queues_at(self, node_id: int) -> _NodeQueues:
        """The node's buffer, built for its first frame."""
        queues = self.queues.get(node_id)
        if queues is None:
            queues = self.queues[node_id] = _NodeQueues(
                node_id, self.topology.neighbors(node_id),
                self.config.queue_packets_per_subqueue, self.config.fragmented)
        return queues

    def _hop(self, sender: int, receiver: int) -> _Hop:
        """The hop's record, built when first asked for. The link is looked
        up first, so that a missing one raises RoutingError before any
        energy error."""
        record = self._hops.get((sender, receiver))
        if record is not None:
            return record
        link, config = self.topology.link(sender, receiver), self.config
        tx_per_bit = None if config.energy_mode == "per_packet" else transmit_energy_per_bit(
            self.params, self.topology.distance(sender, receiver))
        costs = []  # data, then beacon
        for bits in (self.params.packet_size_bits, config.control_size_bits):
            occupancy = bits / link.speed_bps
            costs.append((occupancy, config.tx_power_w * occupancy, config.rx_power_w * occupancy)
                         if tx_per_bit is None
                         else (occupancy, tx_per_bit * bits, self._rx_per_bit * bits))
        record = self._hops[(sender, receiver)] = _Hop(
            sender, receiver, link.delay_s, (min(sender, receiver), max(sender, receiver)),
            *costs)
        return record

    # -------------------------------------------------------------- injection

    def _inject(self, flow: _Flow, alone: bool) -> bool:
        """Move one backlog packet into the source's first-hop sub-queue, or
        the refill's `alone` one into service of an idle, empty source. Park
        the flow there if the sub-queue is full or blocked, or once this
        packet fills it and the flow would try again. Returns whether it may
        inject again."""
        source, next_hop = flow.head, flow.hops[flow.head].receiver
        queues = self.queues.get(source)  # `_queues_at`, inlined per frame
        if queues is None:
            queues = self._queues_at(source)
        if queues.has_space(next_hop):
            pkt = Packet("data", flow.key[0], self.scenario.sink, flow,
                         flow.first_seq + flow.next_seq, next(self._uid), self._now)
            flow.next_seq += 1
            flow.outstanding += 1
            if self._tracing:
                self._trace("inject", source, pkt.uid)
            if alone and not self._busy[source]:
                key = queues.pass_through(next_hop)
                if key is not None:
                    self._serve(source, pkt, key)
                    return False
            accepted, victim = queues.enqueue_data(pkt, next_hop)
            if not accepted or victim is not None:
                raise SimulationError(
                    f"node {source}: sub-queue {queues.key(next_hop)} reported space "
                    f"but did not take packet {pkt.uid} of flow {flow.key} cleanly")
            if (flow.next_seq == flow.quota or flow.outstanding == self.config.window
                    or queues.has_space(next_hop)):
                return True
        self._parked.setdefault((source, queues.key(next_hop)), {})[flow.key] = flow
        flow.parked = True
        return False

    def _fill_source(self, flow: _Flow, alone: bool = False) -> None:
        """Inject while the flow has backlog, a live source and an open window."""
        limit = self.config.window
        while (flow.next_seq < flow.quota and not flow.abandoned
               and flow.head not in self._fault_time
               and (limit is None or flow.outstanding < limit) and self._inject(flow, alone)):
            pass

    def _slot_freed(self, node_id: int, key) -> None:
        """A data packet left sub-queue `key` of `node_id`: refill the
        flows parked on it. Every wake-up of a source that found its
        first-hop sub-queue full or blocked comes through here."""
        parked = self._parked.pop((node_id, key), None)
        if parked:
            for flow in parked.values():
                flow.parked = False
                self._fill_source(flow)

    # ------------------------------------------------------------ packet fate

    def _packet_resolved(self, pkt: Packet, fate: str) -> None:
        """`fate` is "delivered", "overflow" or "fault"."""
        flow = pkt.flow
        flow.outstanding -= 1
        if fate == "delivered":
            flow.delivered += 1
            flow.last_delivery_s = self._now
            landed = self._first_copy[pkt.source]
            if landed[pkt.seq]:
                self.metrics.duplicates += 1
            else:
                landed[pkt.seq] = 1
                self.metrics.per_source_completion_s[pkt.source] = self._now
        else:
            flow.dropped += 1
            if fate == "overflow":
                self.metrics.dropped_overflow += 1
            else:
                self.metrics.dropped_fault += 1
        # a parked flow has had no free slot since it parked. A longer refill
        # queues: a frame passed through would wake parked flows before its end
        if not flow.parked:
            self._fill_source(flow, flow.next_seq + 1 == flow.quota
                              or flow.outstanding + 1 == self.config.window)
        source = flow.head
        queues = self.queues.get(source)
        if queues is not None and (queues.control or queues.queued) and not self._busy[source]:
            self._try_start(source)

    def _lose(self, pkt: Packet) -> None:
        """A frame lost to a fault: a data packet resolves as a fault drop,
        a beacon ends its origin's self-check."""
        if pkt.kind == "data":
            self._packet_resolved(pkt, "fault")
        else:
            self._end_self_check(pkt.source, pkt.flow[0])  # (suspect, tried)

    # ---------------------------------------------------------------- service

    def _try_start(self, node_id: int) -> None:
        """Serve the next frame of a live, idle node that holds one; the
        per-frame handlers test the buffer before they call."""
        queues = self.queues.get(node_id)
        if (queues is None or not (queues.control or queues.queued)
                or self._busy[node_id] or node_id in self._fault_time):
            return
        pkt, key = queues.dispatch_next()
        if pkt is not None:
            self._serve(node_id, pkt, key)

    def _serve(self, node_id: int, pkt: Packet, key, hop: _Hop | None = None) -> None:
        """Start transmitting `pkt`, just out of sub-queue `key` (None for a
        control frame) of the live, idle `node_id`, over `hop` if the caller
        has it. Every transmission starts here, dispatched or passed through."""
        if pkt.kind == "data":
            flow = pkt.flow
            if hop is None:
                hop = flow.hops[node_id]
            flow.wait_total_s += self._now - pkt.enq_s
            flow.wait_hops += 1
            if self._parked and (node_id, key) in self._parked:
                self._slot_freed(node_id, key)
            cost, bucket, source = hop.data, "tx_data", pkt.source
        else:
            hop = self._hop(node_id, pkt.destination)
            cost, bucket, source = hop.beacon, "tx_control", None
        occupancy, tx_j, _rx_j = cost
        residual, metrics = self._residual, self.metrics
        residual[node_id] -= tx_j
        metrics.energy_spent_j += tx_j
        metrics.energy_breakdown_j[bucket] += tx_j
        if source is not None:
            metrics.per_source_comm_j[source] += tx_j
        if residual[node_id] < 0:
            self._node_failure(node_id)
        self._busy[node_id] = True
        if self._busy_time is not None:
            self._busy_time[node_id] += occupancy
        if self._tracing:
            self._trace("service", node_id, pkt.uid)
        heapq.heappush(self._events, (self._now + occupancy, _RANK_SERVICE, node_id,
                                      next(self._event_counter), pkt, hop, cost))

    def _on_service_end(self, node_id: int, pkt: Packet, hop: _Hop, cost: tuple) -> None:
        """`hop` and `cost` are what `_serve` priced the frame with."""
        self._busy[node_id] = False
        lost = self._loss_prob > 0.0 and self.rng.random() < self._loss_prob
        if node_id in self._fault_time:
            self._lose(pkt)  # the transmitter died mid-send
        elif (hop.receiver in self._fault_time
              or (self._down_links and hop.pair in self._down_links) or lost):
            self._on_attempt_failed(node_id, pkt, hop)
        else:
            heapq.heappush(self._events, (self._now + hop.delay_s, _RANK_ARRIVAL, hop.receiver,
                                          next(self._event_counter), pkt, hop, cost))
        queues = self.queues[node_id]  # made when it first held this frame
        if queues.queued or queues.control:
            self._try_start(node_id)

    def _on_attempt_failed(self, node_id: int, pkt: Packet, hop: _Hop) -> None:
        self.metrics.retransmissions += 1
        if pkt.kind != "data":
            suspect, tried = pkt.flow
            if not self._send_beacon(node_id, suspect, tried | {pkt.destination}):
                self._end_self_check(node_id, suspect)
            return
        hop.failed += 1
        flow, next_hop = pkt.flow, hop.receiver
        queues = self.queues[node_id]
        # the node's hop may have been redirected since this attempt started
        requeue_hop = flow.hops[node_id].receiver
        spent = requeue_hop == next_hop and hop.failed >= self.config.max_attempts
        if spent and self._send_beacon(node_id, next_hop, tried=set()):
            # the hop stays blocked while its self-check beacon is out
            queues.block(next_hop)
        if (flow.abandoned or node_id in self._fault_time
                or (spent and not queues.is_blocked(next_hop))):
            # no retry can help an abandoned flow, nor a sender that its own
            # beacon's transmit debit has just killed; and a frame at its
            # hop's retry limit that no block holds (a shared FIFO is never
            # blocked) is dropped, as MAC 802.11 drops it, not retried forever
            self._lose(pkt)
        else:
            queues.requeue(pkt, requeue_hop)
            pkt.enq_s = self._now

    def _on_arrival(self, node_id: int, pkt: Packet, hop: _Hop, cost: tuple) -> None:
        """`cost` is the frame's (service s, transmit J, receive J) on `hop`,
        the hop it came over. A data frame that finds the node idle with an
        empty buffer and its key open goes straight to service."""
        if self._tracing:
            self._trace("arrival", node_id, pkt.uid)
        if node_id in self._fault_time:  # a dead node spends nothing
            self._lose(pkt)
            return
        data = pkt.kind == "data"
        occupancy, _tx_j, rx_j = cost
        residual, metrics = self._residual, self.metrics
        residual[node_id] -= rx_j
        metrics.energy_spent_j += rx_j
        metrics.energy_breakdown_j["rx_data" if data else "rx_control"] += rx_j
        if data:
            metrics.per_source_comm_j[pkt.source] += rx_j
        if self._busy_time is not None:
            self._busy_time[node_id] += occupancy
        if residual[node_id] < 0:  # the receive debit kills it
            self._node_failure(node_id)
            self._lose(pkt)
            return
        if not data:
            self._on_beacon_arrived(pkt)
            return
        flow = pkt.flow
        hop.failed = 0  # success resets the counter
        onward = flow.hops.get(node_id)
        # a node without a hop on the flow delivers: the route's end, or a
        # sink that a spare replaced while this packet flew to it
        if onward is None:
            if self._tracing:
                self._trace("deliver", node_id, pkt.uid)
            self._packet_resolved(pkt, "delivered")
            return
        if self.detection:
            self._arm_receiver_timer(flow, node_id, pkt.seq, hop.sender)
        next_hop = onward.receiver
        queues = self.queues.get(node_id)  # `_queues_at`, inlined per frame
        if queues is None:
            queues = self._queues_at(node_id)
        if not self._busy[node_id]:
            key = queues.pass_through(next_hop)
            if key is not None:
                pkt.enq_s = self._now
                self._serve(node_id, pkt, key, onward)
                return
        accepted, victim = queues.enqueue_data(pkt, next_hop)
        if victim is not None:
            self._trace("drop", node_id, victim.uid)
            self._packet_resolved(victim, "overflow")
        if not accepted:
            self._trace("drop", node_id, pkt.uid)
            self._packet_resolved(pkt, "overflow")
        else:
            pkt.enq_s = self._now
        if not self._busy[node_id]:  # the frame was queued or found its sub-queue full
            self._try_start(node_id)

    # ------------------------------------------------------------ fault logic

    def _node_failure(self, node_id: int) -> None:
        """Every node that dies, by a scheduled fault or by a debit, dies
        here."""
        if node_id in self._fault_time:
            return
        self._fault_time[node_id] = self._now
        self._trace("fault", node_id, 0)
        queues = self.queues.get(node_id)
        if queues is not None:
            for pkt in queues.drain():
                self._lose(pkt)
        for flow in self.flows.values():
            if flow.head == node_id:
                self._discard_backlog(flow)  # data held at a dead source is gone with it
            # the watchdog just downstream on the route may now act: its deadline enters the heap
            hop = flow.hops.get(node_id)
            if flow.held and hop is not None and node_id in flow.route:
                hold = flow.held.pop(hop.receiver, None)
                if hold is not None:
                    self._release(flow, hop.receiver, hold)

    def _discard_backlog(self, flow: _Flow) -> None:
        lost = flow.backlog
        if lost <= 0:
            return
        flow.next_seq = flow.quota
        flow.dropped += lost
        self.metrics.dropped_fault += lost

    def _arm_receiver_timer(self, flow: _Flow, node_id: int, seq: int, sender: int) -> None:
        """Packet `seq` of `flow` has reached `node_id` from `sender`; its
        watchdog waits for the next one. The deadline takes its heap key
        now, but enters the heap only once the sender is dead and its fault
        unresolved: only then can it act. Until then the flow holds it, and
        the death of the node upstream on the route releases it."""
        flow.last_arrival[node_id] = seq
        if flow.backlog == 0 and flow.outstanding <= 1:
            return  # nothing more will come this way
        hold = (seq, self._now, next(self._event_counter))
        if sender in self._fault_time and sender not in self._fault_resolved:
            heapq.heappush(self._events, self._timer_entry(flow, node_id, hold))
        else:
            flow.held[node_id] = hold  # a newer hold leaves the older one a no-op

    def _timer_entry(self, flow: _Flow, node_id: int, hold: tuple[int, float, int]) -> tuple:
        """The heap entry of a watchdog deadline armed as `hold`: the next
        arrival is expected one full per-packet cycle later under windowed
        transfer, one service slot otherwise, and the deadline passes the
        watchdog allowance after that."""
        _seq, armed_s, counter = hold
        cycle = (len(flow.route) - 1) * flow.tau_s if self.config.window else flow.tau_s
        allowance = self.config.max_attempts * flow.tau_s
        return (armed_s + cycle + allowance, _RANK_TIMER, node_id, counter,
                flow, hold, armed_s + cycle)

    def _release(self, flow: _Flow, node_id: int, hold: tuple[int, float, int]) -> None:
        """The node upstream of `node_id` on `flow` has died: push its held
        deadline, unless that sorts before the event being handled, so
        that it passed, a no-op, while the node was alive. A death outside
        a timer's handler comes before every timer at its time; the probes,
        which sort after them, kill no node."""
        entry = self._timer_entry(flow, node_id, hold)
        if entry[:4] > (self._acting or (self._now, _RANK_ARRIVAL)):
            heapq.heappush(self._events, entry)

    def _on_timer(self, node_id: int, flow: _Flow, hold: tuple[int, float, int],
                  expected_s: float) -> None:
        if flow.finished or flow.abandoned:
            return
        seq, _armed_s, counter = hold
        if flow.last_arrival.get(node_id) != seq:
            return  # newer traffic arrived; no silence to act on
        if node_id in self._fault_time:
            return
        route = flow.route
        if node_id not in route:
            return
        upstream = route[route.index(node_id) - 1]
        if upstream in self._fault_time:
            self._acting = (self._now, _RANK_TIMER, node_id, counter)
            self._detect("receiver_timer", node_id, upstream,
                         self._fault_time[upstream], expected_s)
            self._acting = None

    def _send_beacon(self, origin: int, suspect: int, tried: set[int]) -> bool:
        """Self-check: a beacon to a third neighbor that arrives clears the
        origin, and the fault record judges the suspect. Returns whether
        one went out; none does with detection off, for a suspect already
        resolved, or with no live untried neighbor left."""
        if not self.detection or suspect in self._fault_resolved:
            return False
        candidates = [n for n in self.topology.neighbors(origin)
                      if n != suspect and n not in tried
                      and n not in self._fault_time]
        if not candidates:
            return False
        target = candidates[0]
        pkt = Packet(kind="beacon", source=origin, destination=target,
                     flow=(suspect, tried), seq=0, uid=next(self._uid))
        self._queues_at(origin).enqueue_control(pkt)
        self._try_start(origin)
        return True

    def _on_beacon_arrived(self, pkt: Packet) -> None:
        origin, (suspect, _tried) = pkt.source, pkt.flow
        # the suspect node failed, or else the link to it did
        down_s = self._fault_time.get(suspect, self._down_links.get(
            (min(origin, suspect), max(origin, suspect))))
        if down_s is not None:
            self._detect("sender_beacon", origin, suspect, down_s, down_s)
        # else a false alarm: random losses made a live hop look dead
        self._end_self_check(origin, suspect)

    def _end_self_check(self, origin: int, suspect: int) -> None:
        """The origin's self-check of `suspect` is over: it lifts its
        block, counts the hop's attempts anew and wakes its parked flows."""
        queues = self.queues[origin]
        queues.unblock(suspect)
        self._hops[(origin, suspect)].failed = 0  # its spent attempts made it
        self._slot_freed(origin, queues.key(suspect))
        self._try_start(origin)

    def _nearest_redundant(self, detector: int, failed: int) -> int | None:
        """The live spare nearest the detector, other than `failed`: a spare
        on a route whose link into it failed is alive, yet cannot replace
        itself."""
        live = [(self.topology.distance(detector, nid), nid)
                for nid in self._spares if nid != failed and nid not in self._fault_time]
        return min(live)[1] if live else None

    def _substitution_fits(self, flow: _Flow, failed: int, substitute: int) -> bool:
        """The substitute is adjacent to the failed node's neighbours on the
        route, and not on it already: a route visits each node once. It takes
        the route's end only with no hop on the flow to lead frames on."""
        route, hops = flow.route, flow.hops
        idx = route.index(failed)
        return (substitute not in route and (failed in hops or substitute not in hops)
                and all(self.topology.are_adjacent(other, substitute)
                        for other in route[max(idx - 1, 0):idx] + route[idx + 1:idx + 2]))

    def _detect(self, kind: str, detector: int, failed: int, down_s: float,
                expected_s: float) -> None:
        """`detector` finds `failed` down since `down_s`, where it expected
        to hear from it by `expected_s`. The first detection of a fault
        records it and recovers: the nearest spare replaces the failed node
        if it fits every affected flow, or else those flows are abandoned."""
        if failed in self._fault_resolved:
            return
        self._fault_resolved.add(failed)
        self.metrics.detections.append({
            "kind": kind, "failed": failed, "detector": detector,
            "time_s": self._now, "latency_s": self._now - expected_s,
            "since_fault_s": self._now - down_s,
        })
        affected = [f for f in self.flows.values()
                    if not f.finished and not f.abandoned and failed in f.route]
        substitute = self._nearest_redundant(detector, failed)
        usable = (substitute is not None
                  and all(self._substitution_fits(f, failed, substitute)
                          for f in affected))
        if not usable:
            for flow in affected:
                self._abandon_flow(flow)
            return
        self._spares.discard(substitute)
        self.metrics.replacements.append((failed, substitute))
        self._trace("replace", substitute, 0)
        # every sender into the failed node that hears the substitute sends
        # to it instead; one that does not keeps its hop, and what it holds
        # of the flow fails there
        redirected = set()
        for flow in affected:
            if flow.head == failed:
                flow.head = substitute
            if failed in flow.hops:
                flow.hops[substitute] = self._hop(substitute, flow.hops[failed].receiver)
            for sender, hop in flow.hops.items():
                if hop.receiver == failed and self.topology.are_adjacent(sender, substitute):
                    flow.hops[sender] = self._hop(sender, substitute)
                    redirected.add(sender)
        # flows parked on the failed hop now inject toward the substitute;
        # a node without a buffer has nothing to send
        holders = sorted(redirected & self.queues.keys())
        for nid in holders:
            self.queues[nid].retarget(failed, substitute)
            self._slot_freed(nid, failed)
            if (nid, failed) in self._hops:
                self._hops[(nid, failed)].failed = 0
        for nid in holders:
            self._try_start(nid)

    def _abandon_flow(self, flow: _Flow) -> None:
        flow.abandoned = True
        undeliverable = flow.backlog
        self._discard_backlog(flow)
        # flush whatever of this flow is still parked in sub-queues
        for nid in sorted(self.queues):
            for key, stuck in self.queues[nid].remove_flow(flow).items():
                for pkt in stuck:
                    self._lose(pkt)
                self._slot_freed(nid, key)
                self._try_start(nid)
        self.metrics.abandoned.append((flow.key[0], flow.key[1], undeliverable))

    # ------------------------------------------------------------------- run

    def _on_fault(self, node: int, link: tuple[int, int] | None, *_unused) -> None:
        """A scheduled fault: `link` goes down, or else `node` fails."""
        if link is None:
            self._node_failure(node)
        else:
            self._down_links.setdefault((min(link), max(link)), self._now)

    def _on_probe(self, *_unused) -> None:
        for key, flow in self.flows.items():
            route = flow.route
            # a failed node not yet replaced makes the route stale: no sample
            if flow.abandoned or any(nid in self._fault_time for nid in route[1:]):
                continue
            occupancy = {nid: (self.queues[nid].occupancy() if nid in self.queues
                               else 0.0)
                         for nid in route[1:]}
            count = choke_probe(occupancy, route)
            self.metrics.contention_history.setdefault(key, []).append(count)

    def run(self) -> RunMetrics:
        """Simulate to quiescence. Whatever fails on the way is the
        engine's fault, not the scenario's: it surfaces as SimulationError."""
        try:
            self._simulate()
        except SimulationError:
            raise
        except Exception as exc:
            raise SimulationError(
                f"at t={self._now:.9f}s: {type(exc).__name__}: {exc}") from exc
        return self.metrics

    def _simulate(self) -> None:
        for fault in self.scenario.faults:
            node = fault.node if fault.node is not None else 0
            self._push(fault.time, _RANK_FAULT, node, fault.link)
        for when in self.config.probe_times:
            self._push(when, _RANK_PROBE, 0)
        for flow, path in zip(self.flows.values(), (p for s in self.specs for p in s.paths)):
            flow.hops = {a: self._hop(a, b) for a, b in itertools.pairwise(path.nodes)}
        for key in sorted(self.flows):
            self._fill_source(self.flows[key])
        for nid in sorted(self.queues):
            self._try_start(nid)
        events, pop, cap = self._events, heapq.heappop, self.config.max_events
        handlers = (self._on_fault, self._on_service_end, self._on_arrival,
                    self._on_timer, self._on_probe)
        processed = 0
        while events:
            time, rank, node, _count, a, b, c = pop(events)
            self._now = time
            processed += 1
            if processed > cap:
                raise SimulationError(
                    f"exceeded {cap} events at t={time:.6f}s; "
                    f"{sum(f.resolved for f in self.flows.values())} packets resolved")
            handlers[rank](node, a, b, c)
        self.metrics.event_count = processed
        self.metrics.final_time_s = self._now
        self._finalize()

    def _check_quiescent(self) -> None:
        """Raise SimulationError for the first flow, in key order, that has
        not finished at quiescence, naming the sub-queue its backlog waits on
        and every sub-queue that holds one of its frames: nothing is left to
        wake them. Changes nothing."""
        for key in sorted(self.flows):
            flow = self.flows[key]
            if not flow.finished:
                source, hop = flow.head, flow.hops[flow.head].receiver
                held = ", ".join(
                    f"sub-queue {qkey} of node {nid} ({count} frames)"
                    for nid in sorted(self.queues)
                    for qkey, queue in self.queues[nid].data.items()
                    if (count := sum(p.flow is flow for p in queue)))
                raise SimulationError(
                    f"flow {flow.key} stalled at t={self._now:.9f}s: {flow.backlog} "
                    f"packets of backlog wait on sub-queue {self._queues_at(source).key(hop)} "
                    f"of node {source}, {flow.outstanding} in flight sit in "
                    f"{held or 'no sub-queue'}, and nothing is left to wake them")

    def _finalize(self) -> None:
        self._check_quiescent()
        duration, metrics, residual = self._now, self.metrics, self._residual
        # the ledger's running sums as locals, each added to in the order the
        # nodes are walked, and written back after the walk
        buckets = metrics.energy_breakdown_j
        spent, sensed, idled = metrics.energy_spent_j, buckets["sensing"], buckets["idle"]
        fault_time, sensing_w = self._fault_time, self.params.sensing_w
        include_idle, idle_power_w = self.config.include_idle, self.config.idle_power_w
        for nid in sorted(residual):
            alive_span = fault_time.get(nid, duration)
            sensing = sensing_w * alive_span
            residual[nid] -= sensing
            spent += sensing
            sensed += sensing
            if include_idle:
                idle_span = max(0.0, alive_span - self._busy_time[nid])
                idle = idle_power_w * idle_span
                residual[nid] -= idle
                spent += idle
                idled += idle
            metrics.residual_j[nid] = residual[nid]
        metrics.energy_spent_j, buckets["sensing"], buckets["idle"] = spent, sensed, idled
        metrics.initial_j.update(dict.fromkeys(metrics.residual_j, self.params.initial_energy_j))
        for spec in self.specs:
            flows = [self.flows[(spec.node_id, i)] for i in range(len(spec.paths))]
            self.metrics.delivered[spec.node_id] = sum(f.delivered for f in flows)
            for path, flow in zip(spec.paths, flows):
                self.metrics.per_path[flow.key] = {
                    "route": path.nodes,
                    "hops": path.hops,
                    "quota": flow.quota,
                    "tau_s": path.tau_s,
                    "model_delay_s": path_delay(flow.quota, path.tau_s, path.hops),
                    "model_energy_j": path_energy(
                        self.params, flow.quota, path.hops, spec.source_sink_dist_m),
                    "sim_delay_s": flow.last_delivery_s,
                    "delivered": flow.delivered,
                    "dropped": flow.dropped,
                    "mean_wait_s": (flow.wait_total_s / flow.wait_hops
                                    if flow.wait_hops else 0.0),
                }
        self.metrics.completion_s = max(
            self.metrics.per_source_completion_s.values(), default=0.0)
        self._check_energy_ledger()

    def _check_energy_ledger(self) -> None:
        """Every joule spent sits in one bucket and came out of one node."""
        m = self.metrics
        spent = m.energy_spent_j
        buckets = sum(m.energy_breakdown_j.values())
        if abs(buckets - spent) > 1e-9 * abs(spent):
            raise SimulationError(
                f"energy buckets sum to {buckets!r} J but {spent!r} J were spent")
        # both tables list the nodes in one order, the one `_finalize` walked
        drained = sum(map(operator.sub, m.initial_j.values(), m.residual_j.values()))
        # each debit rounds a residual at the scale of its initial energy,
        # so a run that spends little misses the relative bound alone
        if abs(drained - spent) > 1e-6 * abs(spent) + 1e-12 * sum(m.initial_j.values()):
            raise SimulationError(
                f"nodes were drained of {drained!r} J but {spent!r} J were spent")


def source_allocation(config: RunConfig, params: NetworkParams, spec: SourceSpec,
                      contention: dict[tuple[int, int], int] | None = None) -> Allocation:
    """The source's per-path quotas under the run config. A replicated run
    sends all its packets on every path, under no budget; otherwise the
    scheme splits them, each path discounted by its (source, path) count
    in `contention`, 0 where it has none."""
    if config.replicate:
        quotas = [spec.packets] * len(spec.paths)
        return Allocation(quotas=quotas, raw_quotas=[float(q) for q in quotas],
                          exceeds_bound=[False] * len(quotas))
    counts = contention or {}
    paths = [PathParams(p.hops, p.tau_s, counts.get((spec.node_id, i), 0))
             for i, p in enumerate(spec.paths)]
    return scheme_allocation(config.scheme, AllocationInput(
        params=params, total_packets=spec.packets, paths=paths,
        source_sink_dist_m=spec.source_sink_dist_m))


def run_scenario(scenario: Scenario,
                 built: tuple[Topology, list[SourceSpec]] | None = None) -> RunMetrics:
    return Engine(scenario, built).run()


__all__ = [
    "Engine", "RunMetrics", "SimulationError", "run_scenario", "source_allocation",
]
