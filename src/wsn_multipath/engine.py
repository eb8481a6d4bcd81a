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
    source: _Source                 # its source's record, shared by the source's flows
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
class _Node:
    """A node's run state, built by `Engine._node` when a hop, a buffer or
    a fault first names the node, and the only record of it; a node
    without one was never touched and is alive with a full battery."""

    id: int
    residual_j: float               # less its frames' debits; sensing and idle come at the end
    busy: bool = False              # transmitting
    busy_s: float = 0.0             # transmit and receive time
    fault_s: float | None = None    # time of death; None while alive
    queues: _NodeQueues | None = None   # its buffer, built for its first frame


@dataclass(slots=True)
class _Source:
    """A source's run state, shared by its flows."""

    landed: bytearray               # one byte per sequence number, set by its first copy
    comm_j: float = 0.0             # transmit and receive energy of its data frames
    completion_s: float = 0.0       # when the first copy of its latest number landed


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
    tx: _Node                       # the sender's record
    rx: _Node                       # the receiver's
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
        self._tracing = self.config.record_trace
        self._loss_prob = self.config.loss_prob
        self._rx_per_bit = receive_energy_per_bit(self.params)
        # run state; the topology and specs are never written. A node's
        # record is made when first named, its hop records when first asked
        # for: (sender, receiver) -> the hop's record
        self._nodes: dict[int, _Node] = {}
        self._hops: dict[tuple[int, int], _Hop] = {}
        # a link is down exactly when it has a down time
        self._spares = set(scenario.redundant)
        self._down_links: dict[tuple[int, int], float] = {}
        self._fault_resolved: set[int] = set()
        self._sources: dict[int, _Source] = {}
        self.flows: dict[tuple[int, int], _Flow] = {}
        # (source, first-hop queue key) -> flows that found it full or
        # blocked, by flow key, in the order they did
        self._parked: dict[tuple, dict[tuple[int, int], _Flow]] = {}
        # the run's total debit and its per-frame buckets, added to per frame
        # and written into `metrics` when the run is finalized
        self._spent_j = self._tx_data_j = self._rx_data_j = 0.0
        self._tx_control_j = self._rx_control_j = 0.0
        self._init_flows()

    # ------------------------------------------------------------------ setup

    def _init_flows(self) -> None:
        for spec in self.specs:
            quotas = source_allocation(self.config, self.params, spec).quotas
            self.metrics.injected[spec.node_id] = sum(quotas)
            # each replicated path numbers its copies 0..packets-1; other
            # paths number theirs in consecutive blocks of their quotas
            source = self._sources[spec.node_id] = _Source(bytearray(spec.packets))
            for idx, (path, quota) in enumerate(zip(spec.paths, quotas)):
                flow = _Flow(key=(spec.node_id, idx), head=spec.node_id, quota=quota,
                             tau_s=path.tau_s, source=source,
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

    @property
    def queues(self) -> dict[int, _NodeQueues]:
        """The buffers built so far, by node: a node without one never
        queued a frame."""
        return {nid: node.queues for nid, node in self._nodes.items()
                if node.queues is not None}

    def _node(self, node_id: int) -> _Node:
        """The node's record, built when a hop, a buffer or a fault first
        names the node."""
        node = self._nodes.get(node_id)
        if node is None:
            node = self._nodes[node_id] = _Node(node_id, self.params.initial_energy_j)
        return node

    def _fault_s(self, node_id: int) -> float | None:
        """When the node died, or None while it lives."""
        node = self._nodes.get(node_id)
        return None if node is None else node.fault_s

    def _queues_at(self, node_id: int) -> _NodeQueues:
        """The node's buffer, built for its first frame."""
        node = self._node(node_id)
        if node.queues is None:
            node.queues = _NodeQueues(
                node_id, self.topology.neighbors(node_id),
                self.config.queue_packets_per_subqueue, self.config.fragmented)
        return node.queues

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
            *costs, self._node(sender), self._node(receiver))
        return record

    # -------------------------------------------------------------- injection

    def _fill_source(self, flow: _Flow, alone: bool = False) -> None:
        """Inject while the flow has backlog, a live head and an open window:
        each packet goes into the head's first-hop sub-queue, or the refill's
        `alone` one into service of an idle, empty head. A sub-queue found
        full or blocked parks the flow there until a slot frees."""
        limit, head = self.config.window, flow.head
        hop = flow.hops[head]
        node, next_hop = hop.tx, hop.receiver
        queues = node.queues
        while (flow.next_seq < flow.quota and not flow.abandoned and node.fault_s is None
               and (limit is None or flow.outstanding < limit)):
            if queues is None:
                queues = self._queues_at(head)
            if not queues.has_space(next_hop):
                self._parked.setdefault((head, queues.key(next_hop)), {})[flow.key] = flow
                flow.parked = True
                return
            pkt = Packet("data", flow.key[0], self.scenario.sink, flow,
                         flow.first_seq + flow.next_seq, next(self._uid), self._now)
            flow.next_seq += 1
            flow.outstanding += 1
            if self._tracing:
                self._trace("inject", head, pkt.uid)
            if alone and not node.busy:
                key = queues.pass_through(next_hop)
                if key is not None:
                    self._serve(head, pkt, key, hop)
                    return
            accepted, victim = queues.enqueue_data(pkt, next_hop)
            if not accepted or victim is not None:
                raise SimulationError(
                    f"node {head}: sub-queue {queues.key(next_hop)} reported space "
                    f"but did not take packet {pkt.uid} of flow {flow.key} cleanly")

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
            # a source completes when the first copy of its last packet
            # lands, and event time never decreases
            source = flow.source
            if source.landed[pkt.seq]:
                self.metrics.duplicates += 1
            else:
                source.landed[pkt.seq] = 1
                source.completion_s = self._now
        else:
            flow.dropped += 1
            if fate == "overflow":
                self.metrics.dropped_overflow += 1
            else:
                self.metrics.dropped_fault += 1
        # a parked flow has had no free slot since it parked. A longer refill
        # queues: a frame passed through would wake parked flows before its end
        if not flow.parked and flow.next_seq < flow.quota:
            self._fill_source(flow, flow.next_seq + 1 == flow.quota
                              or flow.outstanding + 1 == self.config.window)
        node = flow.hops[flow.head].tx
        queues = node.queues
        if queues is not None and (queues.control or queues.queued) and not node.busy:
            self._try_start(node)

    def _lose(self, pkt: Packet) -> None:
        """A frame lost to a fault: a data packet resolves as a fault drop,
        a beacon ends its origin's self-check."""
        if pkt.kind == "data":
            self._packet_resolved(pkt, "fault")
        else:
            self._end_self_check(pkt.source, pkt.flow[0])  # (suspect, tried)

    # ---------------------------------------------------------------- service

    def _try_start(self, node: _Node) -> None:
        """Serve the next frame of a live, idle node that holds one; the
        per-frame handlers test the buffer before they call."""
        queues = node.queues
        if (queues is None or not (queues.control or queues.queued)
                or node.busy or node.fault_s is not None):
            return
        pkt, key = queues.dispatch_next()
        if key is not None:
            self._serve(node.id, pkt, key, pkt.flow.hops[node.id])
        elif pkt is not None:
            self._serve_beacon(node, pkt)

    def _serve(self, node_id: int, pkt: Packet, key, hop: _Hop) -> None:
        """Start transmitting data frame `pkt`, just out of sub-queue `key`
        of the live, idle `node_id`, over `hop`, the node's hop on the
        frame's flow. Every data transmission starts here, dispatched or
        passed through."""
        flow = pkt.flow
        flow.wait_total_s += self._now - pkt.enq_s
        flow.wait_hops += 1
        if self._parked and (node_id, key) in self._parked:
            self._slot_freed(node_id, key)
        occupancy, tx_j, _rx_j = cost = hop.data
        node = hop.tx
        node.residual_j -= tx_j
        self._spent_j += tx_j
        self._tx_data_j += tx_j
        flow.source.comm_j += tx_j
        if node.residual_j < 0:
            self._node_failure(node_id)
        node.busy = True
        node.busy_s += occupancy
        if self._tracing:
            self._trace("service", node_id, pkt.uid)
        heapq.heappush(self._events, (self._now + occupancy, _RANK_SERVICE, node_id,
                                      next(self._event_counter), pkt, hop, cost))

    def _serve_beacon(self, node: _Node, pkt: Packet) -> None:
        """Start transmitting self-check beacon `pkt`, just out of the
        control queue of the live, idle `node`."""
        hop = self._hop(node.id, pkt.destination)
        occupancy, tx_j, _rx_j = cost = hop.beacon
        node.residual_j -= tx_j
        self._spent_j += tx_j
        self._tx_control_j += tx_j
        if node.residual_j < 0:
            self._node_failure(node.id)
        node.busy = True
        node.busy_s += occupancy
        self._trace("service", node.id, pkt.uid)
        self._push(self._now + occupancy, _RANK_SERVICE, node.id, pkt, hop, cost)

    def _on_service_end(self, node_id: int, pkt: Packet, hop: _Hop, cost: tuple) -> None:
        """`hop` and `cost` are what the frame's start priced it with."""
        node = hop.tx
        node.busy = False
        lost = self._loss_prob > 0.0 and self.rng.random() < self._loss_prob
        if node.fault_s is not None:
            self._lose(pkt)  # the transmitter died mid-send
        elif (hop.rx.fault_s is not None
              or (self._down_links and hop.pair in self._down_links) or lost):
            self._on_attempt_failed(node_id, pkt, hop)
        else:
            heapq.heappush(self._events, (self._now + hop.delay_s, _RANK_ARRIVAL, hop.receiver,
                                          next(self._event_counter), pkt, hop, cost))
        queues = node.queues  # made when it first held this frame
        if queues.queued or queues.control:
            self._try_start(node)

    def _on_attempt_failed(self, node_id: int, pkt: Packet, hop: _Hop) -> None:
        self.metrics.retransmissions += 1
        if pkt.kind != "data":
            suspect, tried = pkt.flow
            if not self._send_beacon(node_id, suspect, tried | {pkt.destination}):
                self._end_self_check(node_id, suspect)
            return
        hop.failed += 1
        flow, next_hop = pkt.flow, hop.receiver
        queues = hop.tx.queues
        # the node's hop may have been redirected since this attempt started
        requeue_hop = flow.hops[node_id].receiver
        spent = requeue_hop == next_hop and hop.failed >= self.config.max_attempts
        if spent and self._send_beacon(node_id, next_hop, tried=set()):
            # the hop stays blocked while its self-check beacon is out
            queues.block(next_hop)
        if (flow.abandoned or hop.tx.fault_s is not None
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
        node = hop.rx
        if node.fault_s is not None:  # a dead node spends nothing
            self._lose(pkt)
            return
        if pkt.kind != "data":
            self._on_beacon_arrived(node, pkt, cost)
            return
        occupancy, _tx_j, rx_j = cost
        flow = pkt.flow
        node.residual_j -= rx_j
        self._spent_j += rx_j
        self._rx_data_j += rx_j
        flow.source.comm_j += rx_j
        node.busy_s += occupancy
        if node.residual_j < 0:  # the receive debit kills it
            self._node_failure(node_id)
            self._lose(pkt)
            return
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
            self._arm_receiver_timer(flow, node_id, pkt.seq, hop)
        next_hop = onward.receiver
        queues = node.queues
        if queues is None:
            queues = self._queues_at(node_id)
        if not node.busy:
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
        if not node.busy:  # the frame was queued or found its sub-queue full
            self._try_start(node)

    # ------------------------------------------------------------ fault logic

    def _node_failure(self, node_id: int) -> None:
        """Every node that dies, by a scheduled fault or by a debit, dies
        here."""
        node = self._node(node_id)
        if node.fault_s is not None:
            return
        node.fault_s = self._now
        self._trace("fault", node_id, 0)
        if node.queues is not None:
            for pkt in node.queues.drain():
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

    def _arm_receiver_timer(self, flow: _Flow, node_id: int, seq: int, hop: _Hop) -> None:
        """Packet `seq` of `flow` has reached `node_id` over `hop`; its
        watchdog waits for the next one. The deadline takes its heap key
        now, but enters the heap only once the sender is dead and its fault
        unresolved: only then can it act. Until then the flow holds it, and
        the death of the node upstream on the route releases it."""
        flow.last_arrival[node_id] = seq
        if flow.backlog == 0 and flow.outstanding <= 1:
            return  # nothing more will come this way
        hold = (seq, self._now, next(self._event_counter))
        if hop.tx.fault_s is not None and hop.sender not in self._fault_resolved:
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
        if self._fault_s(node_id) is not None:
            return
        route = flow.route
        if node_id not in route:
            return
        upstream = route[route.index(node_id) - 1]
        down_s = self._fault_s(upstream)
        if down_s is not None:
            self._acting = (self._now, _RANK_TIMER, node_id, counter)
            self._detect("receiver_timer", node_id, upstream, down_s, expected_s)
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
                      and self._fault_s(n) is None]
        if not candidates:
            return False
        target = candidates[0]
        pkt = Packet(kind="beacon", source=origin, destination=target,
                     flow=(suspect, tried), seq=0, uid=next(self._uid))
        self._queues_at(origin).enqueue_control(pkt)
        self._try_start(self._nodes[origin])
        return True

    def _on_beacon_arrived(self, node: _Node, pkt: Packet, cost: tuple) -> None:
        """The live `node` receives a self-check beacon, priced `cost`."""
        occupancy, _tx_j, rx_j = cost
        node.residual_j -= rx_j
        self._spent_j += rx_j
        self._rx_control_j += rx_j
        node.busy_s += occupancy
        if node.residual_j < 0:  # the receive debit kills it
            self._node_failure(node.id)
            self._lose(pkt)
            return
        origin, (suspect, _tried) = pkt.source, pkt.flow
        # the suspect node failed, or else the link to it did
        down_s = self._fault_s(suspect)
        if down_s is None:
            down_s = self._down_links.get((min(origin, suspect), max(origin, suspect)))
        if down_s is not None:
            self._detect("sender_beacon", origin, suspect, down_s, down_s)
        # else a false alarm: random losses made a live hop look dead
        self._end_self_check(origin, suspect)

    def _end_self_check(self, origin: int, suspect: int) -> None:
        """The origin's self-check of `suspect` is over: it lifts its
        block, counts the hop's attempts anew and wakes its parked flows."""
        node = self._nodes[origin]
        node.queues.unblock(suspect)
        self._hops[(origin, suspect)].failed = 0  # its spent attempts made it
        self._slot_freed(origin, node.queues.key(suspect))
        self._try_start(node)

    def _nearest_redundant(self, detector: int, failed: int) -> int | None:
        """The live spare nearest the detector, other than `failed`: a spare
        on a route whose link into it failed is alive, yet cannot replace
        itself."""
        live = [(self.topology.distance(detector, nid), nid)
                for nid in self._spares if nid != failed and self._fault_s(nid) is None]
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
        holders = sorted(nid for nid in redirected if self._nodes[nid].queues is not None)
        for nid in holders:
            self._nodes[nid].queues.retarget(failed, substitute)
            self._slot_freed(nid, failed)
            if (nid, failed) in self._hops:
                self._hops[(nid, failed)].failed = 0
        for nid in holders:
            self._try_start(self._nodes[nid])

    def _abandon_flow(self, flow: _Flow) -> None:
        flow.abandoned = True
        undeliverable = flow.backlog
        self._discard_backlog(flow)
        # flush whatever of this flow is still parked in sub-queues
        for nid, queues in sorted(self.queues.items()):
            for key, stuck in queues.remove_flow(flow).items():
                for pkt in stuck:
                    self._lose(pkt)
                self._slot_freed(nid, key)
                self._try_start(self._nodes[nid])
        self.metrics.abandoned.append((flow.key[0], flow.key[1], undeliverable))

    # ------------------------------------------------------------------- run

    def _on_fault(self, node: int, link: tuple[int, int] | None, *_unused) -> None:
        """A scheduled fault: `link` goes down, or else `node` fails."""
        if link is None:
            self._node_failure(node)
        else:
            self._down_links.setdefault((min(link), max(link)), self._now)

    def _on_probe(self, *_unused) -> None:
        queues = self.queues
        for key, flow in self.flows.items():
            route = flow.route
            # a failed node not yet replaced makes the route stale: no sample
            if flow.abandoned or any(self._fault_s(nid) is not None for nid in route[1:]):
                continue
            occupancy = {nid: (queues[nid].occupancy() if nid in queues else 0.0)
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
            self._try_start(self._nodes[nid])
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
                    for nid, queues in sorted(self.queues.items())
                    for qkey, queue in queues.data.items()
                    if (count := sum(p.flow is flow for p in queue)))
                raise SimulationError(
                    f"flow {flow.key} stalled at t={self._now:.9f}s: {flow.backlog} "
                    f"packets of backlog wait on sub-queue {self._queues_at(source).key(hop)} "
                    f"of node {source}, {flow.outstanding} in flight sit in "
                    f"{held or 'no sub-queue'}, and nothing is left to wake them")

    def _finalize(self) -> None:
        duration, metrics, nodes = self._now, self.metrics, self._nodes
        buckets = metrics.energy_breakdown_j
        metrics.energy_spent_j = self._spent_j
        buckets.update(tx_data=self._tx_data_j, rx_data=self._rx_data_j,
                       tx_control=self._tx_control_j, rx_control=self._rx_control_j)
        self._check_quiescent()
        # the ledger's running sums as locals, each added to in the order the
        # nodes are walked, and written back after the walk
        spent, sensed, idled = metrics.energy_spent_j, 0.0, 0.0
        initial_j, sensing_w = self.params.initial_energy_j, self.params.sensing_w
        include_idle, idle_power_w = self.config.include_idle, self.config.idle_power_w
        residual_j = metrics.residual_j
        for nid in sorted(self.topology.nodes):
            node = nodes.get(nid)
            if node is None:  # never touched: alive, full and never busy
                alive_span, residual, busy_s = duration, initial_j, 0.0
            else:
                alive_span = duration if node.fault_s is None else node.fault_s
                residual, busy_s = node.residual_j, node.busy_s
            sensing = sensing_w * alive_span
            residual -= sensing
            spent += sensing
            sensed += sensing
            if include_idle:
                idle = idle_power_w * max(0.0, alive_span - busy_s)
                residual -= idle
                spent += idle
                idled += idle
            residual_j[nid] = residual
        metrics.energy_spent_j, buckets["sensing"], buckets["idle"] = spent, sensed, idled
        metrics.initial_j.update(dict.fromkeys(residual_j, initial_j))
        for node_id, source in self._sources.items():
            metrics.per_source_comm_j[node_id] = source.comm_j
            metrics.per_source_completion_s[node_id] = source.completion_s
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
