"""Domain types shared by every other module: radio/energy parameters,
links, topology, paths and per-source routing specs.

Parameters, links, topologies, paths and specs are build-time
facts: nothing writes them once `build_scenario` returns. The engine owns
every per-run fact (residual energy, which nodes have failed, which spares
are left, which links are down), and packets carry their own progress.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple


class DomainError(ValueError):
    """An argument is outside the mathematical domain of an operation."""


class RoutingError(ValueError):
    pass


class ScenarioError(ValueError):
    """A scenario file or its contents are invalid."""


class InvalidPathError(ScenarioError):
    def __init__(self, message: str, hop_index: int | None = None):
        super().__init__(message)
        self.hop_index = hop_index


class ConnectivityError(ScenarioError):
    def __init__(self, message: str, source: int | None = None):
        super().__init__(message)
        self.source = source


# A rule is the words that name what a value must be and a predicate that
# holds when it is; a bool is no number.
POSITIVE = ("a finite number > 0", lambda v: type(v) in (int, float) and 0 < v < math.inf)
NONNEGATIVE = ("a finite number >= 0", lambda v: type(v) in (int, float) and 0 <= v < math.inf)


class Table(NamedTuple):
    """The rules of one mapping: a rule per key, the keys it `requires`,
    and a rule that judges it `whole`."""

    rules: dict
    requires: tuple = ()
    whole: tuple | None = None


def check(mapping, table: Table, path: str) -> dict:
    """`mapping`, once it is a mapping that `table` accepts. Otherwise a
    ScenarioError names the path of the first key that breaks a rule, as in
    `faults[0].time must be a finite number >= 0, got -1.0`."""
    if type(mapping) is not dict:
        raise ScenarioError(f"{path or 'a scenario'} must be a mapping, got {mapping!r}")
    at = f"{path}." if path else ""
    for key, value in mapping.items():
        if key not in table.rules:
            raise ScenarioError(
                f"{at}{key} is an unknown key; expected one of {', '.join(table.rules)}")
        words, holds = table.rules[key]
        if not holds(value):
            raise ScenarioError(f"{at}{key} must be {words}, got {value!r}")
    for key in table.requires:
        if key not in mapping:
            raise ScenarioError(f"{at}{key} is missing")
    if table.whole is not None and not table.whole[1](mapping):
        raise ScenarioError(f"{path} must be {table.whole[0]}, got {mapping!r}")
    return mapping


PARAMS_TABLE = Table({
    **dict.fromkeys(("tx_electronics_w", "tx_amp_w_per_mk", "rx_electronics_w",
                     "tx_bit_time_s", "rx_bit_time_s", "sensing_w", "packet_size_bits",
                     "radio_range_m", "initial_energy_j"), POSITIVE),
    "path_loss_exp": ("a number in [2, 4]", lambda v: type(v) in (int, float) and 2 <= v <= 4),
})
LINK_TABLE = Table({"speed_bps": POSITIVE, "delay_s": NONNEGATIVE})


@dataclass(frozen=True)
class NetworkParams:
    """Global radio, energy and timing constants.

    Units: powers in J/s (W), times in seconds, distances in meters,
    packet size in bits. ``tx_amp_w_per_mk`` is the distance-dependent
    transmit term coefficient, in J/s per m**path_loss_exp.
    """

    tx_electronics_w: float = 1.024e-3
    tx_amp_w_per_mk: float = 1.0e-12
    path_loss_exp: float = 2.0
    rx_electronics_w: float = 8.192e-4
    tx_bit_time_s: float = 2.0e-5
    rx_bit_time_s: float = 2.0e-5
    sensing_w: float = 8.12e-5
    packet_size_bits: float = 1000.0
    radio_range_m: float = 30.0
    initial_energy_j: float = 23760.0

    def __post_init__(self):
        check(vars(self), PARAMS_TABLE, "params")


@dataclass(frozen=True)
class Link:
    """A radio link's speed and delay; every pair without an override
    shares one record."""

    speed_bps: float = 50000.0
    delay_s: float = 0.0

    def __post_init__(self):
        check(vars(self), LINK_TABLE, "link")


@dataclass(frozen=True)
class PathInfo:
    """An ordered source-to-sink node sequence with its per-path figures."""

    nodes: tuple[int, ...]
    hops: int
    tau_s: float = 0.0          # per-packet per-hop latency
    hop_dist_m: float = 0.0     # straight-line source-sink distance / hops

    @property
    def interior(self) -> frozenset[int]:
        return frozenset(self.nodes[1:-1])


@dataclass
class SourceSpec:
    node_id: int
    packets: int
    paths: list[PathInfo] = field(default_factory=list)
    source_sink_dist_m: float = 0.0

    def check_locally_disjoint(self) -> None:
        """Paths of one source may share only their endpoints."""
        for i, a in enumerate(self.paths):
            for b in self.paths[i + 1:]:
                shared = a.interior & b.interior
                if shared:
                    raise InvalidPathError(
                        f"source {self.node_id}: paths {a.nodes} and {b.nodes} "
                        f"share interior nodes {sorted(shared)}")


@dataclass(eq=False, slots=True)
class Packet:
    """One frame. A data packet carries its flow; the node holding it sends
    it on by that node's hop on the flow, and the engine updates `enq_s` in
    place."""

    kind: str                   # data | beacon
    source: int
    destination: int
    flow: object                # what the frame serves: a data frame's flow
                                # record, a beacon's (suspect, targets tried)
    seq: int
    uid: int = 0                # global injection order; larger = newer
    enq_s: float = 0.0          # when it last entered a sub-queue


class Topology:
    """Immutable radio-range adjacency over a fixed node deployment:
    `nodes` maps each node id to its position, and `adjacency` each node id
    to its neighbours in ascending order. A pair's link is its override's
    record, or else the one `default` every other pair shares.
    `build_topology` builds it."""

    def __init__(self, nodes: dict[int, tuple[float, float]],
                 adjacency: dict[int, tuple[int, ...]],
                 overrides: dict[tuple[int, int], Link], default: Link | None):
        self.nodes = nodes
        self.adjacency = adjacency
        self.overrides = overrides      # (low id, high id) -> its own record
        self.default = default          # None when no pair takes it

    @functools.cached_property
    def links(self) -> dict[tuple[int, int], Link]:
        """Each pair (low id, high id) in ascending order with its link,
        built when first read: a run looks up its few pairs by `link`."""
        return {(a, b): self.overrides.get((a, b), self.default)
                for a in sorted(self.adjacency) for b in self.adjacency[a] if a < b}

    def neighbors(self, node_id: int) -> tuple[int, ...]:
        return self.adjacency[node_id]

    def are_adjacent(self, a: int, b: int) -> bool:
        return b in self.adjacency.get(a, ())

    def link(self, a: int, b: int) -> Link:
        if b not in self.adjacency.get(a, ()):
            raise RoutingError(f"no link between {a} and {b}")
        return self.overrides.get((a, b) if a < b else (b, a), self.default)

    def distance(self, a: int, b: int) -> float:
        (ax, ay), (bx, by) = self.nodes[a], self.nodes[b]
        return math.hypot(ax - bx, ay - by)

    def reachable_from(self, start: int) -> set[int]:
        seen = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for n in frontier:
                for m in self.adjacency[n]:
                    if m not in seen:
                        seen.add(m)
                        nxt.append(m)
            frontier = nxt
        return seen


def _neighbors_in_range(positions: dict[int, tuple[float, float]], radio_range_m: float
                        ) -> tuple[dict[int, tuple[int, ...]], int]:
    """Each node's neighbours within radio range, in ascending order, and
    the number of in-range pairs.

    Fixed-radius near-neighbour grid (Bentley, Stanat & Williams, 1977):
    nodes are bucketed into square cells, and each pair of nodes in one
    cell or in two touching cells is tested once: a cell against itself
    and against the 4 of its 8 neighbours that lie after it. The cells are
    a hair wider than the range, by a margin that grows with the largest
    coordinate, so that the rounding of ``x / width`` can never put an
    in-range pair two cells apart.
    """
    extent = max(map(abs, itertools.chain.from_iterable(positions.values())), default=0.0)
    width = radio_range_m * (1.0 + 2.0 ** -40 * max(1.0, extent / radio_range_m))
    cells: dict[tuple[int, int], list[tuple]] = {}
    for nid, (x, y) in positions.items():
        cells.setdefault((math.floor(x / width), math.floor(y / width)), []).append((nid, x, y))
    hypot = math.hypot
    adjacency: dict[int, list[int]] = {nid: [] for nid in positions}
    for (cx, cy), members in cells.items():
        after = [node for dx, dy in ((1, -1), (1, 0), (1, 1), (0, 1))
                 for node in cells.get((cx + dx, cy + dy), ())]
        for i, (a, ax, ay) in enumerate(members, 1):
            near = adjacency[a]
            for b, bx, by in members[i:]:
                if hypot(ax - bx, ay - by) <= radio_range_m:
                    near.append(b)
                    adjacency[b].append(a)
            for b, bx, by in after:
                if hypot(ax - bx, ay - by) <= radio_range_m:
                    near.append(b)
                    adjacency[b].append(a)
    ends = 0  # each pair has two
    for nid, near in adjacency.items():
        near.sort()
        ends += len(near)
        adjacency[nid] = tuple(near)
    return adjacency, ends // 2


def build_topology(positions: dict[int, tuple[float, float]], radio_range_m: float,
                   link_speed_bps: float = 50000.0, link_delay_s: float = 0.0,
                   link_overrides: dict[tuple[int, int], tuple[float, float]] | None = None
                   ) -> Topology:
    """Build the adjacency containing exactly the node pairs within radio range.

    An override of a pair out of range is ignored.
    """
    if not radio_range_m > 0:
        raise DomainError("radio range must be positive")
    isfinite, nodes = math.isfinite, {}
    for nid, (x, y) in positions.items():
        if not (isfinite(x) and isfinite(y)):
            raise DomainError(f"node {nid} has a non-finite position")
        nodes[nid] = (float(x), float(y))
    adjacency, pairs = _neighbors_in_range(nodes, radio_range_m)
    overrides = link_overrides or {}
    own = sorted((a, b) for a, b in overrides if a < b and b in adjacency.get(a, ()))
    # one shared default, built only when some pair takes it, so that an
    # invalid default raises where a record per pair would have raised
    default = Link(link_speed_bps, link_delay_s) if len(own) < pairs else None
    return Topology(nodes, adjacency, {pair: Link(*overrides[pair]) for pair in own}, default)


def validate_path(topology: Topology, sequence: tuple[int, ...] | list[int]) -> PathInfo:
    """Check a node sequence against the topology and return its PathInfo.

    Rejects repeated nodes and non-adjacent consecutive pairs; the raised
    error carries the index of the offending hop.
    """
    seq = tuple(sequence)
    if len(seq) < 2:
        raise InvalidPathError(f"a path needs at least one hop, got {seq}")
    seen: set[int] = set()
    for n in seq:
        if n not in topology.nodes:
            raise InvalidPathError(f"unknown node {n} in path {seq}")
        if n in seen:
            raise InvalidPathError(f"node {n} repeats in path {seq}")
        seen.add(n)
    for i in range(len(seq) - 1):
        if not topology.are_adjacent(seq[i], seq[i + 1]):
            raise InvalidPathError(
                f"nodes {seq[i]} and {seq[i + 1]} are not adjacent (hop {i})",
                hop_index=i)
    return PathInfo(nodes=seq, hops=len(seq) - 1)


def path_tau(topology: Topology, path: PathInfo, packet_size_bits: float) -> float:
    """Mean per-hop latency along a path from its link parameters."""
    total = 0.0
    for a, b in zip(path.nodes, path.nodes[1:]):
        link = topology.link(a, b)
        total += packet_size_bits / link.speed_bps + link.delay_s
    return total / path.hops


__all__ = [
    "ConnectivityError", "DomainError", "InvalidPathError", "Link",
    "NetworkParams", "Packet", "PathInfo", "RoutingError", "ScenarioError",
    "SourceSpec", "Topology", "build_topology", "path_tau", "validate_path",
]
