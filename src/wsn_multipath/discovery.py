"""Route discovery: locally node-disjoint path extraction and choke-packet
contention probing.
"""

from __future__ import annotations

from collections.abc import Sequence

from .model import (
    ConnectivityError,
    DomainError,
    PathInfo,
    Topology,
    validate_path,
)


# a node counts as congested once its queues are more than this full
CHOKE_THRESHOLD = 0.5


def _lex_shortest_path(topology: Topology, source: int, sink: int,
                       blocked: set[int]) -> tuple[int, ...] | None:
    """Hop-count shortest path, lexicographically smallest node sequence.

    A ball grows from each end, one whole level at a time, always the
    one with the smaller frontier (Pohl, "Bi-directional search", 1971).
    The first level that touches the other ball gives the length: before
    it the balls were disjoint, so every touching node lies on a shortest
    path. Walking the source's ball back from the touching nodes gives
    each node on a shortest path its distance to the sink, which the
    sink's ball knows for the rest. The path is then reconstructed
    greedily from the source, always stepping to the lowest-id neighbor
    one level closer to the sink. A ball that empties first is cut off.
    `blocked` nodes are unusable as interior nodes; it never holds the
    source or the sink.
    """
    adjacency = topology.adjacency
    dist, from_source = {sink: 0}, {source: 0}    # hops to the sink, from the source
    # each end: its ball, the other end's ball, what it has seen, its frontier
    ends = [[dist, from_source, blocked | {sink}, [sink]],
            [from_source, dist, blocked | {source}, [source]]]
    while True:
        end = min(ends, key=lambda e: len(e[3]))
        ball, other, seen, frontier = end
        level = ball[frontier[0]] + 1
        nxt = []
        for n in frontier:
            for m in adjacency[n]:
                if m not in seen:
                    seen.add(m)
                    nxt.append(m)
        if not nxt:
            return None
        ball.update(dict.fromkeys(nxt, level))
        end[3] = nxt
        touching = [m for m in nxt if m in other]
        if touching:
            break
    length = dist[touching[0]] + from_source[touching[0]]
    layer = touching
    for hops in range(from_source[touching[0]] - 1, -1, -1):
        layer = {n for m in layer for n in adjacency[m] if from_source.get(n) == hops}
        dist.update(dict.fromkeys(layer, length - hops))
    path = [source]
    current = source
    while current != sink:
        step = min(m for m in adjacency[current]
                   if dist.get(m) == dist[current] - 1)
        path.append(step)
        current = step
    return tuple(path)


def discover_paths(topology: Topology, source: int, sink: int) -> list[PathInfo]:
    """Interior-node-disjoint paths by iterated shortest-path extraction.

    Each round takes the hop-count shortest path (lowest-node-id tie-break)
    and removes its interior nodes before the next round. A route with no
    interior node is the last: it blocks nothing, so later rounds could only
    repeat it. Path count never exceeds the source degree; a source that
    cannot reach the sink is a ConnectivityError.
    """
    if source == sink:
        raise DomainError("source and sink must differ")
    limit = len(topology.neighbors(source))
    blocked: set[int] = set()
    found: list[PathInfo] = []
    while len(found) < limit:
        seq = _lex_shortest_path(topology, source, sink, blocked)
        if seq is None:
            break
        found.append(validate_path(topology, seq))
        if len(seq) == 2:
            break
        blocked.update(seq[1:-1])
    if not found:
        raise ConnectivityError(f"sink {sink} is unreachable from source {source}",
                                source=source)
    return found


def choke_probe(occupancy: dict[int, float], route: Sequence[int]) -> int:
    """Count of nodes along `route`, a node sequence, whose aggregate
    queue occupancy exceeds `CHOKE_THRESHOLD`.

    The probe visits every node after the probing source, sink included:
    one per hop, so the count lies in [0, hops]. `occupancy` maps each
    of those nodes to its fill over capacity.
    """
    return sum(occupancy[node] > CHOKE_THRESHOLD for node in route[1:])


__all__ = ["choke_probe", "discover_paths"]
