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

    BFS from the sink gives distances-to-sink; the path is then
    reconstructed greedily from the source, always stepping to the
    lowest-id neighbor one level closer. The search ends with the level
    that reaches the source: reconstruction reads only nodes nearer the
    sink, and all of them are known by then. `blocked` nodes are unusable
    as interior nodes; it never holds the source or the sink.
    """
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
