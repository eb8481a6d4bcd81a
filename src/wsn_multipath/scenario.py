"""Scenario files: the structured-text description of a deployment, its
traffic and the run configuration, plus the seeded random generator for
large deployments.
"""

from __future__ import annotations

import hashlib
import math
import random
import re
from collections import Counter
from dataclasses import asdict, dataclass, field, replace
from itertools import compress

import yaml

from .model import (
    LINK_TABLE,
    NONNEGATIVE,
    PARAMS_TABLE,
    POSITIVE,
    NetworkParams,
    ScenarioError,
    SourceSpec,
    Table,
    Topology,
    build_topology,
    check,
    path_tau,
    validate_path,
)
from .discovery import discover_paths

# libyaml's parser and emitter when PyYAML was built with it; the pure-Python
# ones otherwise. Both pairs share one representer and one constructor, so
# they read and write the same documents.
try:
    _Loader, _Dumper = yaml.CSafeLoader, yaml.CSafeDumper
except AttributeError:
    _Loader, _Dumper = yaml.SafeLoader, yaml.SafeDumper


# the rules of the scenario file, one table per mapping; `params` and a
# link's speed and delay share theirs with the model
INTEGER = ("an integer", lambda v: type(v) is int)
BOOLEAN = ("true or false", lambda v: type(v) is bool)
FINITE = ("a finite number", lambda v: type(v) in (int, float) and -math.inf < v < math.inf)
LIST = ("a list", lambda v: isinstance(v, list))  # `_ReadNodes` included
MAPPING = ("a mapping", lambda v: type(v) is dict)
AT_LEAST_ONE = ("an integer >= 1", lambda v: type(v) is int and v >= 1)


def _or_null(rule: tuple) -> tuple:
    return (f"{rule[0]} or null", lambda v: v is None or rule[1](v))


_SCENARIO_TABLE = Table({
    "name": ("a string", lambda v: type(v) is str), "seed": INTEGER, "params": MAPPING,
    "nodes": LIST, "links": MAPPING, "sink": INTEGER, "sources": LIST,
    "faults": _or_null(LIST), "engine": MAPPING,
}, requires=("params", "nodes", "sink", "sources"))
_NODE_TABLE = Table({"id": INTEGER, "redundant": BOOLEAN, "x": FINITE, "y": FINITE},
                    requires=("id", "x", "y"))
_LINKS_TABLE = Table({**LINK_TABLE.rules, "overrides": _or_null(LIST)})
_OVERRIDE_TABLE = Table(
    {"a": INTEGER, "b": INTEGER, **LINK_TABLE.rules}, requires=("a", "b", "speed_bps", "delay_s"),
    whole=("an override between two different nodes", lambda o: o["a"] != o["b"]))
_SOURCE_TABLE = Table({
    "id": INTEGER,
    "packets": ("an integer >= 0", lambda v: type(v) is int and v >= 0),
    "paths": _or_null(("a list of node-id lists", lambda v: type(v) is list and all(
        type(p) is list and all(type(n) is int for n in p) for p in v))),
}, requires=("id", "packets"))
_FAULT_TABLE = Table({
    "time": NONNEGATIVE,
    "node": _or_null(INTEGER),
    "link": _or_null(("a pair of node ids", lambda v: type(v) in (list, tuple)
                      and len(v) == 2 and all(type(n) is int for n in v))),
}, requires=("time",), whole=("a fault on exactly one of node or link",
                              lambda f: (f.get("node") is None) != (f.get("link") is None)))
_ENGINE_TABLE = Table({
    "scheme": ("1, 2 or 3", lambda v: type(v) is int and v in (1, 2, 3)),
    "window": _or_null(AT_LEAST_ONE),
    "energy_mode": ("per_bit or per_packet", lambda v: v in ("per_bit", "per_packet")),
    "fault_detection": ("auto, on or off", lambda v: v in ("auto", "on", "off")),
    "loss_prob": ("a number in [0, 1]", lambda v: type(v) in (int, float) and 0 <= v <= 1),
    **dict.fromkeys(("queue_packets_per_subqueue", "max_events", "max_attempts"), AT_LEAST_ONE),
    **dict.fromkeys(("include_idle", "fragmented", "replicate", "record_trace"), BOOLEAN),
    **dict.fromkeys(("tx_power_w", "rx_power_w", "idle_power_w"), NONNEGATIVE),
    "control_size_bits": POSITIVE,
    "probe_times": ("a list of finite numbers >= 0",
                    lambda v: type(v) is list and all(map(NONNEGATIVE[1], v))),
})


@dataclass
class SourceDecl:
    id: int
    packets: int
    paths: list[list[int]] | None = None  # explicit routes; discovered if None


@dataclass
class FaultDecl:
    time: float
    node: int | None = None
    link: tuple[int, int] | None = None

    def __post_init__(self):
        check(vars(self), _FAULT_TABLE, "fault")


@dataclass
class RunConfig:
    scheme: int = 3
    window: int | None = None  # packets in flight per path; None = unlimited
    queue_packets_per_subqueue: int = 50
    energy_mode: str = "per_bit"  # per_bit | per_packet
    tx_power_w: float = 1.024e-3
    rx_power_w: float = 8.192e-4
    idle_power_w: float = 4.096e-4
    include_idle: bool = False
    control_size_bits: float = 64.0
    loss_prob: float = 0.0
    max_events: int = 5_000_000
    fragmented: bool = True   # False: one shared FIFO per node, drop-tail
    replicate: bool = False   # True: full packet count copied onto every path
    max_attempts: int = 10
    fault_detection: str = "auto"  # auto | on | off
    record_trace: bool = False
    probe_times: list[float] = field(default_factory=list)

    def __post_init__(self):
        check(vars(self), _ENGINE_TABLE, "engine")


@dataclass
class Scenario:
    name: str
    params: NetworkParams
    positions: dict[int, tuple[float, float]]
    sink: int
    sources: list[SourceDecl]
    seed: int = 0
    link_speed_bps: float = 50000.0
    link_delay_s: float = 0.0
    link_overrides: dict[tuple[int, int], tuple[float, float]] = field(default_factory=dict)
    redundant: tuple[int, ...] = ()
    faults: list[FaultDecl] = field(default_factory=list)
    engine: RunConfig = field(default_factory=RunConfig)

    def to_dict(self) -> dict:
        redundant = set(self.redundant)
        return self._mapping([{"id": nid, **({"redundant": True} if nid in redundant else {}),
                               "x": float(x), "y": float(y)}
                              for nid, (x, y) in sorted(self.positions.items())])

    def _mapping(self, nodes) -> dict:
        """The mapping `to_dict` returns, with `nodes` for its node list."""
        return {
            "name": self.name,
            "seed": self.seed,
            "params": asdict(self.params),
            "nodes": nodes,
            "links": {
                "speed_bps": self.link_speed_bps,
                "delay_s": self.link_delay_s,
                "overrides": [
                    {"a": a, "b": b, "speed_bps": s, "delay_s": d}
                    for (a, b), (s, d) in sorted(self.link_overrides.items())
                ],
            },
            "sink": self.sink,
            "sources": [
                {"id": s.id, "packets": s.packets,
                 **({"paths": [list(p) for p in s.paths]} if s.paths else {})}
                for s in self.sources
            ],
            "faults": [
                ({"time": f.time, "node": f.node} if f.node is not None
                 else {"time": f.time, "link": list(f.link)})
                for f in self.faults
            ],
            "engine": asdict(self.engine),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        """The scenario `data` describes, once each of its mappings has
        passed its table."""
        check(data, _SCENARIO_TABLE, "")
        links = check(data.get("links", {}), _LINKS_TABLE, "links")
        nodes, overrides = data["nodes"], links.get("overrides") or []
        faults = data.get("faults") or []
        for path, entries, table in [
                ("nodes", [] if type(nodes) is _ReadNodes else nodes, _NODE_TABLE),
                ("links.overrides", overrides, _OVERRIDE_TABLE),
                ("sources", data["sources"], _SOURCE_TABLE), ("faults", faults, _FAULT_TABLE)]:
            for i, entry in enumerate(entries):
                check(entry, table, f"{path}[{i}]")
        if type(nodes) is _ReadNodes:
            ids, positions, spares = nodes, nodes.positions, nodes.spares
        else:
            ids = [n["id"] for n in nodes]
            positions = {n["id"]: (float(n["x"]), float(n["y"])) for n in nodes}
            spares = [n["id"] for n in nodes if n.get("redundant")]
        if len(positions) < len(ids):
            twice = Counter(ids).most_common(1)[0][0]
            raise ScenarioError(f"node id {twice} is declared twice")
        return cls(
            name=data.get("name", "scenario"),
            seed=data.get("seed", 0),
            params=NetworkParams(**check(data["params"], PARAMS_TABLE, "params")),
            positions=positions,
            sink=data["sink"],
            sources=[SourceDecl(**s) for s in data["sources"]],
            link_speed_bps=float(links.get("speed_bps", 50000.0)),
            link_delay_s=float(links.get("delay_s", 0.0)),
            link_overrides={(min(o["a"], o["b"]), max(o["a"], o["b"])):
                            (float(o["speed_bps"]), float(o["delay_s"])) for o in overrides},
            redundant=tuple(sorted(spares)),
            faults=[FaultDecl(float(f["time"]), f.get("node"),
                              None if f.get("link") is None else tuple(f["link"]))
                    for f in faults],
            engine=RunConfig(**check(data.get("engine", {}), _ENGINE_TABLE, "engine")),
        )


def save_scenario(scenario: Scenario, path: str) -> None:
    with open(path, "w") as fh:
        fh.writelines(_pieces(scenario, sort_keys=False))


# The node list as `save_scenario` writes it: a top-level `nodes:` key, then
# one entry per node with a decimal id, `redundant: true` when set and two
# finite floats as YAML's safe representer writes them. The block ends at
# the first line that starts with neither "-" nor a space. `_NODE` captures
# each whole entry, then its id, spare line, x and y.
_NODE_BLOCK = re.compile(r"^nodes:\n((?:[- ].*\n?)*)", re.MULTILINE)
_FLOAT = r"(-?[0-9]+\.[0-9]+(?:e[-+][0-9]+)?)"
_NODE = re.compile(r"(- id: (-?(?:0|[1-9][0-9]*))\n(  redundant: true\n)?"
                   rf"  x: {_FLOAT}\n  y: {_FLOAT}\n)")
_NODES_TAKEN = "wsn-multipath-node-table"


class _ReadNodes(list):
    """The ids of the node entries `_NODE` reads, in file order, which the
    node table accepts, with their `positions` and the ids of the `spares`."""

    def __init__(self, ids: list[int], positions: dict[int, tuple[float, float]],
                 spares: list[int]):
        super().__init__(ids)
        self.positions, self.spares = positions, spares


def _read_node_table(text: str) -> dict | None:
    """The document, parsed with the node list read by `_NODE` and the
    rest by PyYAML; None when the text holds no such node list or the
    rest does not put it at the top-level `nodes` key, where PyYAML
    alone would have put it."""
    block = _NODE_BLOCK.search(text)
    if block is None or _NODES_TAKEN in text:
        return None
    entries = block.group(1)
    # the matches cover the block exactly when, joined, they are the block
    columns = list(zip(*_NODE.findall(entries)))  # entries, ids, spares, xs, ys
    if not columns or "".join(columns[0]) != entries:
        return None
    # a block scalar: a flow collection that holds the key cannot parse it
    rest = f"{text[:block.start()]}nodes: |-\n  {_NODES_TAKEN}\n{text[block.end():]}"
    try:
        data = yaml.load(rest, Loader=_Loader)
    except (yaml.YAMLError, ValueError):  # ValueError: an impossible date
        return None
    if not isinstance(data, dict) or data.get("nodes") != _NODES_TAKEN:
        return None
    # `_NODE` admits only int ids, finite floats and `redundant: true`
    _, ids, spares, xs, ys = columns
    ids = list(map(int, ids))
    data["nodes"] = _ReadNodes(ids, dict(zip(ids, zip(map(float, xs), map(float, ys)))),
                               list(compress(ids, spares)))
    return data


def load_scenario(path: str) -> Scenario:
    """Read a scenario file. The node list, in the form `save_scenario`
    writes it, is read in one pass; anything else goes to PyYAML."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc.strerror or exc}") from None
    data = _read_node_table(text)
    if data is None:
        try:
            data = yaml.load(text, Loader=_Loader)
        except (yaml.YAMLError, ValueError) as exc:  # ValueError: an impossible date
            raise ScenarioError(f"unparseable scenario {path}: {exc}") from exc
    return Scenario.from_dict(data)


def _yaml_float(value: float) -> str:
    """`value` as SafeRepresenter writes a float scalar."""
    if value != value:
        return ".nan"
    if value in (math.inf, -math.inf):
        return ".inf" if value > 0 else "-.inf"
    text = repr(value).lower()
    if "." not in text and "e" in text:
        text = text.replace("e", ".0e", 1)  # 1e+17 is no YAML float; 1.0e+17 is
    return text


# node entries per piece of `_pieces`: a hash digests a few pieces, not
# one per node
_ENTRIES_PER_PIECE = 1000


def _pieces(scenario: Scenario, sort_keys: bool):
    """The text of `yaml.dump(scenario.to_dict(), sort_keys=sort_keys)`, in
    pieces.

    Each top-level key is dumped on its own, in the dump's order, except
    the node list, whose entries are written here straight from the
    positions, `_ENTRIES_PER_PIECE` to a piece: a block sequence of
    mappings with an int id, `redundant: true` when set and two floats, in
    the same order with sorted keys or without. That skips building and
    resolving a YAML node, or a dict, for every entry of a large
    deployment."""
    data = scenario._mapping(nodes=None)
    for key in sorted(data) if sort_keys else data:
        if key != "nodes":
            yield yaml.dump({key: data[key]}, Dumper=_Dumper, sort_keys=sort_keys)
        elif not scenario.positions:
            yield "nodes: []\n"
        else:
            yield "nodes:\n"
            positions, redundant = scenario.positions, set(scenario.redundant)
            ids = sorted(positions)
            for start in range(0, len(ids), _ENTRIES_PER_PIECE):
                yield _node_entries(positions, redundant,
                                    ids[start:start + _ENTRIES_PER_PIECE])


def _node_entries(positions: dict[int, tuple[float, float]], redundant: set[int],
                  ids: list[int]) -> str:
    """The node list's entries of the nodes `ids`, in that order."""
    entries = []
    for nid in ids:
        x, y = positions[nid]
        x, y = float(x), float(y)
        spare = "  redundant: true\n" if nid in redundant else ""
        # in this range `repr` writes no exponent, and is what YAML writes
        if 1e-4 <= abs(x) < 1e16 and 1e-4 <= abs(y) < 1e16:
            entries.append(f"- id: {nid}\n{spare}  x: {x!r}\n  y: {y!r}\n")
        else:
            entries.append(f"- id: {nid}\n{spare}  x: {_yaml_float(x)}\n"
                           f"  y: {_yaml_float(y)}\n")
    return "".join(entries)


def scenario_hash(scenario: Scenario) -> str:
    """First 16 hex digits of the SHA-256 of the scenario's YAML dump with
    sorted keys, fed to the digest piece by piece."""
    digest = hashlib.sha256()
    for piece in _pieces(scenario, sort_keys=True):
        digest.update(piece.encode())
    return digest.hexdigest()[:16]


def build_scenario(scenario: Scenario) -> tuple[Topology, list[SourceSpec]]:
    """Materialize the topology and check the scenario against it, then
    build each source's finished path set.

    The sink, every source and every spare must name a node, no source may
    be the sink or be declared twice, every declared path must run from
    its source to the sink, every link override and every fault must name
    a link of the topology (an override as (low id, high id)), and no two
    nodes may share a position: no energy model covers a hop of zero
    length. Explicit path lists are validated against the topology;
    sources without one get discovered interior-disjoint paths, and a
    source that cannot reach the sink is a ConnectivityError. Each path
    carries its tau and hop distance, each spec its source-sink distance.

    A source's packet count is copied into its spec and read nowhere else,
    and the run config is not read, so one build serves every scenario that
    differs from this one only in those.
    """
    topo = build_topology(
        scenario.positions,
        scenario.params.radio_range_m,
        link_speed_bps=scenario.link_speed_bps,
        link_delay_s=scenario.link_delay_s,
        link_overrides=scenario.link_overrides,
    )
    for role, nid in [("sink", scenario.sink),
                      *(("source", s.id) for s in scenario.sources),
                      *(("spare", n) for n in scenario.redundant)]:
        if nid not in topo.nodes:
            raise ScenarioError(f"{role} {nid} names no node of the deployment")
    for i, decl in enumerate(scenario.sources):
        if decl.id == scenario.sink:
            raise ScenarioError(f"sources[{i}].id names the sink {scenario.sink}")
        if any(s.id == decl.id for s in scenario.sources[:i]):
            raise ScenarioError(f"sources[{i}].id declares source {decl.id} twice")
        for j, path in enumerate(decl.paths or ()):
            if not path or (path[0], path[-1]) != (decl.id, scenario.sink):
                raise ScenarioError(
                    f"sources[{i}].paths[{j}] must run from source {decl.id} "
                    f"to the sink {scenario.sink}, got {list(path)}")
    for i, (a, b) in enumerate(scenario.link_overrides):
        problem = ("pairs a node with itself" if a == b
                   else "names no node of the deployment" if not {a, b} <= topo.nodes.keys()
                   else "names its pair high id first" if a > b
                   else "joins nodes out of radio range" if not topo.are_adjacent(a, b)
                   else None)
        if problem:
            raise ScenarioError(f"links.overrides[{i}]: the override of ({a}, {b}) {problem}")
    for fault in scenario.faults:
        if (fault.node not in topo.nodes if fault.link is None
                else not topo.are_adjacent(*fault.link)):
            raise ScenarioError(
                f"fault at t={fault.time}s names no node or link of the topology")
    if len(set(topo.nodes.values())) < len(topo.nodes):
        first_at: dict[tuple[float, float], int] = {}
        for nid, position in topo.nodes.items():
            other = first_at.setdefault(position, nid)
            if other != nid:
                raise ScenarioError(f"nodes {other} and {nid} share position {position}")
    specs = []
    for decl in scenario.sources:
        if decl.paths:
            paths = [validate_path(topo, p) for p in decl.paths]
        else:
            paths = discover_paths(topo, decl.id, scenario.sink)
        dist = topo.distance(decl.id, scenario.sink)
        spec = SourceSpec(
            node_id=decl.id, packets=decl.packets, source_sink_dist_m=dist,
            paths=[replace(p, tau_s=path_tau(topo, p, scenario.params.packet_size_bits),
                           hop_dist_m=dist / p.hops) for p in paths])
        spec.check_locally_disjoint()
        specs.append(spec)
    return topo, specs


def generate_random_scenario(count: int, area_m: float, radius_m: float,
                             seed: int, packets: int = 100) -> tuple[Scenario, bool]:
    """Seeded uniform deployment over a square area.

    Returns the scenario and whether the chosen source-sink pair is
    connected under the given radius.
    """
    if count < 2:
        raise ScenarioError("need at least a source and a sink")
    if not (math.isfinite(area_m) and area_m > 0):
        raise ScenarioError(f"area must be positive and finite, got {area_m!r}")
    rng = random.Random(seed)
    positions = {i: (rng.uniform(0.0, area_m), rng.uniform(0.0, area_m))
                 for i in range(1, count + 1)}
    centre = (area_m / 2.0, area_m / 2.0)
    sink = min(positions, key=lambda n: (math.dist(positions[n], centre), n))
    source = max((n for n in positions if n != sink),
                 key=lambda n: (math.dist(positions[n], positions[sink]), -n))
    scenario = Scenario(
        name=f"uniform-{count}nodes-seed{seed}",
        seed=seed,
        params=NetworkParams(radio_range_m=float(radius_m)),
        positions=positions,
        sink=sink,
        sources=[SourceDecl(id=source, packets=packets)],
    )
    return scenario, sink in build_topology(positions, radius_m).reachable_from(source)


__all__ = [
    "FaultDecl", "RunConfig", "Scenario", "SourceDecl", "build_scenario",
    "generate_random_scenario", "load_scenario", "save_scenario",
    "scenario_hash",
]
