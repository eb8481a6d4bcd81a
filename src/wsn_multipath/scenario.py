"""Scenario files: the structured-text description of a deployment, its
traffic and the run configuration, plus the seeded random generator for
large deployments.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import asdict, dataclass, field

import yaml

from .model import (
    NetworkParams,
    ScenarioError,
    SourceSpec,
    Topology,
    annotate_source,
    build_topology,
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


@dataclass
class SourceDecl:
    id: int
    packets: int
    paths: list[list[int]] | None = None  # explicit routes; discovered if None


@dataclass
class FaultDecl:
    time_s: float
    node: int | None = None
    link: tuple[int, int] | None = None

    def __post_init__(self):
        if (self.node is None) == (self.link is None):
            raise ScenarioError("a fault names exactly one of node or link")
        if not (math.isfinite(self.time_s) and self.time_s >= 0):
            raise ScenarioError(f"fault time must be finite and >= 0, got {self.time_s!r}")


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
        if self.energy_mode not in ("per_bit", "per_packet"):
            raise ScenarioError(f"unknown energy mode {self.energy_mode!r}")
        for name in ("window", "max_attempts", "queue_packets_per_subqueue"):
            value = getattr(self, name)  # a bool is not an integer here
            if type(value) is not int and not (name == "window" and value is None):
                raise ScenarioError(f"{name} must be an integer, got {value!r}")
        if self.max_attempts < 1:
            raise ScenarioError("max_attempts must be >= 1")
        if self.window is not None and self.window < 1:
            raise ScenarioError("window must be >= 1 or null")
        if self.queue_packets_per_subqueue < 1:
            raise ScenarioError("queue_packets_per_subqueue must be >= 1")
        if self.fault_detection not in ("auto", "on", "off"):
            raise ScenarioError(f"unknown fault detection {self.fault_detection!r}")
        if not 0.0 <= self.loss_prob <= 1.0:
            raise ScenarioError(f"loss_prob must lie in [0, 1], got {self.loss_prob!r}")
        if self.max_events < 1:
            raise ScenarioError("max_events must be >= 1")
        if not self.control_size_bits > 0:
            raise ScenarioError(
                f"control_size_bits must be > 0, got {self.control_size_bits!r}")
        for name in ("tx_power_w", "rx_power_w", "idle_power_w"):
            if not getattr(self, name) >= 0:
                raise ScenarioError(f"{name} must be >= 0, got {getattr(self, name)!r}")
        if not all(t >= 0 for t in self.probe_times):
            raise ScenarioError(f"probe_times must be >= 0, got {self.probe_times!r}")


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
        nodes = []
        redundant = set(self.redundant)
        for nid in sorted(self.positions):
            x, y = self.positions[nid]
            entry = {"id": nid, "x": float(x), "y": float(y)}
            if nid in redundant:
                entry["redundant"] = True
            nodes.append(entry)
        data = {
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
                ({"time": f.time_s, "node": f.node} if f.node is not None
                 else {"time": f.time_s, "link": list(f.link)})
                for f in self.faults
            ],
            "engine": asdict(self.engine),
        }
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        try:
            params = NetworkParams(**data["params"])
            positions = {}
            redundant = []
            for entry in data["nodes"]:
                positions[int(entry["id"])] = (float(entry["x"]), float(entry["y"]))
                if entry.get("redundant"):
                    redundant.append(int(entry["id"]))
            links = data.get("links", {})
            overrides = {}
            for o in links.get("overrides", []) or []:
                key = (min(o["a"], o["b"]), max(o["a"], o["b"]))
                overrides[key] = (float(o["speed_bps"]), float(o["delay_s"]))
            sources = [
                SourceDecl(id=int(s["id"]), packets=int(s["packets"]),
                           paths=[[int(n) for n in p] for p in s["paths"]]
                           if s.get("paths") else None)
                for s in data["sources"]
            ]
            faults = []
            for f in data.get("faults", []) or []:
                if "node" in f:
                    faults.append(FaultDecl(float(f["time"]), node=int(f["node"])))
                else:
                    a, b = f["link"]
                    faults.append(FaultDecl(float(f["time"]), link=(int(a), int(b))))
            engine = RunConfig(**data.get("engine", {}))
            return cls(
                name=str(data.get("name", "scenario")),
                seed=int(data.get("seed", 0)),
                params=params,
                positions=positions,
                sink=int(data["sink"]),
                sources=sources,
                link_speed_bps=float(links.get("speed_bps", 50000.0)),
                link_delay_s=float(links.get("delay_s", 0.0)),
                link_overrides=overrides,
                redundant=tuple(sorted(redundant)),
                faults=faults,
                engine=engine,
            )
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, ScenarioError):
                raise
            raise ScenarioError(f"malformed scenario: {exc}") from exc


def save_scenario(scenario: Scenario, path: str) -> None:
    with open(path, "w") as fh:
        yaml.dump(scenario.to_dict(), fh, Dumper=_Dumper, sort_keys=False)


def load_scenario(path: str) -> Scenario:
    try:
        with open(path) as fh:
            data = yaml.load(fh, Loader=_Loader)
    except FileNotFoundError:
        raise ScenarioError(f"scenario file not found: {path}") from None
    except yaml.YAMLError as exc:
        raise ScenarioError(f"unparseable scenario {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ScenarioError(f"scenario {path} is not a mapping")
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


def _canonical(scenario: Scenario) -> str:
    """The text of `yaml.dump(scenario.to_dict(), sort_keys=True)`.

    Each top-level key is dumped on its own, in sorted order, except the
    node list, whose entries are written here: a block sequence of
    mappings with sorted keys, an int id, `redundant: true` when set and
    two floats. That skips building and resolving a YAML node for every
    entry of a large deployment."""
    data = scenario.to_dict()
    parts = []
    for key in sorted(data):
        value = data[key]
        if key != "nodes" or not value:
            parts.append(yaml.dump({key: value}, Dumper=_Dumper, sort_keys=True))
            continue
        parts.append("nodes:\n")
        for entry in value:
            parts.append(f"- id: {entry['id']}\n")
            if entry.get("redundant"):
                parts.append("  redundant: true\n")
            parts.append(f"  x: {_yaml_float(entry['x'])}\n"
                         f"  y: {_yaml_float(entry['y'])}\n")
    return "".join(parts)


def scenario_hash(scenario: Scenario) -> str:
    """First 16 hex digits of the SHA-256 of the scenario's YAML dump with
    sorted keys."""
    return hashlib.sha256(_canonical(scenario).encode()).hexdigest()[:16]


def build_scenario(scenario: Scenario) -> tuple[Topology, list[SourceSpec]]:
    """Materialize the topology and each source's annotated path set.

    Explicit path lists are validated against the topology; sources without
    one get discovered interior-disjoint paths. Two nodes may not share a
    position: no energy model covers a hop of zero length.
    """
    topo = build_topology(
        scenario.positions,
        scenario.params.radio_range_m,
        link_speed_bps=scenario.link_speed_bps,
        link_delay_s=scenario.link_delay_s,
        link_overrides=scenario.link_overrides,
        sources=tuple(s.id for s in scenario.sources),
        sink=scenario.sink,
    )
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
        spec = SourceSpec(node_id=decl.id, packets=decl.packets, paths=paths)
        spec.check_locally_disjoint()
        annotate_source(topo, spec, scenario.sink, scenario.params)
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
    topo = build_topology(positions, radius_m)
    return scenario, sink in topo.reachable_from(source)


__all__ = [
    "FaultDecl", "RunConfig", "Scenario", "SourceDecl", "build_scenario",
    "generate_random_scenario", "load_scenario", "save_scenario",
    "scenario_hash",
]
