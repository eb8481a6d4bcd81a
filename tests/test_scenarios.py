import dataclasses
import hashlib
import importlib.util
import math
import sys
import tempfile
from itertools import combinations
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

from wsn_multipath import scenario as scenario_module
from wsn_multipath.model import ScenarioError
from wsn_multipath.scenario import (
    FaultDecl,
    RunConfig,
    Scenario,
    SourceDecl,
    build_scenario,
    generate_random_scenario,
    load_scenario,
    save_scenario,
    scenario_hash,
)

from conftest import SCENARIOS, key_path, shipped, small_params

SHIPPED = sorted(SCENARIOS.glob("*.yaml"))

# scenario_hash values recorded before the hash wrote the node list itself;
# they must never move
SCENARIO_HASHES = {
    "five-path-fan": "9ab2c655d84cf121",
    "three-source-mesh": "678bfe961dfcaba5",
    "three-source-mesh-sim": "ddc2509525769de6",
    "uniform-2000-seed11": "37cea3b902bbc605",
}


def _uniform_2000():
    return generate_random_scenario(2000, 760.0, 30.0, seed=11)[0]

MESH_EDGES = {
    (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 7), (7, 8), (8, 9), (6, 9),
    (1, 10), (10, 11), (11, 12), (12, 13), (6, 13), (3, 7), (7, 10), (5, 9),
    (9, 11), (2, 7), (8, 10), (8, 11),
}
MESH_SIM_EDGES = MESH_EDGES | {(2, 10), (7, 11)}


def _edges(scenario):
    pos = scenario.positions
    r = scenario.params.radio_range_m
    return {(a, b) for a, b in combinations(sorted(pos), 2)
            if math.dist(pos[a], pos[b]) <= r}


def test_mesh_adjacency_is_exact():
    assert _edges(shipped("three-source-mesh")) == MESH_EDGES


def test_mesh_sim_adjacency_is_exact():
    assert _edges(shipped("three-source-mesh-sim")) == MESH_SIM_EDGES


def test_mesh_adjacency_margins():
    # keep a safety margin so float wobble can never flip an edge
    sc = shipped("three-source-mesh")
    r = sc.params.radio_range_m
    for a, b in combinations(sorted(sc.positions), 2):
        d = math.dist(sc.positions[a], sc.positions[b])
        assert abs(d - r) > 0.5, (a, b, d)


def test_mesh_declared_paths_validate():
    for name in ("three-source-mesh", "three-source-mesh-sim"):
        topo, specs = build_scenario(shipped(name))
        assert sum(len(s.paths) for s in specs) == 9
        for spec in specs:
            spec.check_locally_disjoint()


def test_mesh_sim_hop_counts():
    _, specs = build_scenario(shipped("three-source-mesh-sim"))
    hops = {s.node_id: [p.hops for p in s.paths] for s in specs}
    assert hops == {1: [5, 4, 5], 3: [3, 4, 6], 10: [4, 4, 6]}


def test_mesh_hop_counts():
    _, specs = build_scenario(shipped("three-source-mesh"))
    hops = {s.node_id: [p.hops for p in s.paths] for s in specs}
    assert hops == {1: [5, 4, 5], 3: [3, 4, 7], 10: [4, 4, 6]}


def test_fan_structure():
    fan = shipped("five-path-fan")
    _topo, specs = build_scenario(fan)
    (spec,) = specs
    assert [p.hops for p in spec.paths] == [9, 22, 5, 20, 7]
    spec.check_locally_disjoint()
    assert spec.source_sink_dist_m == pytest.approx(100.0)
    for p in spec.paths:
        assert p.tau_s == pytest.approx(0.02)
        assert p.hop_dist_m <= fan.params.radio_range_m


def test_scenario_yaml_round_trip(tmp_path):
    sc = shipped("three-source-mesh-sim")
    sc.faults = [FaultDecl(1.5, node=8), FaultDecl(2.0, link=(7, 8))]
    sc.link_overrides = {(1, 2): (25000.0, 0.001)}
    path = tmp_path / "mesh.yaml"
    save_scenario(sc, str(path))
    loaded = load_scenario(str(path))
    assert loaded.to_dict() == sc.to_dict()
    assert scenario_hash(loaded) == scenario_hash(sc)


@pytest.mark.parametrize("pair, problem", [
    ((1, 99), "names no node of the deployment"),
    ((1, 6), "joins nodes out of radio range"),
    ((2, 2), "pairs a node with itself"),
    ((7, 1), "names its pair high id first"),
])
def test_link_override_off_the_topology_is_scenario_error(pair, problem):
    # a file cannot hold the last two, but a scenario built in code can
    sc = shipped("three-source-mesh")
    sc.link_overrides = {(1, 2): (25000.0, 0.001), pair: (1000.0, 0.5)}
    with pytest.raises(ScenarioError) as caught:
        build_scenario(sc)
    assert str(caught.value) == f"links.overrides[1]: the override of {pair} {problem}"


def test_scenario_load_missing_file(tmp_path):
    with pytest.raises(ScenarioError):
        load_scenario(str(tmp_path / "missing.yaml"))


def test_scenario_load_directory_names_the_path(tmp_path):
    with pytest.raises(ScenarioError, match=f"cannot read scenario {tmp_path}"):
        load_scenario(str(tmp_path))


def test_scenario_malformed(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("nodes: [1, 2, 3]\n")
    with pytest.raises(ScenarioError):
        load_scenario(str(bad))


def test_fault_decl_requires_exactly_one_target():
    with pytest.raises(ScenarioError):
        FaultDecl(1.0)
    with pytest.raises(ScenarioError):
        FaultDecl(1.0, node=1, link=(1, 2))


def test_generate_random_scenario_deterministic():
    a, _ = generate_random_scenario(30, 200.0, 60.0, seed=5)
    b, _ = generate_random_scenario(30, 200.0, 60.0, seed=5)
    assert a.to_dict() == b.to_dict()
    c, _ = generate_random_scenario(30, 200.0, 60.0, seed=6)
    assert c.to_dict() != a.to_dict()


def test_generate_random_scenario_connectivity_flag():
    _, connected = generate_random_scenario(40, 100.0, 60.0, seed=3)
    assert connected
    _, sparse = generate_random_scenario(40, 500.0, 2.4, seed=3)
    assert not sparse


@pytest.mark.skipif(not hasattr(yaml, "CSafeDumper"), reason="PyYAML without libyaml")
@pytest.mark.parametrize("sort_keys", [True, False])
def test_libyaml_dump_equals_pure_python_dump(sort_keys):
    # scenario_hash digests this text and save_scenario writes it, so the
    # hashes and files must not depend on whether libyaml is installed
    documents = [load_scenario(str(p)).to_dict() for p in SHIPPED]
    documents.append(_uniform_2000().to_dict())
    for doc in documents:
        assert (yaml.dump(doc, Dumper=yaml.CSafeDumper, sort_keys=sort_keys)
                == yaml.safe_dump(doc, sort_keys=sort_keys))


def test_pure_python_yaml_fallback(monkeypatch, tmp_path):
    monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    monkeypatch.delattr(yaml, "CSafeDumper", raising=False)
    name = "wsn_multipath._scenario_without_libyaml"
    spec = importlib.util.spec_from_file_location(name, scenario_module.__file__)
    pure = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, pure)
    spec.loader.exec_module(pure)
    assert (pure._Loader, pure._Dumper) == (yaml.SafeLoader, yaml.SafeDumper)
    assert [p.name for p in SHIPPED] == ["five-path-fan.yaml", "three-source-mesh-sim.yaml",
                                         "three-source-mesh.yaml"]
    for path in SHIPPED:
        native, fallback = load_scenario(str(path)), pure.load_scenario(str(path))
        assert fallback.to_dict() == native.to_dict()
        assert pure.scenario_hash(fallback) == scenario_hash(native)
        copy = tmp_path / path.name
        pure.save_scenario(fallback, str(copy))
        assert copy.read_text() == path.read_text()
    generated = _uniform_2000()
    assert (pure.scenario_hash(generated) == scenario_hash(generated)
            == SCENARIO_HASHES["uniform-2000-seed11"])
    native_copy, pure_copy = tmp_path / "native.yaml", tmp_path / "pure.yaml"
    save_scenario(generated, str(native_copy))
    pure.save_scenario(generated, str(pure_copy))
    assert pure_copy.read_text() == native_copy.read_text()
    assert pure.load_scenario(str(pure_copy)).to_dict() == generated.to_dict()


def test_scenario_hashes_are_pinned():
    got = {path.stem: scenario_hash(load_scenario(str(path))) for path in SHIPPED}
    got["uniform-2000-seed11"] = scenario_hash(_uniform_2000())
    assert got == SCENARIO_HASHES


# floats SafeRepresenter writes in every form: exponents that need a ".0",
# negative zero, subnormals, the extremes and the non-finite values
_COORDS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 0.1, 1e16, 1e17, -1e17, 1e-5, 5e-324, -2.5e-300,
                     1.7976931348623157e308, math.inf, -math.inf, math.nan,
                     # either side of each end of the range `repr` writes
                     # without an exponent
                     1e-4, -1e-4, 9.999999999999999e-05, 9999999999999998.0,
                     -9999999999999998.0]),
)
_NAMES = st.one_of(
    st.text(max_size=30),
    st.sampled_from(["", "yes", "No", "null", "~", "1.0", "0x1f", "1e3", ".inf",
                     "2001-12-14", "- item", "a: b", "#c", "'q'", '"q"', " lead",
                     "trail ", "two\nlines", "@at", "*star", "&amp", "!bang",
                     "%pct", "{}", "[x]", "x" * 100]),
)
_IDS = st.integers(min_value=-10**12, max_value=10**12)


@st.composite
def _scenarios(draw):
    ids = draw(st.lists(_IDS, unique=True, max_size=12))
    positions = {nid: (draw(_COORDS), draw(_COORDS)) for nid in ids}
    redundant = draw(st.sets(st.sampled_from(ids)) if ids else st.just(set()))
    redundant |= draw(st.sets(_IDS, max_size=2))  # spares the deployment lacks
    paths = st.lists(st.lists(_IDS, min_size=1, max_size=5), max_size=3)
    sources = [SourceDecl(draw(_IDS), draw(st.integers(0, 10**6)), draw(paths) or None)
               for _ in range(draw(st.integers(0, 3)))]
    times = st.floats(min_value=0.0, allow_infinity=False)
    faults = [FaultDecl(draw(times), node=draw(_IDS)) if draw(st.booleans())
              else FaultDecl(draw(times), link=(draw(_IDS), draw(_IDS)))
              for _ in range(draw(st.integers(0, 3)))]
    overrides = draw(st.dictionaries(st.tuples(_IDS, _IDS), st.tuples(_COORDS, _COORDS),
                                     max_size=3))
    return Scenario(
        name=draw(_NAMES),
        params=small_params(radio_range_m=draw(st.floats(1.0, 100.0))),
        positions=positions,
        sink=draw(_IDS),
        sources=sources,
        seed=draw(_IDS),
        link_speed_bps=draw(_COORDS),
        link_delay_s=draw(_COORDS),
        link_overrides=overrides,
        redundant=tuple(sorted(redundant)),
        faults=faults,
        engine=RunConfig(probe_times=draw(st.lists(
            st.floats(min_value=0.0, allow_infinity=False), max_size=4))),
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(scenario=_scenarios())
@example(scenario=Scenario(name="empty", params=small_params(), positions={}, sink=1,
                           sources=[]))
def test_text_is_the_yaml_dump(scenario):
    # save_scenario and scenario_hash write the node list themselves; the
    # YAML dumps they replaced stay the reference, byte for byte
    for sort_keys in (False, True):  # the hash digests the sorted one
        reference = yaml.dump(scenario.to_dict(), Dumper=scenario_module._Dumper,
                              sort_keys=sort_keys)
        assert "".join(scenario_module._pieces(scenario, sort_keys)) == reference
    assert scenario_hash(scenario) == hashlib.sha256(reference.encode()).hexdigest()[:16]


@pytest.mark.parametrize("positions, redundant", [
    # floats SafeRepresenter writes with an added ".0", in exponent form or
    # signed, at negative coordinates
    ({1: (1e17, -1e-05), 2: (-0.0, -250.5), 3: (-1e17, 1e-05)}, ()),
    ({4: (0.0, 0.0), 2: (3.5, -4.0), 7: (1e-300, 12.0)}, (2, 7)),  # spares
    ({}, ()),                                                      # no nodes
])
def test_streamed_hash_is_the_hash_of_the_dump(positions, redundant):
    scenario = Scenario(name="streamed", params=small_params(), positions=positions,
                        sink=1, sources=[SourceDecl(4, 10)], redundant=redundant)
    dump = yaml.dump(scenario.to_dict(), sort_keys=True)
    assert scenario_hash(scenario) == hashlib.sha256(dump.encode()).hexdigest()[:16]


def _load_outcome(text: str, reader) -> str:
    """The repr of the Scenario `reader` makes of `text`, or "error"."""
    try:
        return repr(reader(text))
    except (ScenarioError, yaml.YAMLError):
        return "error"


def _pyyaml_alone(text: str) -> Scenario:
    data = yaml.load(text, Loader=scenario_module._Loader)
    if not isinstance(data, dict):
        raise ScenarioError("not a mapping")
    return Scenario.from_dict(data)


def _through_file(text: str) -> Scenario:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.yaml"
        path.write_text(text, newline="")
        return load_scenario(str(path))


def _saved_text(scenario: Scenario) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.yaml"
        save_scenario(scenario, str(path))
        return path.read_text()


# a saved scenario with a spare, negative zero and an exponent, and the
# hand-edited forms of its node list that only PyYAML may read
_SAVED = _saved_text(Scenario(
    name="edited", params=small_params(), sink=3, sources=[SourceDecl(1, 5)],
    positions={1: (0.0, -0.0), 2: (10.0, 1e-300), 3: (20.5, 3.0)}, redundant=(2,)))
_ENTRY_1 = "- id: 1\n  x: 0.0\n  y: -0.0\n"
_HAND_EDITED = {
    "comment": _SAVED.replace(_ENTRY_1, _ENTRY_1 + "# the source\n"),
    "crlf": _SAVED.replace("\n", "\r\n"),
    "reordered": _SAVED.replace(_ENTRY_1, "- id: 1\n  y: -0.0\n  x: 0.0\n"),
    # a spare's entry in the key order that older saved files have
    "spare-last": _SAVED.replace("  redundant: true\n  x: 10.0\n  y: 1.0e-300\n",
                                 "  x: 10.0\n  y: 1.0e-300\n  redundant: true\n"),
    "flow": _SAVED.replace(_ENTRY_1, "- {id: 1, x: 0.0, y: -0.0}\n"),
    "quoted-id": _SAVED.replace("- id: 1\n", "- id: '1'\n"),
    "octal-id": _SAVED.replace("- id: 1\n", "- id: 010\n"),
    "underscore": _SAVED.replace("  x: 20.5\n", "  x: 1_0.5\n"),
    "second-nodes": _SAVED + "nodes:\n- id: 7\n  x: 1.0\n  y: 2.0\n",
    "quoted-name": _SAVED.replace("name: edited\n",
                                  'name: "a\nnodes:\n- id: 9\n  x: 1.0\n  y: 2.0\n"\n'),
    "alias": _SAVED.replace(_ENTRY_1, "- id: 1\n  x: &zero 0.0\n  y: *zero\n"),
    # no entry: PyYAML reads `nodes:` as null
    "empty": _SAVED[:_SAVED.index("- id: 1")] + _SAVED[_SAVED.index("links:"):],
    "flow-root": "{name: a,\nnodes:\n- id: 1\n  x: 1.0\n  y: 1.0\n,sink: 1}\n",
    "placeholder": f"{_SAVED}nodes: {scenario_module._NODES_TAKEN}\n",
}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(scenario=_scenarios())
@example(scenario=Scenario(name="spares", params=small_params(), sink=2,
                           sources=[SourceDecl(1, 3)], redundant=(2, 3),
                           positions={1: (-0.0, 5e-324), 2: (1.7976931348623157e308, -1e17),
                                      3: (0.1, -2.5e-300)}))
def test_node_table_reader_equals_pyyaml(scenario):
    text = _saved_text(scenario)
    assert _load_outcome(text, _through_file) == _load_outcome(text, _pyyaml_alone)
    # the writer's node list is always read in one pass; a non-finite
    # coordinate has a form only PyYAML reads
    fast = bool(scenario.positions) and all(
        math.isfinite(v) for xy in scenario.positions.values() for v in xy)
    assert (scenario_module._read_node_table(text) is not None) == fast


@pytest.mark.parametrize("edit", sorted(_HAND_EDITED))
def test_hand_edited_node_lists_fall_back_to_pyyaml(edit):
    text = _HAND_EDITED[edit]
    assert scenario_module._read_node_table(text) is None
    assert _load_outcome(text, _through_file) == _load_outcome(text, _pyyaml_alone)


def test_saved_node_list_never_reaches_pyyaml(tmp_path, monkeypatch):
    # if the writer and the one-pass reader drift apart, every load would
    # silently fall back to PyYAML; this pins that the fast path is taken
    generated = dataclasses.replace(_uniform_2000(), redundant=tuple(range(3, 2001, 7)))
    path = tmp_path / "uniform.yaml"
    save_scenario(generated, str(path))
    texts = []
    load = yaml.load

    def recording_load(stream, Loader):
        texts.append(stream)
        return load(stream, Loader=Loader)

    monkeypatch.setattr(yaml, "load", recording_load)
    loaded = load_scenario(str(path))
    assert loaded.to_dict() == generated.to_dict()
    [rest] = texts
    assert "\n  x: " not in rest and len(rest) < 2000


@pytest.mark.parametrize("reader", [_through_file, _pyyaml_alone], ids=["one-pass", "pyyaml"])
def test_duplicate_node_id_is_scenario_error(reader):
    text = (SCENARIOS / "three-source-mesh.yaml").read_text().replace(
        "- id: 2\n  x: 10.0\n", "- id: 1\n  x: 10.0\n")
    assert scenario_module._read_node_table(text) is not None  # the file takes the one pass
    with pytest.raises(ScenarioError, match="node id 1 is declared twice"):
        reader(text)


@pytest.mark.parametrize("where,value", [
    (("nodes", 1, "id"), 2.7), (("nodes", 1, "id"), True), (("sources", 0, "packets"), 2.5),
    (("sink",), 6.0), (("seed",), True), (("sources", 0, "id"), 1.0),
    (("sources", 0, "paths", 0, 1), 2.5), (("faults", 0, "node"), 8.0),
    (("faults", 1, "link", 0), True), (("links", "overrides", 0, "b"), 2.0),
    (("links", "overrides", 0, "a"), True), (("sink",), "6"), (("faults", 0, "node"), "8"),
    (("nodes", 1, "id"), None),
])
def test_every_id_and_count_is_an_integer(where, value):
    sc = shipped("three-source-mesh")
    sc.faults = [FaultDecl(1.5, node=8), FaultDecl(2.0, link=(7, 8))]
    sc.link_overrides = {(1, 2): (25000.0, 0.001)}
    data = sc.to_dict()
    *parents, last = where
    target = data
    for key in parents:
        target = target[key]
    target[last] = value
    while type(where[-1]) is int:  # a route or a fault's link is judged whole
        where = where[:-1]
    named = data
    for key in where:
        named = named[key]
    with pytest.raises(ScenarioError) as err:
        Scenario.from_dict(data)
    message = str(err.value)
    assert message.startswith(f"{key_path(where)} must be ")
    assert message.endswith(f", got {named!r}")


def test_spare_that_names_no_node_is_scenario_error():
    # a file declares a spare on its node's entry; only a built scenario
    # can name a spare the deployment lacks
    sc = dataclasses.replace(shipped("three-source-mesh"), redundant=(999,))
    with pytest.raises(ScenarioError, match="spare 999 names no node of the deployment"):
        build_scenario(sc)


def test_shared_position_is_scenario_error():
    # no energy model covers a hop of zero length; of three nodes at one
    # spot, the first two in node order are named
    sc = Scenario(name="stacked", params=small_params(), sink=9, sources=[SourceDecl(4, 5)],
                  positions={4: (1.5, 2.0), 9: (0.0, 0.0), 2: (1.5, 2.0), 7: (1.5, 2.0)})
    with pytest.raises(ScenarioError, match=r"^nodes 4 and 2 share position \(1\.5, 2\.0\)$"):
        build_scenario(sc)


def test_readme_example_passes_the_tables():
    # the README's example names every key a scenario file may hold, so a
    # key the tables lack, or a rule they break, fails here
    readme = (SCENARIOS.parent / "README.md").read_text()
    example = readme.split("```yaml\n", 1)[1].split("```", 1)[0]
    data = yaml.safe_load(example)
    assert set(data["engine"]) == set(vars(RunConfig()))
    assert set(data["params"]) == set(vars(small_params()))
    scenario = Scenario.from_dict(data)
    assert (scenario.name, scenario.sink, scenario.redundant) == ("example", 6, (2,))
    assert scenario.engine.window == 1 and scenario.link_overrides == {(1, 2): (25000.0, 0.001)}
    assert [(f.time, f.node, f.link) for f in scenario.faults] == [(1.5, 4, None),
                                                                  (2.0, None, (7, 8))]
