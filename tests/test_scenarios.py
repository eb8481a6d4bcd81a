import importlib.util
import math
import sys
from itertools import combinations
from pathlib import Path

import pytest
import yaml

from wsn_multipath import scenario as scenario_module
from wsn_multipath.model import ScenarioError
from wsn_multipath.scenario import (
    FaultDecl,
    Scenario,
    SourceDecl,
    build_scenario,
    generate_random_scenario,
    load_scenario,
    save_scenario,
    scenario_hash,
)
from wsn_multipath.scenarios import (
    BUILTIN,
    five_path_fan,
    three_source_mesh,
    three_source_mesh_sim,
    write_all,
)

SHIPPED = sorted((Path(__file__).resolve().parent.parent / "scenarios").glob("*.yaml"))

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
    assert _edges(three_source_mesh()) == MESH_EDGES


def test_mesh_sim_adjacency_is_exact():
    assert _edges(three_source_mesh_sim()) == MESH_SIM_EDGES


def test_mesh_adjacency_margins():
    # keep a safety margin so float wobble can never flip an edge
    sc = three_source_mesh()
    r = sc.params.radio_range_m
    for a, b in combinations(sorted(sc.positions), 2):
        d = math.dist(sc.positions[a], sc.positions[b])
        assert abs(d - r) > 0.5, (a, b, d)


def test_mesh_declared_paths_validate():
    for builder in (three_source_mesh, three_source_mesh_sim):
        topo, specs = build_scenario(builder())
        assert sum(len(s.paths) for s in specs) == 9
        for spec in specs:
            spec.check_locally_disjoint()


def test_mesh_sim_hop_counts():
    _, specs = build_scenario(three_source_mesh_sim())
    hops = {s.node_id: [p.hops for p in s.paths] for s in specs}
    assert hops == {1: [5, 4, 5], 3: [3, 4, 6], 10: [4, 4, 6]}


def test_mesh_hop_counts():
    _, specs = build_scenario(three_source_mesh())
    hops = {s.node_id: [p.hops for p in s.paths] for s in specs}
    assert hops == {1: [5, 4, 5], 3: [3, 4, 7], 10: [4, 4, 6]}


def test_fan_structure():
    topo, specs = build_scenario(five_path_fan())
    (spec,) = specs
    assert [p.hops for p in spec.paths] == [9, 22, 5, 20, 7]
    spec.check_locally_disjoint()
    assert spec.source_sink_dist_m == pytest.approx(100.0)
    for p in spec.paths:
        assert p.tau_s == pytest.approx(0.02)
        assert p.hop_dist_m <= topo.radio_range_m


def test_scenario_yaml_round_trip(tmp_path):
    sc = three_source_mesh_sim()
    sc.faults = [FaultDecl(1.5, node=8), FaultDecl(2.0, link=(7, 8))]
    sc.link_overrides = {(1, 2): (25000.0, 0.001)}
    path = tmp_path / "mesh.yaml"
    save_scenario(sc, str(path))
    loaded = load_scenario(str(path))
    assert loaded.to_dict() == sc.to_dict()
    assert scenario_hash(loaded) == scenario_hash(sc)


def test_scenario_load_missing_file(tmp_path):
    with pytest.raises(ScenarioError):
        load_scenario(str(tmp_path / "missing.yaml"))


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


def test_write_all_builders(tmp_path):
    written = write_all(str(tmp_path))
    assert len(written) == len(BUILTIN)
    for path in written:
        loaded = load_scenario(path)
        build_scenario(loaded)


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
    documents.append(generate_random_scenario(2000, 760.0, 30.0, seed=11)[0].to_dict())
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
    assert [p.name for p in SHIPPED] == sorted(f"{b}.yaml" for b in BUILTIN)
    for path in SHIPPED:
        native, fallback = load_scenario(str(path)), pure.load_scenario(str(path))
        assert fallback.to_dict() == native.to_dict()
        assert pure.scenario_hash(fallback) == scenario_hash(native)
        copy = tmp_path / path.name
        pure.save_scenario(fallback, str(copy))
        assert copy.read_text() == path.read_text()
