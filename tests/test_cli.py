import csv
import io
import json
import os
import subprocess
import sys

import pytest
import yaml

from wsn_multipath.cli import main
from wsn_multipath.engine import Engine
from wsn_multipath.experiments import configured
from wsn_multipath.model import NetworkParams
from wsn_multipath.scenario import FaultDecl, Scenario, SourceDecl, save_scenario
from wsn_multipath.scenarios import five_path_fan, three_source_mesh, three_source_mesh_sim


@pytest.fixture
def mesh_file(tmp_path):
    path = tmp_path / "mesh.yaml"
    save_scenario(three_source_mesh(), str(path))
    return str(path)


@pytest.fixture
def fan_file(tmp_path):
    path = tmp_path / "fan.yaml"
    save_scenario(five_path_fan(), str(path))
    return str(path)


def test_discover_lists_nine_paths(mesh_file, capsys):
    assert main(["discover", "--scenario", mesh_file]) == 0
    out = capsys.readouterr().out
    rows = [line for line in out.splitlines()[1:] if line.strip()]
    assert len(rows) == 9
    assert "1-7-8-9-6" in out


def test_discover_csv_format(mesh_file, capsys):
    assert main(["discover", "--scenario", mesh_file, "--format", "csv"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("source,path,route,hops,tau_s")
    assert len(out) == 10


def test_discover_disconnected_source(tmp_path, capsys):
    sc = three_source_mesh()
    sc.positions[99] = (500.0, 500.0)
    sc.sources[0].paths = None
    sc.sources = [type(sc.sources[0])(id=99, packets=10, paths=None)]
    path = tmp_path / "island.yaml"
    save_scenario(sc, str(path))
    code = main(["discover", "--scenario", str(path)])
    assert code == 2
    assert "unreachable" in capsys.readouterr().err.lower()


def test_allocate_reproduces_mesh_quotas(mesh_file, capsys):
    assert main(["allocate", "--scenario", mesh_file, "--source", "3",
                 "--packets", "100", "--scheme", "3"]) == 0
    out = capsys.readouterr().out
    quotas = [int(line.split()[5]) for line in out.splitlines()[1:] if line.strip()]
    assert quotas == [45, 35, 20]


def test_allocate_equal_split(mesh_file, capsys):
    assert main(["allocate", "--scenario", mesh_file, "--source", "3",
                 "--packets", "99", "--scheme", "2"]) == 0
    out = capsys.readouterr().out
    quotas = [int(line.split()[5]) for line in out.splitlines()[1:] if line.strip()]
    assert quotas == [33, 33, 33]


def test_allocate_choke_shifts_quotas(tmp_path, capsys):
    # pipelined run with small buffers, probed halfway through the
    # transfer: the sources' own queues sit near capacity, so routes
    # crossing another source get flagged
    sc = three_source_mesh(packets=99)
    sc.engine.window = None
    sc.engine.queue_packets_per_subqueue = 10
    path = tmp_path / "mesh-loaded.yaml"
    save_scenario(sc, str(path))
    assert main(["allocate", "--scenario", str(path), "--source", "10",
                 "--format", "csv"]) == 0
    baseline = capsys.readouterr().out.splitlines()[1:]

    sc.engine.probe_times = [Engine(sc).run().completion_s / 2.0]
    save_scenario(sc, str(path))
    assert main(["allocate", "--scenario", str(path), "--source", "10",
                 "--format", "csv"]) == 0
    probed = capsys.readouterr().out.splitlines()[1:]

    base_quotas = [int(r.split(",")[5]) for r in baseline]
    choke_counts = [int(r.split(",")[4]) for r in probed]
    choke_quotas = [int(r.split(",")[5]) for r in probed]
    assert any(c > 0 for c in choke_counts)
    assert choke_quotas != base_quotas

    # oracle: recompute the discounted allocation directly
    from wsn_multipath.allocator import AllocationInput, PathParams, allocate_multi_source
    from wsn_multipath.scenario import build_scenario, load_scenario
    scenario = load_scenario(str(path))
    _, specs = build_scenario(scenario)
    spec = {s.node_id: s for s in specs}[10]
    expected = allocate_multi_source(AllocationInput(
        params=scenario.params, total_packets=99,
        paths=[PathParams(p.hops, p.tau_s, c)
               for p, c in zip(spec.paths, choke_counts)],
        source_sink_dist_m=spec.source_sink_dist_m)).quotas
    assert choke_quotas == expected


def test_allocate_without_probes_runs_no_engine(mesh_file, monkeypatch, capsys):
    def no_run(self):
        raise AssertionError("allocate ran the engine")
    monkeypatch.setattr(Engine, "run", no_run)
    assert main(["allocate", "--scenario", mesh_file, "--scheme", "3"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 10


def test_allocate_unknown_source_is_usage_error(mesh_file, capsys):
    for fmt in ("text", "csv"):
        assert main(["allocate", "--scenario", mesh_file, "--source", "7",
                     "--format", fmt]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "7 is not a source" in err and "1, 3, 10" in err


# command: (its arguments, the CSV it writes under --out, the flags that
# write files of their own)
OUTPUT_COMMANDS = {
    "discover": ([], "paths.csv", ()),
    "allocate": (["--packets", "10"], "allocation.csv", ()),
    "run": (["--packets", "10"], "metrics.csv", ("--trace", "--plot-data")),
    "experiment": (["--suite", "schemes", "--packets", "10"], "schemes.csv",
                   ("--plot-data",)),
}


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("fmt", ["csv", "text", "json-lines"])
@pytest.mark.parametrize("command", sorted(OUTPUT_COMMANDS))
def test_one_output_rule(command, fmt, fan_file, tmp_path, monkeypatch, capsys):
    extra, csv_name, file_flags = OUTPUT_COMMANDS[command]
    argv = [command, "--scenario", fan_file, *extra]
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)

    # without --out: stdout carries the rows in the chosen format, and
    # nothing is written
    assert main([*argv, "--format", "csv"]) == 0
    csv_out = capsys.readouterr().out
    header, *rows = list(csv.reader(io.StringIO(csv_out)))
    assert rows and all(len(row) == len(header) for row in rows)
    assert main([*argv, "--format", fmt]) == 0
    out = capsys.readouterr().out
    if fmt == "json-lines":
        records = [json.loads(line) for line in out.splitlines()]
        assert [list(r) for r in records] == [sorted(r) for r in records]
        assert len(records) == len(rows)
        assert all(set(r) <= set(header) for r in records)
    elif fmt == "text":
        table, _, checks = out.partition("\n\n")
        assert table.splitlines()[0].split() == header
        assert len(table.splitlines()) == len(rows) + 1
        assert all(line[:6] in ("[PASS]", "[FAIL]") for line in checks.splitlines())
        assert bool(checks) == (command == "experiment")
    else:
        assert out == csv_out
    assert os.listdir(work) == []

    # with --out: nothing printed, and the CSV is the csv format's stdout
    assert main([*argv, "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().out == ""
    assert (tmp_path / "out" / csv_name).read_bytes() == csv_out.encode()

    # --format with --out, and a file-writing flag without --out, are
    # usage errors that write nothing
    assert _exit_code([*argv, "--format", fmt, "--out", str(tmp_path / "both")]) == 1
    assert not (tmp_path / "both").exists()
    for flag in file_flags:
        assert _exit_code([*argv, flag]) == 1
    assert os.listdir(work) == []


def test_run_writes_outputs(fan_file, tmp_path):
    out = tmp_path / "results"
    assert main(["run", "--scenario", fan_file, "--packets", "50",
                 "--out", str(out), "--trace", "--plot-data"]) == 0
    names = sorted(os.listdir(out))
    assert "metrics.csv" in names
    assert "summary.txt" in names
    assert "trace.txt" in names
    assert "allocation_per_path.dat" in names


def test_run_byte_identical_outputs(fan_file, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["run", "--scenario", fan_file, "--packets", "40",
                     "--out", str(out), "--trace"]) == 0
    for name in ("metrics.csv", "summary.txt", "trace.txt"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_run_missing_scenario_no_partial_outputs(tmp_path, capsys):
    out = tmp_path / "results"
    code = main(["run", "--scenario", str(tmp_path / "nope.yaml"),
                 "--out", str(out)])
    assert code == 2
    assert not out.exists()
    assert "scenario" in capsys.readouterr().err.lower()


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["run"])  # missing required --scenario
    assert err.value.code == 1


def test_experiment_schemes_suite(fan_file, tmp_path):
    out = tmp_path / "exp"
    assert main(["experiment", "--scenario", fan_file, "--suite", "schemes",
                 "--packets", "20", "--out", str(out), "--plot-data"]) == 0
    names = sorted(os.listdir(out))
    assert "schemes.csv" in names
    assert "schemes.txt" in names
    assert "delay_vs_scheme_d20.dat" in names
    text = (out / "schemes.txt").read_text()
    assert "[PASS]" in text


def test_experiment_frameworks_suite(mesh_file, tmp_path):
    out = tmp_path / "exp"
    assert main(["experiment", "--scenario", mesh_file, "--suite", "frameworks",
                 "--packets", "30", "--out", str(out)]) == 0
    text = (out / "frameworks.txt").read_text()
    assert "net delay strategic <= equal <= traditional" in text


def test_discover_json_lines(mesh_file, capsys):
    import json
    assert main(["discover", "--scenario", mesh_file,
                 "--format", "json-lines"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert len(lines) == 9
    row = json.loads(lines[0])
    assert {"source", "route", "hops"} <= set(row)


def test_gen_topology_deterministic(tmp_path):
    a, b = tmp_path / "a.yaml", tmp_path / "b.yaml"
    assert main(["gen-topology", "--count", "25", "--area", "100",
                 "--radius", "30", "--seed", "9", "--out", str(a)]) == 0
    assert main(["gen-topology", "--count", "25", "--area", "100",
                 "--radius", "30", "--seed", "9", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_topology_disconnection_warning(tmp_path, capsys):
    # 1000 nodes on 501x501 m at 2.4 m radius: expected degree well below 1
    out = tmp_path / "sparse.yaml"
    assert main(["gen-topology", "--count", "1000", "--area", "501",
                 "--radius", "2.4", "--seed", "1", "--out", str(out)]) == 0
    assert "warning" in capsys.readouterr().err.lower()
    assert out.exists()


def test_gen_topology_tiny_pair_connected(tmp_path, capsys):
    out = tmp_path / "pair.yaml"
    assert main(["gen-topology", "--count", "2", "--area", "10",
                 "--radius", "15", "--seed", "4", "--out", str(out)]) == 0
    assert "warning" not in capsys.readouterr().err.lower()


def test_run_livelock_exit_code(tmp_path, capsys):
    sc = five_path_fan(packets=50)
    sc.engine.max_events = 10
    path = tmp_path / "capped.yaml"
    save_scenario(sc, str(path))
    code = main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")])
    assert code == 3
    assert "simulation error" in capsys.readouterr().err.lower()


def test_run_error_mid_simulation_exit_code(mesh_file, monkeypatch, capsys):
    # a bug inside the event loop is the engine's, not the scenario's
    def broken(self, *args):
        raise KeyError("no such packet")
    monkeypatch.setattr(Engine, "_on_arrival", broken)
    assert main(["run", "--scenario", mesh_file]) == 3
    assert "simulation error" in capsys.readouterr().err.lower()


def test_run_stall_exit_code(tmp_path, monkeypatch, capsys):
    path = tmp_path / "pipelined.yaml"
    save_scenario(configured(three_source_mesh(), packets=1000, window=None), str(path))
    monkeypatch.setattr(Engine, "_slot_freed", lambda self, node_id, key: None)
    assert main(["run", "--scenario", str(path)]) == 3
    err = capsys.readouterr().err
    assert "flow (1, 0) stalled" in err and "sub-queue 2 of node 1" in err


def test_block_that_never_lifts_is_a_stall(tmp_path, monkeypatch, capsys):
    # lossy hops block while their self-check beacons are out; if ending
    # a self-check lifted nothing, flows would strand at quiescence
    path = tmp_path / "lossy.yaml"
    save_scenario(configured(three_source_mesh_sim(), packets=100, window=None,
                             max_attempts=3, loss_prob=0.2, fault_detection="on"),
                  str(path))
    monkeypatch.setattr(Engine, "_end_self_check", lambda self, origin, suspect: None)
    assert main(["run", "--scenario", str(path)]) == 3
    err = capsys.readouterr().err
    assert "stalled" in err and "in flight" in err


def test_fault_on_unknown_node_is_scenario_error(tmp_path, capsys):
    sc = three_source_mesh()
    sc.faults = [FaultDecl(1.0, node=99)]
    path = tmp_path / "bad-fault.yaml"
    save_scenario(sc, str(path))
    assert main(["run", "--scenario", str(path)]) == 2
    assert "scenario error" in capsys.readouterr().err.lower()


@pytest.mark.parametrize("time_s", [-1.0, float("nan")])
def test_fault_time_out_of_range_is_scenario_error(tmp_path, time_s, capsys):
    sc = three_source_mesh(packets=20)
    sc.faults = [FaultDecl(1.0, node=8)]
    path = tmp_path / "fault-time.yaml"
    save_scenario(sc, str(path))
    with open(path) as fh:
        data = yaml.safe_load(fh)
    data["faults"][0]["time"] = time_s
    with open(path, "w") as fh:
        yaml.safe_dump(data, fh)
    assert main(["run", "--scenario", str(path)]) == 2
    err = capsys.readouterr().err.lower()
    assert "scenario error" in err and "fault time" in err


def test_colocated_nodes_are_scenario_error(tmp_path, capsys):
    path = tmp_path / "colocated.yaml"
    save_scenario(Scenario(
        name="colocated", params=NetworkParams(),
        positions={1: (0.0, 0.0), 2: (0.0, 0.0), 3: (20.0, 0.0)}, sink=3,
        sources=[SourceDecl(1, 5, paths=[[1, 2, 3]])]), str(path))
    assert main(["run", "--scenario", str(path)]) == 2
    err = capsys.readouterr().err
    assert "scenario error" in err and "nodes 1 and 2" in err


@pytest.mark.parametrize("field,value", [
    ("queue_packets_per_subqueue", 0), ("queue_packets_per_subqueue", -3),
    ("fault_detection", "maybe"), ("loss_prob", -0.1), ("loss_prob", 1.5),
    ("max_events", 0),
    ("control_size_bits", -64), ("control_size_bits", 0),
    ("tx_power_w", -1e-3), ("rx_power_w", -1e-3), ("idle_power_w", -1e-3),
    ("probe_times", [0.5, -0.1]),
    ("queue_packets_per_subqueue", 1.5), ("queue_packets_per_subqueue", True),
    ("window", 1.5), ("window", True), ("max_attempts", 2.5),
])
def test_out_of_range_run_config_is_scenario_error(mesh_file, field, value, capsys):
    with open(mesh_file) as fh:
        data = yaml.safe_load(fh)
    data["engine"][field] = value
    with open(mesh_file, "w") as fh:
        yaml.safe_dump(data, fh)
    assert main(["run", "--scenario", mesh_file]) == 2
    assert "scenario error" in capsys.readouterr().err.lower()


def test_unparseable_scenario_is_scenario_error(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("name: broken\nnodes: [1, 2\n")
    assert main(["run", "--scenario", str(bad)]) == 2
    assert "scenario error" in capsys.readouterr().err.lower()


@pytest.mark.parametrize("area,radius", [
    ("100", "0"), ("0", "30"), ("-5", "30"), ("nan", "30"), ("inf", "30"),
])
def test_gen_topology_nonpositive_radius_is_scenario_error(tmp_path, area, radius,
                                                          capsys):
    out = tmp_path / "none.yaml"
    assert main(["gen-topology", "--count", "10", "--area", area,
                 "--radius", radius, "--seed", "1", "--out", str(out)]) == 2
    assert "scenario error" in capsys.readouterr().err.lower()
    assert not out.exists()


def test_console_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "wsn_multipath.cli", "--help"],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert "discover" in result.stdout
