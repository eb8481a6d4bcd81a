import csv
import io
import json
import math
import os
import subprocess
import sys

import pytest
import yaml

from wsn_multipath.cli import main
from wsn_multipath.engine import Engine, run_scenario
from wsn_multipath.experiments import SUITES, configured
from wsn_multipath.model import NetworkParams
from wsn_multipath.scenario import FaultDecl, Scenario, SourceDecl, save_scenario

from conftest import key_path, shipped


@pytest.fixture
def mesh_file(tmp_path):
    path = tmp_path / "mesh.yaml"
    save_scenario(shipped("three-source-mesh"), str(path))
    return str(path)


@pytest.fixture
def fan_file(tmp_path):
    path = tmp_path / "fan.yaml"
    save_scenario(shipped("five-path-fan"), str(path))
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
    sc = shipped("three-source-mesh")
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
    sc = shipped("three-source-mesh", packets=99)
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


def test_allocate_with_probes_builds_once(tmp_path, monkeypatch, capsys):
    # the probed run reuses the deployment allocate built for its rows
    from wsn_multipath import scenario as scenario_module
    sc = shipped("three-source-mesh", packets=30)
    sc.engine.probe_times = [0.5]
    path = tmp_path / "mesh-probed.yaml"
    save_scenario(sc, str(path))
    build_topology, builds = scenario_module.build_topology, []

    def counted(*args, **kwargs):
        builds.append(args)
        return build_topology(*args, **kwargs)

    monkeypatch.setattr(scenario_module, "build_topology", counted)
    assert main(["allocate", "--scenario", str(path), "--format", "csv"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 9
    assert len(builds) == 1


def test_allocate_without_probes_runs_no_engine(mesh_file, monkeypatch, capsys):
    def no_run(self):
        raise AssertionError("allocate ran the engine")
    monkeypatch.setattr(Engine, "run", no_run)
    assert main(["allocate", "--scenario", mesh_file, "--scheme", "3"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 10


@pytest.mark.parametrize("variant", SUITES["frameworks"].variants)
def test_allocate_prints_the_quotas_a_run_sends(variant, tmp_path, capsys):
    # a replicated run sends every packet on every path; a split run sends
    # the scheme's quotas
    scenario = configured(shipped("three-source-mesh-sim"), packets=30,
                          **SUITES["frameworks"].variants[variant])
    path = tmp_path / "scenario.yaml"
    save_scenario(scenario, str(path))
    assert main(["allocate", "--scenario", str(path), "--format", "json-lines"]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert {(r["source"], r["path"]): r["quota"] for r in rows} == {
        key: stats["quota"] for key, stats in run_scenario(scenario).per_path.items()}
    if scenario.engine.replicate:  # no split, so no bound and no budget
        assert all(r["raw_bound"] == r["quota"] == 30 and r["budget_edp_js"] == 0.0
                   and r["exceeds_bound"] is False for r in rows)


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


def test_record_trace_in_the_file_writes_the_trace(tmp_path):
    # `record_trace: true` in the scenario file keeps the trace as --trace does
    shipped_file = os.path.join(os.path.dirname(__file__), "..", "scenarios",
                                "three-source-mesh.yaml")
    with open(shipped_file) as fh:
        text = fh.read()
    assert text.count("record_trace: false") == 1
    traced_file = tmp_path / "traced.yaml"
    traced_file.write_text(text.replace("record_trace: false", "record_trace: true"))
    by_file, by_flag = tmp_path / "file", tmp_path / "flag"
    assert main(["run", "--scenario", str(traced_file), "--out", str(by_file)]) == 0
    assert main(["run", "--scenario", shipped_file, "--trace", "--out", str(by_flag)]) == 0
    trace = (by_flag / "trace.txt").read_bytes()
    assert trace.count(b"\n") > 1000
    assert (by_file / "trace.txt").read_bytes() == trace


def test_run_missing_scenario_no_partial_outputs(tmp_path, capsys):
    out = tmp_path / "results"
    code = main(["run", "--scenario", str(tmp_path / "nope.yaml"),
                 "--out", str(out)])
    assert code == 2
    assert not out.exists()
    assert "scenario" in capsys.readouterr().err.lower()


def test_run_on_a_directory_is_scenario_error(tmp_path, capsys):
    assert main(["run", "--scenario", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "scenario error" in err and str(tmp_path) in err
    assert "Traceback" not in err


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


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_experiment_jobs_below_one_is_usage_error(fan_file, jobs, capsys):
    with pytest.raises(SystemExit) as err:
        main(["experiment", "--scenario", fan_file, "--suite", "schemes",
              "--packets", "10", "--jobs", jobs])
    assert err.value.code == 1
    assert "--jobs must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("volumes", [["20", "20"], ["10", "20", "30", "20"]])
def test_experiment_repeated_volume_is_usage_error(mesh_file, tmp_path, volumes, capsys):
    # a repeated volume would run its cells, rows and checks twice
    with pytest.raises(SystemExit) as err:
        main(["experiment", "--scenario", mesh_file, "--suite", "frameworks",
              "--packets", *volumes, "--out", str(tmp_path / "out")])
    assert err.value.code == 1
    assert "--packets lists 20 more than once" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["experiment", "--suite", "frameworks", "--packets", "-5"],
    ["experiment", "--suite", "schemes", "--packets", "10", "-5"],
    ["run", "--packets", "-5"],
    ["allocate", "--packets", "-5"],
    ["gen-topology", "--count", "10", "--area", "100", "--radius", "30", "--packets", "-5"],
])
def test_negative_packets_is_usage_error(mesh_file, tmp_path, argv, capsys):
    where = ["--out", str(tmp_path / "gen.yaml")] if argv[0] == "gen-topology" else [
        "--scenario", mesh_file]
    with pytest.raises(SystemExit) as err:
        main(argv + where)
    assert err.value.code == 1
    assert "--packets must be >= 0, got -5" in capsys.readouterr().err
    assert not (tmp_path / "gen.yaml").exists()


def test_negative_packets_in_a_file_is_scenario_error(mesh_file, capsys):
    # replicated, the count reached the engine without an allocator's check
    with open(mesh_file) as fh:
        data = yaml.safe_load(fh)
    data["sources"][0]["packets"] = -5
    data["engine"]["replicate"] = True
    with open(mesh_file, "w") as fh:
        yaml.safe_dump(data, fh)
    assert main(["run", "--scenario", mesh_file]) == 2
    assert capsys.readouterr().err == (
        "scenario error: sources[0].packets must be an integer >= 0, got -5\n")


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
    sc = shipped("five-path-fan", packets=50)
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
    save_scenario(configured(shipped("three-source-mesh", packets=1000), window=None),
                  str(path))
    monkeypatch.setattr(Engine, "_slot_freed", lambda self, node_id, key: None)
    assert main(["run", "--scenario", str(path)]) == 3
    err = capsys.readouterr().err
    assert "flow (1, 0) stalled" in err and "sub-queue 2 of node 1" in err


def test_block_that_never_lifts_is_a_stall(tmp_path, monkeypatch, capsys):
    # lossy hops block while their self-check beacons are out; if ending
    # a self-check lifted nothing, flows would strand at quiescence
    path = tmp_path / "lossy.yaml"
    save_scenario(configured(shipped("three-source-mesh-sim"), packets=100, window=None,
                             max_attempts=3, loss_prob=0.2, fault_detection="on"),
                  str(path))
    monkeypatch.setattr(Engine, "_end_self_check", lambda self, origin, suspect: None)
    assert main(["run", "--scenario", str(path)]) == 3
    err = capsys.readouterr().err
    assert "stalled" in err and "in flight" in err


# each names what the deployment lacks, or a source or route that does not
# fit it; a file declares a spare on its node's entry, so no file can name
# a spare without a node
_UNKNOWN_NAMES = {
    "fault-node": ("faults", [{"time": 1.0, "node": 999}],
                   "fault at t=1.0s names no node or link of the topology"),
    "fault-link": ("faults", [{"time": 1.0, "link": [1, 6]}],
                   "fault at t=1.0s names no node or link of the topology"),
    "source": ("sources", [{"id": 999, "packets": 10}],
               "source 999 names no node of the deployment"),
    "sink": ("sink", 999, "sink 999 names no node of the deployment"),
    "override-node": ("links", {"overrides": [
        {"a": 1, "b": 99, "speed_bps": 1000.0, "delay_s": 0.5}]},
        "links.overrides[0]: the override of (1, 99) names no node of the deployment"),
    # node 6 is 100 m from node 1, out of its 30 m radio range
    "override-range": ("links", {"overrides": [
        {"a": 1, "b": 6, "speed_bps": 1000.0, "delay_s": 0.5}]},
        "links.overrides[0]: the override of (1, 6) joins nodes out of radio range"),
    "route-node": ("sources", [{"id": 1, "packets": 10, "paths": [[1, 99, 6]]}],
                   "unknown node 99 in path (1, 99, 6)"),
    # a route that starts elsewhere would inject at its first node; one
    # that stops short would fail in the energy model
    "route-start": ("sources", [{"id": 1, "packets": 10, "paths": [[2, 3, 4, 5, 6]]}],
                    "sources[0].paths[0] must run from source 1 to the sink 6, "
                    "got [2, 3, 4, 5, 6]"),
    "route-end": ("sources", [{"id": 1, "packets": 10, "paths": [[1, 2, 3, 4]]}],
                  "sources[0].paths[0] must run from source 1 to the sink 6, got [1, 2, 3, 4]"),
    "source-is-sink": ("sources", [{"id": 1, "packets": 10}, {"id": 6, "packets": 10}],
                       "sources[1].id names the sink 6"),
}


@pytest.mark.parametrize("command", ["discover", "allocate", "run"])
@pytest.mark.parametrize("case", sorted(_UNKNOWN_NAMES))
def test_unknown_name_is_one_scenario_error(mesh_file, case, command, capsys):
    key, value, message = _UNKNOWN_NAMES[case]
    with open(mesh_file) as fh:
        data = yaml.safe_load(fh)
    data[key] = value
    with open(mesh_file, "w") as fh:
        yaml.safe_dump(data, fh)
    assert main([command, "--scenario", mesh_file]) == 2
    assert capsys.readouterr().err == f"scenario error: {message}\n"


@pytest.mark.parametrize("target, exc", [
    ("wsn_multipath.cli.metrics_rows", KeyError("per_path")),
    ("wsn_multipath.engine.Engine._init_flows", ValueError("no quota")),
], ids=["metrics_rows", "init_flows"])
def test_bug_outside_the_run_is_exit_3_with_its_traceback(mesh_file, target, exc,
                                                         monkeypatch, capsys):
    # only a ScenarioError rejects the scenario; anything else is a bug
    def broken(*args):
        raise exc
    monkeypatch.setattr(target, broken)
    assert main(["run", "--scenario", mesh_file]) == 3
    err = capsys.readouterr().err
    assert "Traceback" in err and "scenario error" not in err
    assert err.endswith(f"error: {type(exc).__name__}: {exc}\n")


# an impossible date makes PyYAML raise ValueError, not YAMLError, with the
# node list in the form `save_scenario` writes or in any other
@pytest.mark.parametrize("text, message", [
    ("seed: 2020-13-45\nnodes: [{id: 1, x: 0.0, y: 0.0}]\n",
     "unparseable scenario {path}: month must be in 1..12"),
    ("seed: 2020-13-45\nnodes:\n- id: 1\n  x: 0.0\n  y: 0.0\n",
     "unparseable scenario {path}: month must be in 1..12"),
    ("- 1\n- 2\n", "a scenario must be a mapping, got [1, 2]"),
], ids=["date", "date-saved-nodes", "list"])
def test_file_that_is_no_scenario_is_scenario_error(tmp_path, text, message, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text(text)
    assert main(["run", "--scenario", str(path)]) == 2
    assert capsys.readouterr().err == f"scenario error: {message.format(path=path)}\n"


@pytest.mark.parametrize("command, out, message", [
    ("run", "taken", "--out {out} names a file, not a directory"),
    ("run", "taken/results", "--out {out} lies under the file {taken}"),
    ("run", "taken/a/b", "--out {out} lies under the file {taken}"),
    ("gen-topology", "results", "--out {out} names a directory, not a file"),
    ("gen-topology", "taken/random.yaml", "--out {out} lies under the file {taken}"),
], ids=["run-file", "run-under-file", "run-two-under-file", "gen-topology-directory",
        "gen-topology-under-file"])
def test_out_that_cannot_be_written_is_usage_error(mesh_file, tmp_path, command, out,
                                                   message, monkeypatch, capsys):
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    (tmp_path / "results").mkdir()
    # reported before any work: nothing is loaded or generated
    for name in ("load_scenario", "generate_random_scenario"):
        monkeypatch.setattr(f"wsn_multipath.cli.{name}",
                            lambda *args, **kwargs: pytest.fail("did work"))
    args = (["--scenario", mesh_file] if command == "run"
            else ["--count", "10", "--area", "50", "--radius", "20"])
    out = str(tmp_path / out)
    assert _exit_code([command, *args, "--out", out]) == 1
    assert capsys.readouterr().err.endswith(
        f"error: {message.format(out=out, taken=taken)}\n")
    assert taken.read_text() == "kept\n"
    assert os.listdir(tmp_path / "results") == []


def test_out_under_missing_directories_is_made(fan_file, tmp_path):
    # the check walks up past every missing directory to one that exists,
    # and the run makes them all
    out = tmp_path / "a" / "b" / "c"
    assert main(["run", "--scenario", fan_file, "--out", str(out)]) == 0
    assert (out / "summary.txt").is_file()


def test_gen_topology_needs_a_source_and_a_sink(tmp_path, capsys):
    out = tmp_path / "one.yaml"
    assert main(["gen-topology", "--count", "1", "--area", "100", "--radius", "30",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == "scenario error: need at least a source and a sink\n"
    assert not out.exists()


@pytest.mark.parametrize("time_s", [-1.0, float("nan")])
def test_fault_time_out_of_range_is_scenario_error(tmp_path, time_s, capsys):
    sc = shipped("three-source-mesh", packets=20)
    sc.faults = [FaultDecl(1.0, node=8)]
    path = tmp_path / "fault-time.yaml"
    save_scenario(sc, str(path))
    with open(path) as fh:
        data = yaml.safe_load(fh)
    data["faults"][0]["time"] = time_s
    with open(path, "w") as fh:
        yaml.safe_dump(data, fh)
    assert main(["run", "--scenario", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"scenario error: faults[0].time must be a finite number >= 0, got {time_s!r}\n")


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
    ("scheme", True), ("scheme", 3.0), ("scheme", 7),
    ("max_events", True), ("max_events", 2.5e6),
    ("tx_power_w", math.inf), ("rx_power_w", math.inf), ("idle_power_w", math.inf),
    ("control_size_bits", math.inf), ("probe_times", [0.5, math.inf]),
    ("fragmented", "no"), ("replicate", "no"), ("include_idle", 1),
    ("record_trace", "yes"), ("loss_prob", True),
    # a tuple is a key's path from the top of the file; an unknown key at
    # each level of the file, then inputs that each used to run to the end
    *((where, True) for where in [
        ("fault",), ("params", "packet_size"), ("nodes", 0, "redundnt"), ("links", "speed"),
        ("links", "overrides", 0, "delay"), ("sources", 0, "path"), ("faults", 0, "nod"),
        ("engine", "windw"),
        ("params", "packet_size_bits"), ("links", "speed_bps"), ("faults", 0, "time")]),
    (("nodes", 0, "redundant"), "no"), (("nodes", 0, "x"), "3"), (("name",), 5),
    (("sources", 1, "id"), 1),
    (("links", "overrides", 0), {"a": 2, "b": 2, "delay_s": 0.0, "speed_bps": 1e6}),
])
def test_out_of_range_run_config_is_scenario_error(mesh_file, field, value, capsys):
    where = ("engine", field) if type(field) is str else field
    with open(mesh_file) as fh:
        data = yaml.safe_load(fh)
    data["faults"] = [{"time": 1.0, "node": 8}]
    data["links"]["overrides"] = [{"a": 1, "b": 2, "speed_bps": 1e6, "delay_s": 0.0}]
    *parents, last = where
    target = data
    for key in parents:
        target = target[key]
    target[last] = value
    with open(mesh_file, "w") as fh:
        yaml.safe_dump(data, fh)
    assert main(["run", "--scenario", mesh_file]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"scenario error: {key_path(where)} ")
    assert (" is an unknown key; " in err or err.endswith(f", got {value!r}\n")
            or err.endswith(" declares source 1 twice\n"))


# with scheme 2 the quotas need no path latency, so nothing but the link
# check stands between a non-finite link value and a finished run
@pytest.mark.parametrize("links", [
    None, [1], {"speed_bps": math.nan}, {"delay_s": math.nan}, {"delay_s": math.inf},
])
def test_malformed_links_are_scenario_error(mesh_file, links, capsys):
    with open(mesh_file) as fh:
        data = yaml.safe_load(fh)
    data["links"] = links
    data["engine"]["scheme"] = 2
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


def test_cli_import_leaves_the_process_pool_out():
    # only `--jobs` above 1 starts a pool; a serial process never loads
    # `multiprocessing`
    result = subprocess.run(
        [sys.executable, "-c", "import sys, wsn_multipath.cli; "
         "print(sorted(m for m in sys.modules if m.startswith(('multiprocessing', "
         "'concurrent.futures.process'))))"],
        capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"
