import concurrent.futures
import math

import pytest

from wsn_multipath import engine as engine_module
from wsn_multipath import experiments
from wsn_multipath import scenario as scenario_module
from wsn_multipath.experiments import (
    SUITES,
    configured,
    metrics_rows,
    path_plots,
    run_suite,
    write_rows_csv,
)
from wsn_multipath.engine import run_scenario

from conftest import fingerprint, shipped

# every suite on each shipped scenario that runs in simulation
SUITE_CASES = [(suite, name) for suite in SUITES
               for name in ("five-path-fan", "three-source-mesh-sim")]


def test_configured_overrides_do_not_touch_original(fan):
    tweaked = configured(fan, packets=7, scheme=1)
    assert tweaked.sources[0].packets == 7
    assert tweaked.engine.scheme == 1
    assert fan.sources[0].packets == 100
    assert fan.engine.scheme == 3


def test_scheme_comparison_small(fan):
    report = run_suite("schemes", fan, [30])
    assert all(ok for _, ok in report.checks), report.checks
    schemes = {r["scheme"] for r in report.rows}
    assert schemes == {1, 2, 3}
    # five per-path rows per scheme
    assert len(report.rows) == 15


def test_scheme_comparison_zero_traffic_collapses(fan):
    report = run_suite("schemes", fan, [0])
    delays = {r["scheme"]: r["net_delay_s"] for r in report.rows}
    energies = {r["scheme"]: r["net_energy_j"] for r in report.rows}
    assert set(delays.values()) == {0.0}
    assert len(set(energies.values())) == 1  # sensing-only, identical


def test_framework_report_shape(mesh_sim):
    report = run_suite("frameworks", configured(mesh_sim), [60])
    frameworks = {r["framework"] for r in report.rows}
    assert frameworks == {"traditional", "equal", "strategic"}
    assert len(report.rows) == 9  # 3 frameworks x 3 sources x 1 volume
    trad = [r for r in report.rows if r["framework"] == "traditional"]
    for row in trad:
        assert row["injected"] == 3 * 60  # full copy per path
        assert row["duplicates"] >= 0


def test_framework_traditional_counts_duplicates(mesh_sim):
    # at window 1 nothing drops, so each source's 30 sequence numbers land
    # once on each of its 3 paths: the run's two extra copies of each of
    # the 90 numbers are 180 duplicates, a run total that every row
    # carries. The split frameworks send each number once.
    report = run_suite("frameworks", configured(mesh_sim), [30])
    duplicates = {(r["framework"], r["source"]): r["duplicates"] for r in report.rows}
    assert duplicates == {(f, src): 180 if f == "traditional" else 0
                          for f in ("traditional", "equal", "strategic")
                          for src in (1, 3, 10)}


@pytest.mark.parametrize("window,source_1,path_1_2", [
    (None, 86.06000000000002, 125.07999999999225),
    (1, 179.94000000001824, 249.48000000005382),
])
def test_replicated_completion_is_the_first_copy_of_the_last_number(
        mesh_sim, window, source_1, path_1_2):
    # a source completes when the first copy of its last sequence number
    # lands; copies still in flight on slower paths do not move it
    metrics = run_scenario(configured(mesh_sim, packets=2000, window=window,
                                      replicate=True, fragmented=False))
    latest = {}
    for (src, _idx), stats in metrics.per_path.items():
        latest[src] = max(latest.get(src, 0.0), stats["sim_delay_s"])
    assert all(metrics.per_source_completion_s[src] <= latest[src] for src in latest)
    assert metrics.per_source_completion_s[1] == source_1
    assert metrics.per_path[(1, 2)]["sim_delay_s"] == path_1_2 == latest[1]


@pytest.mark.parametrize("suite,name", SUITE_CASES)
def test_report_determinism(suite, name):
    # rows, checks and plot files alike
    assert run_suite(suite, shipped(name), [40]) == run_suite(suite, shipped(name), [40])


@pytest.mark.parametrize("suite,name", SUITE_CASES)
def test_parallel_jobs_match_serial(suite, name):
    serial = run_suite(suite, shipped(name), [20, 40], jobs=1)
    assert run_suite(suite, shipped(name), [20, 40], jobs=2) == serial


def test_pool_starts_no_more_workers_than_the_suite_has_cells(mesh_sim, monkeypatch):
    # a process pool starts all of its workers at its first task; a
    # stand-in runs the cells in this process and records the pool's size
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers, initializer, initargs):
            sizes.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, cells):
            return map(fn, cells)

    serial = run_suite("frameworks", mesh_sim, [20, 40])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(experiments, "_worker_build", None)
    assert run_suite("frameworks", mesh_sim, [20, 40], jobs=64) == serial
    assert run_suite("frameworks", mesh_sim, [20], jobs=2) == run_suite(
        "frameworks", mesh_sim, [20])
    assert sizes == [6, 2]


@pytest.mark.parametrize("suite,name", SUITE_CASES)
def test_suite_cells_equal_runs_alone(suite, name, monkeypatch):
    # every cell runs on the suite's one build; each must report what
    # its own scenario reports when it builds its own
    cells = []

    def recorded(cell, built):
        metrics = run_scenario(cell, built)
        cells.append((cell, metrics))
        return metrics

    monkeypatch.setattr(experiments, "run_scenario", recorded)
    run_suite(suite, configured(shipped(name), record_trace=True), [40, 80])
    assert len(cells) == 2 * len(SUITES[suite].variants)
    for cell, metrics in cells:
        assert fingerprint(metrics) == fingerprint(run_scenario(cell))


def test_suite_builds_once_and_hashes_once(mesh_sim, monkeypatch):
    calls = {"topology": 0, "hash": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(scenario_module, "build_topology",
                        counted("topology", scenario_module.build_topology))
    for module in (engine_module, experiments):
        monkeypatch.setattr(module, "scenario_hash",
                            counted("hash", module.scenario_hash))
    report = run_suite("frameworks", mesh_sim, [20, 40])
    assert len(report.rows) == 2 * 3 * 3
    assert calls == {"topology": 1, "hash": 1}


def test_rows_carry_provenance(fan):
    report = run_suite("schemes", fan, [10])
    for row in report.rows:
        assert row["scenario_hash"] == report.scenario_hash
        assert row["seed"] == fan.seed


def test_metrics_rows_and_csv(tmp_path, fan):
    metrics = run_scenario(configured(fan, packets=20))
    rows = metrics_rows(metrics)
    kinds = {r["record"] for r in rows}
    assert kinds == {"path", "source", "net"}
    out = tmp_path / "metrics.csv"
    write_rows_csv(rows, str(out))
    text = out.read_text()
    assert text.splitlines()[0].startswith("scenario,")
    assert len(text.splitlines()) == len(rows) + 1


def test_report_text_includes_checks(fan):
    report = run_suite("schemes", fan, [20])
    text = report.to_text()
    assert "[PASS]" in text or "[FAIL]" in text


def test_plot_data_leaves_a_path_that_delivered_nothing_out_of_the_delay_series(
        mesh_sim):
    # replicated over a shared FIFO, path (1, 0) drops every copy: its
    # CSV delay reads 0.0, which a plot would show as the fastest path
    metrics = run_scenario(configured(mesh_sim, packets=200, window=None,
                                      replicate=True, fragmented=False))
    assert metrics.per_path[(1, 0)]["delivered"] == 0
    paths = [r for r in metrics_rows(metrics) if r.get("record") == "path"]
    files = path_plots(metrics)

    def points(name):
        return files[name].splitlines()

    assert len(points("allocation_per_path.dat")) == len(paths)
    assert points("delay_per_path.dat") == [
        f"{r['path'] + 1} {r['delay_sim_s']!r}" for r in paths if r["delivered"]]
    assert len(points("delay_per_path.dat")) == len(paths) - 1
