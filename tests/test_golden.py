"""Golden outputs: SHA-256 digests of what the CLI writes for the shipped
scenarios (tables, summaries, suite reports, traces and plot data) and
prints for them, and of traced runs of
the fault-recovery fixtures, the pipelined meshes, the engine modes no
shipped scenario runs and a 1000-node deployment with a failure; and one
digest per family of traced runs and queue discipline, over everything
each run reports (`fingerprint`), plus one over the path sets discovered
from many sources of three 5,000-node deployments.

The ROADMAP rule is that the shipped scenarios' outputs stay bit-identical
from one change to the next. A rerun test only compares two runs of the
same code; these digests compare against the outputs recorded when they
were first pinned. A change that moves them on purpose updates the digest
here and says why in CHANGES.md.

Run as a script, the module prints the current digests of what it
names, in the form the tables below write them, ready to paste: a whole
table (`FAULT_DIGESTS`, `PIPELINED_DIGESTS`, `MODE_DIGESTS`), the line
`UNIFORM_FAULT_DIGEST = ...`, or the `FAMILY_DIGESTS` entries of a family.
Without names it prints all of them. So a new family can be pinned before
the code it guards changes, and a table that a change moves on purpose is
regenerated with one command:

    PYTHONPATH=src python tests/test_golden.py crossing-small-buffers
    PYTHONPATH=src python tests/test_golden.py FAULT_DIGESTS MODE_DIGESTS
"""

from __future__ import annotations

import dataclasses
import hashlib
from pathlib import Path

import pytest

from wsn_multipath.cli import main
from wsn_multipath.discovery import discover_paths
from wsn_multipath.engine import run_scenario
from wsn_multipath.experiments import configured, metrics_rows, render_rows
from wsn_multipath.model import build_topology
from wsn_multipath.scenario import (
    FaultDecl,
    RunConfig,
    build_scenario,
    generate_random_scenario,
    load_scenario,
)

from conftest import (
    SCENARIOS,
    crossing_fault_scenario,
    crossing_scenario,
    fault_beacon_scenario,
    fault_timer_scenario,
    fingerprint,
    line_scenario,
    uniform_fault_scenario,
    with_another_fault,
    with_fault,
)

MESHES = ("three-source-mesh", "three-source-mesh-sim")

RUN_DIGESTS = {
    ("five-path-fan", "metrics.csv"):
        "73d6cb6ca35f916e01603fd6bdd6d9923e7e2948c8f4466247e6cd9247d6573c",
    ("five-path-fan", "summary.txt"):
        "dfcd288bd0194d6acddd103962a7f3ed4409918c89c6cd8d6c2a17e75450471a",
    ("five-path-fan", "trace.txt"):
        "518b5c0d4a54279ff2aef2d364b1cf2f2ee62898fbdc34bc85ca84b7e7ed000a",
    ("three-source-mesh", "metrics.csv"):
        "5f19e841cd0f1e5acd2f3ba448566d5bbd19405fc3fea04d75040169a461df50",
    ("three-source-mesh", "summary.txt"):
        "2a6fc9dd4087fc2df9deec214c072d4eead2d1c04cd733ae67881483d834ca88",
    ("three-source-mesh", "trace.txt"):
        "b638a576cff446d3cb4c29d4f9a8fb0fd8e50dabffd32fd7a2d04cb969105c80",
    ("three-source-mesh-sim", "metrics.csv"):
        "76467e52d5f4057b5a46e07668dc577c740192bf49b335377873c1ab42add762",
    ("three-source-mesh-sim", "summary.txt"):
        "f96a3b9194d5256dfe46f42c355f933e1f336b0cdb256e356ee0ccc06302765f",
    ("three-source-mesh-sim", "trace.txt"):
        "ae854d9041ee65d88f76edae9b155cab830d9eff746c07b798fe5f8be00d48d1",
}

SUITE_DIGESTS = {
    ("three-source-mesh", "frameworks"):
        "fd3df63324925ceffaa7f0d78b87243aa350b71dd316a66f6b114656f87748b2",
    ("three-source-mesh-sim", "frameworks"):
        "0a0dc66bfc79381ccba50cfe9eaa45d212778fd08f6764d632450c032cf4b3ca",
    ("five-path-fan", "schemes"):
        "6bfd0d812d952e1569e1ad1e7d520a5555e5c1967d5acdcde2c329db56000a2c",
}

# the text report of each suite run above, with its [PASS]/[FAIL] lines:
# `{suite}.txt` under `--out`, and stdout without it
SUITE_TEXT_DIGESTS = {
    ("three-source-mesh", "frameworks"):
        "5bd673f439f2d57ccc21aaa3f779df86230cf8ecc88e20d8d14d518bdc760651",
    ("three-source-mesh-sim", "frameworks"):
        "fa50b9fb8d65ff5a0056e1d513499d54fd54d9b05344fa48f43a004ff26516f0",
    ("five-path-fan", "schemes"):
        "0907bb5f2a9b8f512e10e4c76d83c9c49de008587ba0678f30a527383889fe0d",
}

STDOUT_DIGESTS = {
    ("discover", "csv"):
        "4d603390779284f9c27cc297be0b24eacccfe486d65b2d7146ae4006d9dbd0e4",
    ("discover", "json-lines"):
        "92fa996bf290c58822ba5a0803a82de967513ab76a39863adfd401b5e590fe98",
    ("discover", "text"):
        "055877eac2ab6796f43068665ea66404af9f44dee871822e2ec7fa211de8ca1c",
    ("allocate", "csv"):
        "eabaee439e5dd5ed80ca850712a45ea4b7c5693511bfc53ca3e7ee7960d15462",
    ("allocate", "json-lines"):
        "07b7468ed079ca7519dc6a472a70e4861a555565c84c3b16780a3996498f201d",
    ("allocate", "text"):
        "d5ed0de2d888660a5c2d16654c49b2d20b348b64dccd65cb53d422f2109381b3",
    ("run", "csv"):
        "b5171ddb142dc06beaba4af511f4578b8389d6c6a66d8116569bee97e8cfe744",
    ("run", "json-lines"):
        "fb6214b8c82fcb73965a308759971b517c24d62c5a989b54cd24b3bbafe50d2d",
    ("run", "text"):
        "c8f5612e6039ff4b171d78ae623eb9b6c827c7450d948446535a0a8e3e26c8b3",
}

# (command, scenario, file): the two-column series that `--plot-data`
# writes beside a `run` and beside the schemes suite at D=100 and D=200;
# the frameworks suite writes none
PLOT_DIGESTS = {
    ("run", "five-path-fan", "allocation_per_path.dat"):
        "afcd69de88d7298bc325b530088fbcd37e321bd57739cfc54c76ed83364ef77c",
    ("run", "five-path-fan", "delay_per_path.dat"):
        "01409bb1d5b28ab49e96ec161c3da9bd53844a6e9f2813eacf52b4e4699f5935",
    ("run", "three-source-mesh", "allocation_per_path.dat"):
        "e8c96cf86f444f16ece999894e9cd8cbf74cc3eb91040f4f6bb250a471613a63",
    ("run", "three-source-mesh", "delay_per_path.dat"):
        "1475006b411a5052e6d1a78f623eb6bbdff8e715d03f1014ed98e809fd87babc",
    ("schemes", "five-path-fan", "allocation_per_path_d100.dat"):
        "afcd69de88d7298bc325b530088fbcd37e321bd57739cfc54c76ed83364ef77c",
    ("schemes", "five-path-fan", "allocation_per_path_d200.dat"):
        "4d86bcf1df0740492723eadca81487b11d07930360e0e62e27a46a13c550a769",
    ("schemes", "five-path-fan", "delay_per_path_d100.dat"):
        "01409bb1d5b28ab49e96ec161c3da9bd53844a6e9f2813eacf52b4e4699f5935",
    ("schemes", "five-path-fan", "delay_per_path_d200.dat"):
        "948beae7fc85cf5ea088de76da76bd3ba27e9c40587f87289d4491e746acdf43",
    ("schemes", "five-path-fan", "delay_vs_scheme_d100.dat"):
        "c0c782472570d426a4bdd6d63bb37a9220d281ad11fcafa214c1f34557772f01",
    ("schemes", "five-path-fan", "delay_vs_scheme_d200.dat"):
        "12c4ae54e2f2d2c8798f4d1225fac1f34cb273c430f7d3af69aede189a41fed6",
    ("schemes", "five-path-fan", "energy_vs_scheme_d100.dat"):
        "c728c39b91611a25d0aa738dccf37399df7dd0a94adb47939350489109f3c5c4",
    ("schemes", "five-path-fan", "energy_vs_scheme_d200.dat"):
        "ba686f3efab82eb33530b8d73e561f953c64658dc5226c59ea3a8b6efc71ddce",
}
PLOT_RUNS = (("frameworks", "three-source-mesh"), ("run", "five-path-fan"),
             ("run", "three-source-mesh"), ("schemes", "five-path-fan"))


# (fixture, fragmented): the beacon and watchdog fixtures with their
# spares in both queue disciplines, and a line whose last link dies
FAULT_DIGESTS = {
    ("fault-beacon", True):
        "0b1fc82aff9a4493f096b1abbfd928194e760b7137aae40f1d7384d1763b7fb3",
    ("fault-beacon", False):
        "ee9a039c8073ae04e4c82f4d8aff73100c8a6cc0de9a895fc787b5946b218231",
    ("fault-timer", True):
        "9c6d0b277ff254a68f02e6460d8aa748a5aec82954d36dcb16575d0881423476",
    ("fault-timer", False):
        "a0994aed99f5901eddf5dd2b7619e5d411aaf0a36ae095f2b087edfcfbaa9275",
    ("line-link-fault", True):
        "c8e97e1ed8391a6684bc48cb0bcd8fb5c1413a7ad640243000c6797d2be805fc",
}

# (mesh, fragmented): the shipped meshes at D=2000 with no window, so
# sub-queues overflow and the fragmented discipline evicts
PIPELINED_DIGESTS = {
    ("three-source-mesh", False):
        "e745d5b13f32d093b102dd9af88ca2cb404f649df4c32d29827766018d92c280",
    ("three-source-mesh", True):
        "69ec660dcd42dd80863b48c8024f758e2a7056bc19b22ca17aef73c3e9a6745e",
    ("three-source-mesh-sim", False):
        "12e5802917aa56020420be39398cb97f2b3c0a4eb90e8e2503aab7d1039dbe58",
    ("three-source-mesh-sim", True):
        "fc1ea62303f145c775da5084fa9a547dde56af3028ba819fef2f9ab5519f776f",
}

# engine modes no shipped scenario runs: per-packet energy with idle
# drain, links of differing speed and delay, and lossy links that force
# retries and beacons under detection
MODE_DIGESTS = {
    "heterogeneous-links":
        "56d1a90a20c27c48907047629495ecf26115bbb2b0aaa5db0536ef7f701df5ca",
    "lossy-beacon":
        "06f1473424005c4001d6099b476bd2f6da20dbb917a41e0c6c7136465c0ea322",
    "lossy-mesh":
        "8f72240f09a1402fba63187f346a503f93c97a96ad50a7de4cf859bacc6f052d",
    "per-packet-idle":
        "4a0a9c99c01580d3861c7515c7d68e9126686f9d02dbe604ff917363ecd63e12",
}

# a seeded uniform deployment of 1000 nodes at the density of the
# benchmark's 5000-node one, where a route's middle node fails and one of
# three spares replaces it; only 54 of its nodes ever hold a frame
UNIFORM_FAULT_DIGEST = "e16116f1a2d545668c2cff7858d25b6e203b306d877986cfea64d8be53fa5134"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _scenario(name: str) -> str:
    return str(SCENARIOS / f"{name}.yaml")


def run_outputs(name: str, out: Path) -> dict[str, str]:
    assert main(["run", "--scenario", _scenario(name), "--trace",
                 "--out", str(out)]) == 0
    return {f: _sha((out / f).read_bytes())
            for f in ("metrics.csv", "summary.txt", "trace.txt")}


def suite_output(name: str, suite: str, out: Path) -> str:
    assert main(["experiment", "--scenario", _scenario(name), "--suite", suite,
                 "--packets", "100", "200", "--out", str(out)]) == 0
    return _sha((out / f"{suite}.csv").read_bytes())


def suite_text_outputs(name: str, suite: str, out: Path, capsys) -> tuple[str, str]:
    """Digests of a suite's text report as written under `--out` and as
    printed without it."""
    argv = ["experiment", "--scenario", _scenario(name), "--suite", suite,
            "--packets", "100", "200"]
    assert main([*argv, "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(argv) == 0
    return (_sha((out / f"{suite}.txt").read_bytes()),
            _sha(capsys.readouterr().out.encode()))


def plot_outputs(command: str, name: str, out: Path) -> dict[str, str]:
    args = (["run"] if command == "run" else
            ["experiment", "--suite", command, "--packets", "100", "200"])
    assert main([*args, "--scenario", _scenario(name), "--plot-data",
                 "--out", str(out)]) == 0
    return {f.name: _sha(f.read_bytes()) for f in sorted(out.glob("*.dat"))}


def stdout_output(command: str, fmt: str, capsys) -> str:
    capsys.readouterr()
    assert main([command, "--scenario", _scenario("three-source-mesh"),
                 "--format", fmt]) == 0
    return _sha(capsys.readouterr().out.encode())


@pytest.mark.parametrize("name", ("five-path-fan",) + MESHES)
def test_run_outputs_match_golden(name, tmp_path):
    got = run_outputs(name, tmp_path)
    assert got == {f: RUN_DIGESTS[(name, f)] for f in got}


@pytest.mark.parametrize("name,suite", sorted(SUITE_DIGESTS))
def test_suite_csv_matches_golden(name, suite, tmp_path):
    assert suite_output(name, suite, tmp_path) == SUITE_DIGESTS[(name, suite)]


@pytest.mark.parametrize("name,suite", sorted(SUITE_TEXT_DIGESTS))
def test_suite_text_matches_golden(name, suite, tmp_path, capsys):
    digest = SUITE_TEXT_DIGESTS[(name, suite)]
    assert suite_text_outputs(name, suite, tmp_path, capsys) == (digest, digest)


@pytest.mark.parametrize("command,fmt", sorted(STDOUT_DIGESTS))
def test_stdout_tables_match_golden(command, fmt, capsys):
    assert stdout_output(command, fmt, capsys) == STDOUT_DIGESTS[(command, fmt)]


@pytest.mark.parametrize("command,name", PLOT_RUNS)
def test_plot_data_matches_golden(command, name, tmp_path):
    assert plot_outputs(command, name, tmp_path) == {
        f: digest for (c, n, f), digest in PLOT_DIGESTS.items() if (c, n) == (command, name)}


def _fault_scenario(name: str, fragmented: bool):
    if name == "line-link-fault":
        sc = line_scenario(packets=5, hops=2, window=1)
        sc.faults = [FaultDecl(0.05, link=(11, 2))]
        sc.engine = RunConfig(scheme=2, window=1, max_attempts=3,
                              fault_detection="on")
    else:
        sc = {"fault-beacon": fault_beacon_scenario,
              "fault-timer": fault_timer_scenario}[name]()
    sc.engine.fragmented = fragmented
    sc.engine.record_trace = True
    return sc


def fault_output(name: str, fragmented: bool) -> str:
    """Digest of a traced fault run: its trace, its report rows, and its
    detections and replacements."""
    metrics = run_scenario(_fault_scenario(name, fragmented))
    text = "\n".join([*metrics.trace, render_rows(metrics_rows(metrics), "csv"),
                      repr(metrics.detections), repr(metrics.replacements)])
    return _sha(text.encode())


@pytest.mark.parametrize("name,fragmented", sorted(FAULT_DIGESTS))
def test_fault_runs_match_golden(name, fragmented):
    assert fault_output(name, fragmented) == FAULT_DIGESTS[(name, fragmented)]


def pipelined_output(name: str, fragmented: bool) -> str:
    """Digest of a traced pipelined mesh run: its trace, its report rows
    and every node's residual energy."""
    scenario = configured(load_scenario(_scenario(name)), packets=2000,
                          window=None, fragmented=fragmented, record_trace=True)
    metrics = run_scenario(scenario)
    text = "\n".join([*metrics.trace, render_rows(metrics_rows(metrics), "csv"),
                      repr(sorted(metrics.residual_j.items()))])
    return _sha(text.encode())


@pytest.mark.parametrize("name,fragmented", sorted(PIPELINED_DIGESTS))
def test_pipelined_runs_match_golden(name, fragmented):
    assert pipelined_output(name, fragmented) == PIPELINED_DIGESTS[(name, fragmented)]


def _heterogeneous_mesh(**overrides):
    """The pipelined `three-source-mesh-sim` at 200 packets per source,
    every link with one of four speeds and one of three delays."""
    scenario = configured(load_scenario(_scenario("three-source-mesh-sim")),
                          packets=200, window=None, record_trace=True, **overrides)
    topology, _specs = build_scenario(scenario)
    scenario.link_overrides = {
        (a, b): (20000.0 + 10000.0 * ((a + b) % 4), 1e-4 * ((a * b) % 3))
        for a, b in topology.links}
    return scenario


def _mode_scenario(name: str):
    if name == "heterogeneous-links":
        return _heterogeneous_mesh()
    if name == "per-packet-idle":
        return _heterogeneous_mesh(energy_mode="per_packet", include_idle=True)
    if name == "lossy-beacon":
        base, sizing = fault_beacon_scenario(packets=40), {}
    else:
        base = load_scenario(_scenario("three-source-mesh-sim"))
        sizing = {"packets": 100, "window": None, "max_attempts": 3}
    return configured(base, loss_prob=0.2, fault_detection="on",
                      record_trace=True, **sizing)


def mode_output(name: str) -> str:
    """Digest of a traced run in one engine mode: its trace, its report
    rows and every node's residual energy."""
    metrics = run_scenario(_mode_scenario(name))
    text = "\n".join([*metrics.trace, render_rows(metrics_rows(metrics), "csv"),
                      repr(sorted(metrics.residual_j.items()))])
    return _sha(text.encode())


@pytest.mark.parametrize("name", sorted(MODE_DIGESTS))
def test_engine_mode_runs_match_golden(name):
    assert mode_output(name) == MODE_DIGESTS[name]


def uniform_fault_output() -> tuple[list[tuple[int, int]], str]:
    """The replacements of the traced 1000-node fault run, and the digest
    of its trace, report rows, residual energies, detections and
    replacements."""
    metrics = run_scenario(uniform_fault_scenario(1000, 540.0, 30.0, seed=10,
                                                  packets=100))
    text = "\n".join([*metrics.trace, render_rows(metrics_rows(metrics), "csv"),
                      repr(sorted(metrics.residual_j.items())),
                      repr(metrics.detections), repr(metrics.replacements)])
    return metrics.replacements, _sha(text.encode())


def test_large_deployment_fault_run_matches_golden():
    assert uniform_fault_output() == ([(327, 503)], UNIFORM_FAULT_DIGEST)


# Families of runs, one digest per family and queue discipline: the
# SHA-256 of the `fingerprint`s of the family's traced runs, one per
# line, in the order `family_runs` yields them. A change that must not
# move any outcome leaves all of them; one that must names the families
# that moved and why.
CROSSING_FAULT_SEEDS = range(75)
BEACON_FAIL_TIMES = (0.05, 0.125, 0.3)
TIMER_FAIL_TIMES = (0.2, 0.6, 1.0)
CROSSING_PROBED_SEEDS = range(10)
BATTERY_SEEDS = range(40)
BATTERY_ENERGIES_J = (0.002, 0.005)          # per node, crossing grids
BATTERY_MESH_ENERGIES_J = (0.003, 0.006)     # per node, shipped meshes
SMALL_BUFFER_SEEDS = range(40)
SMALL_BUFFER_QUEUES = (1, 2)                 # frames per sub-queue
SMALL_BUFFER_WINDOWS = (2, None)
IDLE_SEEDS = range(24)
IDLE_POWER_W = 2.5e-4
RELAY_LINK_SEEDS = range(40)
DISCOVERY_SEEDS = (701, 702, 703)
MESH_VARIANTS = {
    "mesh-window-1": {"window": 1},
    "mesh-pipelined": {"window": None},
    "mesh-probed": {"window": None, "probe_times": [0.5, 1.0, 2.0, 4.0]},
    "mesh-lossy": {"loss_prob": 0.2, "fault_detection": "on", "max_attempts": 3},
    "mesh-replicated": {"window": None, "replicate": True},
}


def family_runs(family: str, fragmented: bool):
    """The scenarios of one family in one discipline, each traced:
    - crossing-fault(-spare): `crossing_fault_scenario` seeds 0-74, a
      route's middle node failing halfway, without (with) a spare;
    - fault-beacon, fault-timer: the beacon and watchdog fixtures with
      their spares, failing at three times each;
    - mesh-*: both shipped meshes at 500 packets per source, the file's
      config with the variant's overrides;
    - crossing-probed: `crossing_scenario` seeds 0-9, probed at 0.1, 0.3
      and 0.7 s;
    - battery-death: detection on and no scheduled fault, so every node
      that fails runs out of energy inside a handler: `crossing_scenario`
      seeds 0-39 at `window` 1 and null with 2 and 5 mJ per node, then
      both shipped meshes at 300 packets per source with 3 and 6 mJ;
    - crossing-small-buffers: `crossing_scenario` seeds 0-39, each with 1
      and 2 frames per sub-queue, each at `window` 2 and null, so that
      sources keep finding their first-hop sub-queue full;
    - crossing-idle: `crossing_scenario` seeds 0-23 charging idle energy,
      each at `window` 1 and null; by seed, fault-free, lossy, with a
      middle node failing halfway (a spare beside it at seeds 6, 14 and
      22), or a route's first link going down halfway;
    - relay-link-fault: `crossing_scenario` seeds 0-39 at `window` 1 and
      null, with detection on and 3 attempts: the first link of the
      seed's first route of 3 or more hops goes down halfway through the
      fault-free run, with a spare beside its far end or its near end,
      each alone and again with the route's third node failing at 1.25
      times the link's down time, a spare of its own beside it."""
    if family.startswith("crossing-fault"):
        bases = (crossing_fault_scenario(seed, fragmented, spare=family.endswith("spare"))
                 for seed in CROSSING_FAULT_SEEDS)
    elif family == "fault-beacon":
        bases = (fault_beacon_scenario(fail_time=t) for t in BEACON_FAIL_TIMES)
    elif family == "fault-timer":
        bases = (fault_timer_scenario(fail_time=t) for t in TIMER_FAIL_TIMES)
    elif family == "crossing-probed":
        bases = (configured(crossing_scenario(seed), probe_times=[0.1, 0.3, 0.7])
                 for seed in CROSSING_PROBED_SEEDS)
    elif family == "battery-death":
        bases = (configured(_with_energy(base, joules), fault_detection="on", **config)
                 for base, joules, config in _battery_cases())
    elif family == "crossing-small-buffers":
        bases = (configured(crossing_scenario(seed), queue_packets_per_subqueue=size,
                            window=window)
                 for seed in SMALL_BUFFER_SEEDS for size in SMALL_BUFFER_QUEUES
                 for window in SMALL_BUFFER_WINDOWS)
    elif family == "crossing-idle":
        bases = (configured(base, include_idle=True, idle_power_w=IDLE_POWER_W,
                            window=window)
                 for seed in IDLE_SEEDS for base in [_idle_case(seed, fragmented)]
                 for window in (1, None))
    elif family == "relay-link-fault":
        bases = (case for seed in RELAY_LINK_SEEDS for window in (1, None)
                 for case in _relay_link_cases(seed, window, fragmented))
    else:
        bases = (configured(load_scenario(_scenario(name)), packets=500,
                            **MESH_VARIANTS[family])
                 for name in MESHES)
    for base in bases:
        yield configured(base, fragmented=fragmented, record_trace=True)


def _with_energy(scenario, joules: float):
    return dataclasses.replace(scenario, params=dataclasses.replace(
        scenario.params, initial_energy_j=joules))


def _battery_cases():
    """(scenario, joules per node, run config) of the battery-death family."""
    for seed in BATTERY_SEEDS:
        for window in (1, None):
            for joules in BATTERY_ENERGIES_J:
                yield crossing_scenario(seed), joules, {"window": window}
    for name in MESHES:
        for joules in BATTERY_MESH_ENERGIES_J:
            yield load_scenario(_scenario(name)), joules, {"packets": 300}


def _idle_case(seed: int, fragmented: bool):
    """The crossing-idle family's scenario of `seed`, before idle energy
    and the window are set."""
    base, kind = crossing_scenario(seed), seed % 4
    if kind == 1:
        return configured(base, loss_prob=0.2, max_attempts=3, fault_detection="on")
    if kind == 2:
        return crossing_fault_scenario(seed, fragmented, spare=seed % 8 == 6)
    if kind == 3:
        _topology, specs = build_scenario(base)
        route = next(p.nodes for spec in specs for p in spec.paths if p.hops > 1)
        fault = FaultDecl(run_scenario(base).completion_s / 2.0, link=tuple(route[:2]))
        return with_fault(configured(base, max_attempts=3, fault_detection="on"), fault)
    return base


def _relay_link_cases(seed: int, window, fragmented: bool):
    """The relay-link-fault family's four scenarios of `seed` and `window`."""
    base = configured(crossing_scenario(seed), window=window, max_attempts=3,
                      fault_detection="on", fragmented=fragmented)
    _topology, specs = build_scenario(base)
    route = next(p.nodes for spec in specs for p in spec.paths if p.hops >= 3)
    down_s = run_scenario(base).completion_s / 2.0
    for beside in route[1], route[0]:
        single = with_fault(base, FaultDecl(down_s, link=tuple(route[:2])), beside)
        yield single
        yield with_another_fault(single, FaultDecl(1.25 * down_s, node=route[2]), route[2])


def discovery_lines():
    """One line per source: the path sets `discover_paths` finds from every
    250th node that reaches the sink, in id order, on the 5,000-node
    deployments of `generate_random_scenario` at `DISCOVERY_SEEDS`."""
    for seed in DISCOVERY_SEEDS:
        scenario, _connected = generate_random_scenario(5000, 1200.0, 30.0, seed)
        topology = build_topology(scenario.positions, scenario.params.radio_range_m)
        sources = sorted(topology.reachable_from(scenario.sink) - {scenario.sink})
        for source in sources[::250]:
            paths = discover_paths(topology, source, scenario.sink)
            yield f"{seed} {source} {[p.nodes for p in paths]!r}"


def family_digest(family: str, fragmented: bool) -> str:
    if family == "discovery-5000":
        lines = discovery_lines()
    else:
        lines = (fingerprint(run_scenario(s)) for s in family_runs(family, fragmented))
    return _sha("\n".join(lines).encode())


# (family, fragmented); discovery-5000 runs no engine, so it has one
# entry, under False
FAMILY_DIGESTS = {
    ("crossing-idle", False):
        "954868773b8a707f61ebcbac1ca380a0d4639e843ae141ff8a33260c7e2cb701",
    ("crossing-idle", True):
        "8953e5431451f9ee83f318b9f802bc5e92f4913ce07ed65e13810f36098a2142",
    ("crossing-small-buffers", False):
        "1809220c600c5f7c126770f2236953bf0e3d0ee1d292cb84b5a0d42cadf8e805",
    ("crossing-small-buffers", True):
        "f6b32ece17447a225a14573b922b1db218a6a07dfb2debef13fa18853d16508f",
    ("battery-death", False):
        "9de1e4c5dc79ecfc41f45d0d6d9477788f9636f88fbb18caa7df298d24e44784",
    ("battery-death", True):
        "88c922acf1b18dc017591296beb5b26192d9eeb06857d938e442979f27736af2",
    ("discovery-5000", False):
        "c0a3e94e270450432c20b0bd86b389718754160f58fe8ee84c9522a969dfeaf1",
    ("crossing-fault", False):
        "45996efb3e4de4bc67ed735c0d7fadd74b8b4eac155725e6a6ccb5b8598022d6",
    ("crossing-fault", True):
        "39b0a879e5bbfa674f56779c2ac1c4e3a4152c34da8d0b0d373dd79e0bf368fe",
    ("crossing-fault-spare", False):
        "39d77db7885c83219641c078d7f3318827c4d6144ca1e22f60a5e5bea6dabfcd",
    ("crossing-fault-spare", True):
        "3c9b52895d97cdf3474a24afc123110e4053f2a031861c89a0b0ac61d0361c35",
    ("fault-beacon", False):
        "b2353f28d6f180081f3a60404953ae489bfb47599557202365ae9b7e09872273",
    ("fault-beacon", True):
        "d9e0b2e33443b5fa024f081f536f46b2a2df8d325aa450cb51b0524693ea4bd2",
    ("fault-timer", False):
        "3edcb49e5de869ac9aee2f279298fb5440405d8055e8461f3127550395d28cad",
    ("fault-timer", True):
        "5d02c1f5471848a005c49dc30fd3e366f04ae732fa7079a9c64028b95c448909",
    ("crossing-probed", False):
        "7eb09071f37edce1b98ca031863eb3a1e0a43c0d22a54c9f4f04ec4f2dfc8264",
    ("crossing-probed", True):
        "c0b40f310787011852b45e853559b9c7e981fec346ee27a5f6eeada8ab6504eb",
    ("relay-link-fault", False):
        "fcd159e68817a73e16e40cdd6fc56f1a926cc49eeeaa1b5c8abb4c060cfce288",
    ("relay-link-fault", True):
        "0541909dc3ef117341ab7a244e6cc74f40eacc11f42e51e55ced6e8b3379b085",
    ("mesh-window-1", False):
        "53bca3d35b2f14c1f14fb53d904c9ceee361cb2b843327b3c2312ba7a4027e9f",
    ("mesh-window-1", True):
        "08a6fcb6e6bc7e2459b93a5a94dd3fc2119ca03fdc8c44102ad23a907ff83197",
    ("mesh-pipelined", False):
        "bc4dee44170a038d83b89219a1183045d1bbcde1ed5549b9a75db3032ae962ce",
    ("mesh-pipelined", True):
        "1eda0d307adb377765d3f4ebf869ae2bc963467079bf85f5580ed6633e931d23",
    ("mesh-probed", False):
        "bbe579057cdd9ada8a995e75e7177273cac38d6591a4358231fd0d2a5ecd9d3e",
    ("mesh-probed", True):
        "d9d9ed97d0f6135fa59ce842ffd7b6e7b33eb14c05a169eb8069c698b7de37fa",
    ("mesh-lossy", False):
        "541d3b676a8366f8942838a2e96ad7c98fc890a7d7124060e877f8c3f22a9c4d",
    ("mesh-lossy", True):
        "48a77a30fa5c500d51e1f15728ddbadc0dc07a54012a1ead55fa560f4170994f",
    ("mesh-replicated", False):
        "7cfe19e7a54761d22113fb3953c9859002c7587a3299ac9ae38d4f40cb40afcf",
    ("mesh-replicated", True):
        "c78f47aaa272cc3a6c9a6145410e4697d768ee17d1df655ef3880a1fde13c123",
}


@pytest.mark.parametrize("family,fragmented", sorted(FAMILY_DIGESTS))
def test_run_families_match_golden(family, fragmented):
    assert family_digest(family, fragmented) == FAMILY_DIGESTS[(family, fragmented)]


# the tables of single runs the script prints, each with the function
# that computes one of its digests from its key
TABLES = {
    "FAULT_DIGESTS": (FAULT_DIGESTS, fault_output),
    "PIPELINED_DIGESTS": (PIPELINED_DIGESTS, pipelined_output),
    "MODE_DIGESTS": (MODE_DIGESTS, mode_output),
}


def _paste(key) -> str:
    """`key` as the tables above write it."""
    if isinstance(key, tuple):
        return f"({', '.join(_paste(k) for k in key)})"
    return f'"{key}"' if isinstance(key, str) else repr(key)


if __name__ == "__main__":
    import sys

    families = sorted({family for family, _ in FAMILY_DIGESTS})
    names = sys.argv[1:] or [*TABLES, "UNIFORM_FAULT_DIGEST", *families]
    for name in names:
        if name in TABLES:
            table, output = TABLES[name]
            print(f"{name} = {{")
            for key in table:
                digest = output(*key) if isinstance(key, tuple) else output(key)
                print(f'    {_paste(key)}:\n        "{digest}",')
            print("}")
        elif name == "UNIFORM_FAULT_DIGEST":
            print(f'{name} = "{uniform_fault_output()[1]}"')
        else:
            for fragmented in ((False,) if name == "discovery-5000" else (False, True)):
                print(f"    {_paste((name, fragmented))}:\n"
                      f'        "{family_digest(name, fragmented)}",')
