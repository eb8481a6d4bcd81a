"""Golden outputs: SHA-256 digests of what the CLI writes for the shipped
scenarios (tables, summaries, suite reports, traces and plot data) and
prints for them, and of traced runs of
the fault-recovery fixtures, the pipelined meshes, the engine modes no
shipped scenario runs and a 1000-node deployment with a failure.

The ROADMAP rule is that the shipped scenarios' outputs stay bit-identical
from one change to the next. A rerun test only compares two runs of the
same code; these digests compare against the outputs recorded when they
were first pinned. A change that moves them on purpose updates the digest
here and says why in CHANGES.md.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from wsn_multipath.cli import main
from wsn_multipath.engine import run_scenario
from wsn_multipath.experiments import configured, metrics_rows, render_rows
from wsn_multipath.scenario import (
    FaultDecl,
    RunConfig,
    build_scenario,
    load_scenario,
)

from conftest import (
    fault_beacon_scenario,
    fault_timer_scenario,
    line_scenario,
    uniform_fault_scenario,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
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
        "803015e0bafbf2aa3d8d11c5a7963446ce029ecf7403bd6e54d4cee611c7374b",
    ("fault-beacon", False):
        "ee8a6cf4accda34348c6e1da875a91cec44f5725480655c45203ac73ae82a261",
    ("fault-timer", True):
        "3d6d662090b624d54637d01d80606ad1be131a759d0c8dd27a37956fe12599ea",
    ("fault-timer", False):
        "bf2a5da02c66f767ed3f0f568125f5c90fa192fe75ce3146f811054c89887f3e",
    ("line-link-fault", True):
        "8d5a973245271ec971bfe4d0ef34b560fdbf0a9911bbd81ad25949dddac73d9b",
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
        "cbaab570abb4466fed29a24d1083d38271b3fa879ce11568a7b46a2ec8e23c89",
    "lossy-mesh":
        "79e95b510373d8b80a7fa83d63cd7e7be0d46aee8da0552889887fd3a6a89ed7",
    "per-packet-idle":
        "4a0a9c99c01580d3861c7515c7d68e9126686f9d02dbe604ff917363ecd63e12",
}

# a seeded uniform deployment of 1000 nodes at the density of the
# benchmark's 5000-node one, where a route's middle node fails and one of
# three spares replaces it; only 54 of its nodes ever hold a frame
UNIFORM_FAULT_DIGEST = "a35028b399d8967f32dacfd848457bb04663dba3607ef9872b4a728912159f59"


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


def test_large_deployment_fault_run_matches_golden():
    metrics = run_scenario(uniform_fault_scenario(1000, 540.0, 30.0, seed=10,
                                                  packets=100))
    assert metrics.replacements == [(327, 503)]
    text = "\n".join([*metrics.trace, render_rows(metrics_rows(metrics), "csv"),
                      repr(sorted(metrics.residual_j.items())),
                      repr(metrics.detections), repr(metrics.replacements)])
    assert _sha(text.encode()) == UNIFORM_FAULT_DIGEST
