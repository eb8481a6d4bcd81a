"""Deterministic simulator and analysis toolkit for multi-source multipath
routing in wireless sensor networks."""

from .allocator import (
    Allocation,
    AllocationInput,
    PathParams,
    allocate_multi_source,
    scheme_allocation,
    solve_quota_bound,
)
from .discovery import choke_probe, discover_paths
from .engine import Engine, RunMetrics, run_scenario
from .metrics import (
    average_edp,
    path_delay,
    path_edp,
    path_energy,
    receive_energy_per_bit,
    transmit_energy_per_bit,
)
from .model import (
    NetworkParams,
    PathInfo,
    SourceSpec,
    Topology,
    build_topology,
    validate_path,
)
from .scenario import Scenario, build_scenario, load_scenario, save_scenario

__version__ = "0.1.0"

__all__ = [
    "Allocation", "AllocationInput", "Engine", "NetworkParams", "PathInfo",
    "PathParams", "RunMetrics", "Scenario", "SourceSpec", "Topology",
    "allocate_multi_source", "average_edp", "build_scenario",
    "build_topology", "choke_probe", "discover_paths", "load_scenario",
    "path_delay", "path_edp", "path_energy", "receive_energy_per_bit",
    "run_scenario",
    "save_scenario", "scheme_allocation", "solve_quota_bound",
    "transmit_energy_per_bit", "validate_path",
]
