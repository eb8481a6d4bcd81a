"""Per-path packet quotas.

Three distribution schemes: everything on the minimum-hop path, an equal
split, and the strategic split that caps every path's energy-delay product
at the equal-split average. The multi-source variant discounts each path's
weight by the fraction of its nodes flagged as congestion points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .metrics import average_edp, edp_coefficients
from .model import DomainError, NetworkParams

SCHEME_MIN_HOP = 1
SCHEME_EQUAL = 2
SCHEME_STRATEGIC = 3


@dataclass(frozen=True)
class PathParams:
    hops: int
    tau_s: float
    contention: int = 0


@dataclass
class AllocationInput:
    params: NetworkParams
    total_packets: int
    paths: list[PathParams]
    source_sink_dist_m: float

    def __post_init__(self):
        if self.total_packets < 0:
            raise DomainError("total packets must be >= 0")
        if not self.paths:
            raise DomainError("need at least one path")
        for i, p in enumerate(self.paths):
            if p.hops < 1:
                raise DomainError(f"path {i}: hops must be >= 1")
            if not 0 <= p.contention <= p.hops + 1:
                raise DomainError(
                    f"path {i}: contention {p.contention} outside [0, {p.hops + 1}]")


@dataclass
class Allocation:
    quotas: list[int]
    raw_quotas: list[float]
    budget_edp: float = 0.0
    # True where rounding pushed the integer quota above the per-path bound,
    # so the EDP cap may no longer hold for that path post-normalization.
    exceeds_bound: list[bool] = field(default_factory=list)


def solve_quota_bound(params: NetworkParams, hops: float, tau_s: float,
                      source_sink_dist_m: float, rhs_edp: float) -> float:
    """Largest real packet count whose path EDP stays within `rhs_edp`.

    The EDP is a*x**2 + b*x with a, b > 0, so the bound is the unique
    non-negative root of a*x**2 + b*x = rhs_edp.
    """
    if rhs_edp < 0:
        raise DomainError(f"EDP budget must be >= 0, got {rhs_edp!r}")
    a, b = edp_coefficients(params, hops, tau_s, source_sink_dist_m)
    if not (a > 0 and b >= 0):
        raise DomainError(
            f"hops {hops!r} and tau_s {tau_s!r} give EDP coefficients "
            f"a={a!r}, b={b!r}; the bound needs a > 0 and b >= 0")
    return (-b + math.sqrt(b * b + 4.0 * a * rhs_edp)) / (2.0 * a)


def apportion(weights: list[float], total: int) -> list[int]:
    """Integer quotas proportional to weights, summing exactly to `total`.

    Largest-fractional-part rounding; ties go to the lower path index.
    """
    if total == 0:
        return [0] * len(weights)
    weight_sum = sum(weights)
    if weight_sum <= 0:
        raise DomainError(
            f"all path weights are zero with {total} packets to assign")
    targets = [w / weight_sum * total for w in weights]
    quotas = [math.floor(t) for t in targets]
    remainder = total - sum(quotas)
    order = sorted(range(len(weights)), key=lambda i: (quotas[i] - targets[i], i))
    for i in order[:remainder]:
        quotas[i] += 1
    return quotas


def allocate_multi_source(inp: AllocationInput) -> Allocation:
    """Strategic split: each path's EDP bound under the equal-split budget,
    discounted by the fraction of its nodes a choke probe flagged as
    congested, and normalized to the exact total. With zero contention
    everywhere the weights are the bounds themselves."""
    n = len(inp.paths)
    h_avg = sum(p.hops for p in inp.paths) / n
    tau_avg = sum(p.tau_s for p in inp.paths) / n
    rhs = average_edp(inp.params, inp.total_packets, n, h_avg, tau_avg,
                      inp.source_sink_dist_m)
    raw = [solve_quota_bound(inp.params, p.hops, p.tau_s,
                             inp.source_sink_dist_m, rhs)
           for p in inp.paths]
    weights = [r * (1.0 - p.contention / (p.hops + 1))
               for r, p in zip(raw, inp.paths)]
    quotas = apportion(weights, inp.total_packets)
    return Allocation(quotas=quotas, raw_quotas=raw, budget_edp=rhs,
                      exceeds_bound=[q > r + 1e-9 for q, r in zip(quotas, raw)])


def scheme_allocation(scheme: int, inp: AllocationInput) -> Allocation:
    """Dispatch on the distribution scheme (1 min-hop, 2 equal, 3 strategic)."""
    n = len(inp.paths)
    if scheme == SCHEME_MIN_HOP:
        best = min(range(n), key=lambda i: (inp.paths[i].hops, i))
        quotas = [0] * n
        quotas[best] = inp.total_packets
        return Allocation(quotas=quotas, raw_quotas=[float(q) for q in quotas],
                          exceeds_bound=[False] * n)
    if scheme == SCHEME_EQUAL:
        base, rem = divmod(inp.total_packets, n)
        quotas = [base + (1 if i < rem else 0) for i in range(n)]
        return Allocation(quotas=quotas, raw_quotas=[float(q) for q in quotas],
                          exceeds_bound=[False] * n)
    if scheme == SCHEME_STRATEGIC:
        return allocate_multi_source(inp)
    raise DomainError(f"unknown scheme {scheme!r}; expected 1, 2 or 3")


__all__ = [
    "Allocation", "AllocationInput", "PathParams",
    "SCHEME_EQUAL", "SCHEME_MIN_HOP", "SCHEME_STRATEGIC",
    "allocate_multi_source", "apportion",
    "scheme_allocation", "solve_quota_bound",
]
