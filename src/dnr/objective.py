"""Loss objective and operating-constraint checks for candidate configurations.

The figure of merit is the ohmic energy lost over the study interval:
for every closed branch, r * (P^2 + Q^2) / v^2 evaluated per-unit at the
sending end (the end nearer the island root), summed, scaled to MWh by the
system base and the interval length.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# callers also look is_radial up on this module
from .model import (  # noqa: F401
    Configuration,
    NetworkCase,
    NotRadialError,
    _compiled_case,
    _find,
    forest,
    is_radial,
)
from .powerflow import BranchFlows, BusValues, NotConvergedError, PowerFlowSolution, sequential_sum

_EPS = 1e-9


@dataclass(frozen=True, slots=True)
class ConstraintCheck:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ObjectiveReport:
    fo_value: float  # MWh over the study interval
    per_branch_terms: tuple[tuple[int, float], ...]
    constraints: tuple[ConstraintCheck, ...]
    feasible: bool


def evaluate_fo(
    case: NetworkCase, config: Configuration, solution: PowerFlowSolution
) -> ObjectiveReport:
    """Score a converged radial solution; closed branches carry unit weight.

    It reads the solution's columns, with the bits of a scalar loop over the
    branches in id order: elementwise float64 arithmetic, a sequential sum.
    """
    if not solution.converged:
        raise NotConvergedError("objective needs a converged power flow")
    index = forest(case, config)
    if index is None:
        raise NotRadialError("objective is defined on radial configurations")

    base = case.base_mva
    compiled = _compiled_case(case)
    v_mag = BusValues.of(solution.v_mag)
    flows = BranchFlows.of(solution.flows)
    closed = compiled.branch_ids[index.closed]
    rows = flows.rows(closed)
    v = v_mag.take(flows.ends[rows, 0])
    p = flows.power[rows, 0] / base
    q = flows.power[rows, 1] / base
    r = compiled.resistance[index.closed]
    terms = r * (p * p + q * q) / (v * v)
    fo_pu = sequential_sum(terms)
    per_branch = tuple(zip(closed.tolist(), (terms * base * case.delta_t_hours).tolist()))
    fo_value = fo_pu * base * case.delta_t_hours

    checks = (
        ConstraintCheck("radiality", True, "closed branches form a rooted spanning forest"),
        _voltage_check(case, v_mag),
        _current_check(case, flows),
        _feeder_check(case, solution),
    )
    return ObjectiveReport(fo_value, per_branch, checks, all(c.passed for c in checks))


def _voltage_check(case: NetworkCase, v_mag: BusValues) -> ConstraintCheck:
    compiled = _compiled_case(case)
    at = _find(compiled.bus_ids, v_mag.ids)
    v = v_mag.values
    low, high = compiled.v_min[at] - v, v - compiled.v_max[at]
    excess = np.where(high > low, high, low)  # Python max(low, high)
    over = np.flatnonzero(excess > _EPS)
    if over.size:
        worst = over[excess[over].argmax()]  # the first of the largest, as a scan keeps it
        bus_id, v = v_mag.ids[worst].item(), v[worst].item()
        bus = case.bus_by_id[bus_id]
        detail = f"bus {bus_id} at {v:.4f} pu outside [{bus.v_min}, {bus.v_max}]"
        return ConstraintCheck("voltage_limits", False, detail)
    return ConstraintCheck("voltage_limits", True, "all bus voltages within bounds")


def _current_check(case: NetworkCase, flows: BranchFlows) -> ConstraintCheck:
    compiled = _compiled_case(case)
    limits = compiled.mva_limit[_find(compiled.branch_ids, flows.ids)]
    rated = np.flatnonzero(~np.isnan(limits))
    worst: tuple[float, str] | None = None
    # math.hypot per branch: np.hypot rounds differently
    for branch_id, (ps, qs, pr, qr), limit in zip(
        flows.ids[rated].tolist(), flows.power[rated].tolist(), limits[rated].tolist()
    ):
        loading = max(math.hypot(ps, qs), math.hypot(pr, qr))
        excess = loading - limit
        if excess > 1e-6 and (worst is None or excess > worst[0]):
            worst = (excess, f"branch {branch_id} at {loading:.2f} MVA over its {limit:.2f} MVA rating")
    if worst:
        return ConstraintCheck("current_limits", False, worst[1])
    return ConstraintCheck("current_limits", True, "all rated branches within their MVA ratings")


def _feeder_check(case: NetworkCase, solution: PowerFlowSolution) -> ConstraintCheck:
    worst: tuple[float, str] | None = None
    for island in solution.islands:
        limits = case.bus_by_id[island.root].q_limits
        if limits is None:
            continue
        q = island.slack_q_mvar
        excess = max(limits[0] - q, q - limits[1])
        if excess > 1e-6 and (worst is None or excess > worst[0]):
            worst = (
                excess,
                f"feeder {island.root} delivers {q:.2f} MVAr outside [{limits[0]}, {limits[1]}]",
            )
    if worst:
        return ConstraintCheck("feeder_overload", False, worst[1])
    return ConstraintCheck("feeder_overload", True, "all feeder injections within machine limits")


def sort_key(
    report: ObjectiveReport, branch_key: tuple[int, ...] = ()
) -> tuple[bool, float, tuple[int, ...]]:
    """Ordering tuple: feasible first, then lower objective, then lower ids."""
    return (not report.feasible, report.fo_value, branch_key)
