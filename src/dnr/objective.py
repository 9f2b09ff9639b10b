"""Loss objective and operating-constraint checks for candidate configurations.

The figure of merit is the ohmic energy lost over the study interval:
for every closed branch, r * (P^2 + Q^2) / v^2 evaluated per-unit at the
sending end (the end nearer the island root), summed, scaled to MWh by the
system base and the interval length.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .model import Configuration, NetworkCase, NotRadialError, is_radial
from .powerflow import NotConvergedError, PowerFlowSolution

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
    """Score a converged radial solution; closed branches carry unit weight."""
    if not solution.converged:
        raise NotConvergedError("objective needs a converged power flow")
    if not is_radial(case, config):
        raise NotRadialError("objective is defined on radial configurations")

    base = case.base_mva
    terms: list[tuple[int, float]] = []
    fo_pu = 0.0
    for branch_id in sorted(config.closed):
        flow = solution.flows[branch_id]
        branch = case.branch_by_id[branch_id]
        v = solution.v_mag[flow.sending_bus]
        p, q = flow.p_send / base, flow.q_send / base
        term = branch.r * (p * p + q * q) / (v * v)
        fo_pu += term
        terms.append((branch_id, term * base * case.delta_t_hours))
    fo_value = fo_pu * base * case.delta_t_hours

    checks = (
        ConstraintCheck("radiality", True, "closed branches form a rooted spanning forest"),
        _voltage_check(case, solution),
        _current_check(case, solution),
        _feeder_check(case, solution),
    )
    return ObjectiveReport(fo_value, tuple(terms), checks, all(c.passed for c in checks))


def _voltage_check(case: NetworkCase, solution: PowerFlowSolution) -> ConstraintCheck:
    worst: tuple[float, str] | None = None
    for bus_id, v in solution.v_mag.items():
        bus = case.bus_by_id[bus_id]
        excess = max(bus.v_min - v, v - bus.v_max)
        if excess > _EPS and (worst is None or excess > worst[0]):
            worst = (excess, f"bus {bus_id} at {v:.4f} pu outside [{bus.v_min}, {bus.v_max}]")
    if worst:
        return ConstraintCheck("voltage_limits", False, worst[1])
    return ConstraintCheck("voltage_limits", True, "all bus voltages within bounds")


def _current_check(case: NetworkCase, solution: PowerFlowSolution) -> ConstraintCheck:
    worst: tuple[float, str] | None = None
    for branch_id, flow in solution.flows.items():
        limit = case.branch_by_id[branch_id].mva_limit
        if limit is None:
            continue
        loading = max(
            math.hypot(flow.p_send, flow.q_send),
            math.hypot(flow.p_recv, flow.q_recv),
        )
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
    report: ObjectiveReport,
    switch_changes: int = 0,
    branch_key: tuple[int, ...] = (),
) -> tuple:
    """Ordering tuple: feasible first, lower objective, fewer moves, lower ids."""
    return (not report.feasible, report.fo_value, switch_changes, branch_key)


def compare(
    a: ObjectiveReport,
    b: ObjectiveReport,
    *,
    changes_a: int = 0,
    changes_b: int = 0,
    key_a: tuple[int, ...] = (),
    key_b: tuple[int, ...] = (),
) -> int:
    """-1 when a ranks better than b, 1 when worse, 0 on a full tie."""
    ka, kb = sort_key(a, changes_a, key_a), sort_key(b, changes_b, key_b)
    return -1 if ka < kb else (1 if ka > kb else 0)
