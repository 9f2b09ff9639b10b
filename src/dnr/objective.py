"""Loss objective and operating-constraint checks for candidate configurations.

The figure of merit is the ohmic energy lost over the study interval:
for every closed branch, r * (P^2 + Q^2) / v^2 evaluated per-unit at the
sending end (the end nearer the island root), summed, scaled to MWh by the
system base and the interval length.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

# callers also look is_radial up on this module
from .model import (  # noqa: F401
    Configuration,
    ForestIndex,
    Island,
    NetworkCase,
    _compiled_case,
    _find,
    forest_index,
    is_radial,
)
from .powerflow import (
    _SOLVERS,
    IslandResult,
    NotConvergedError,
    PowerFlowSolution,
    SolverOptions,
    sending_ends,
    sequential_sum,
)

_EPS = 1e-9

# (excess, detail): how far one check is failed, and the detail its failure prints
_Excess = tuple[float, str]


@dataclass(frozen=True, slots=True)
class ConstraintCheck:
    name: str
    passed: bool
    detail: str


class _BranchTerms(Sequence):
    """A report's (branch id, MWh) pairs, made into a tuple when first read.

    The search reads only a candidate's objective value and feasibility, so
    a report keeps the arrays and leaves the pairs, about 0.1 ms at 1,000
    branches, to whatever reads them.  It compares equal to that tuple.
    """

    __slots__ = ("_ids", "_mwh", "_pairs")

    def __init__(self, ids: np.ndarray, mwh: np.ndarray):
        self._ids = ids
        self._mwh = mwh
        self._pairs: tuple[tuple[int, float], ...] | None = None

    def _tuple(self) -> tuple[tuple[int, float], ...]:
        if self._pairs is None:
            self._pairs = tuple(zip(self._ids.tolist(), self._mwh.tolist()))
        return self._pairs

    def __len__(self) -> int:
        return self._ids.size

    def __getitem__(self, i):
        return self._tuple()[i]

    def __iter__(self):
        return iter(self._tuple())

    def __eq__(self, other) -> bool:
        return self._tuple() == other

    def __hash__(self) -> int:
        return hash(self._tuple())

    def __repr__(self) -> str:
        return repr(self._tuple())


@dataclass(frozen=True)
class ObjectiveReport:
    fo_value: float  # MWh over the study interval
    per_branch_terms: Sequence[tuple[int, float]]  # a tuple, or one made when first read
    constraints: tuple[ConstraintCheck, ...]
    feasible: bool


@dataclass(frozen=True, slots=True)
class IslandScore:
    """One solved island's share of an ObjectiveReport.

    `terms` holds r (p^2 + q^2) / v^2, per-unit, for the island's branches
    in ascending position order.  `voltage`, `current` and `feeder` each
    hold the island's worst excess over its check's margin, the first of
    the largest in bus or branch order, with its detail; None where the
    island passes.  A diverged island has no terms and no excesses.
    """

    converged: bool
    terms: np.ndarray
    voltage: _Excess | None
    current: _Excess | None
    feeder: _Excess | None


_DIVERGED = IslandScore(False, np.empty(0), None, None, None)


def _score_island(
    case: NetworkCase, island: Island, v_mag: np.ndarray, power: np.ndarray, sending: np.ndarray, result: IslandResult
) -> IslandScore:
    """The island's score from `v_mag` per bus position, and `power` and the `sending` bus position per branch position.

    Every value has the bits of a scalar loop over the branches in id order:
    elementwise float64 arithmetic.
    """
    if not result.converged:
        return _DIVERGED
    compiled = _compiled_case(case)
    base = case.base_mva
    buses, branches = island.bus_positions, island.branch_positions
    at_bus = np.empty(compiled.bus_ids.size)  # read at the island's buses only
    at_bus[buses] = v_mag
    v = at_bus[sending]
    p = power[:, 0] / base
    q = power[:, 1] / base
    terms = compiled.resistance[branches] * (p * p + q * q) / (v * v)
    return IslandScore(
        True,
        terms,
        _voltage_excess(case, buses, v_mag),
        _current_excess(case, branches, power),
        _feeder_excess(case, result),
    )


def _voltage_excess(case: NetworkCase, buses: np.ndarray, v: np.ndarray) -> _Excess | None:
    compiled = _compiled_case(case)
    low, high = compiled.v_min[buses] - v, v - compiled.v_max[buses]
    excess = np.where(high > low, high, low)  # Python max(low, high)
    over = np.flatnonzero(excess > _EPS)
    if not over.size:
        return None
    worst = over[excess[over].argmax()]  # the first of the largest, as a scan keeps it
    bus_id, v = compiled.bus_ids[buses[worst]].item(), v[worst].item()
    bus = case.bus_by_id[bus_id]
    return excess[worst].item(), f"bus {bus_id} at {v:.4f} pu outside [{bus.v_min}, {bus.v_max}]"


def _current_excess(case: NetworkCase, branches: np.ndarray, power: np.ndarray) -> _Excess | None:
    compiled = _compiled_case(case)
    limits = compiled.mva_limit[branches]
    rated = np.flatnonzero(~np.isnan(limits))
    worst: _Excess | None = None
    # math.hypot per branch: np.hypot rounds differently
    for branch_id, (ps, qs, pr, qr), limit in zip(
        compiled.branch_ids[branches[rated]].tolist(), power[rated].tolist(), limits[rated].tolist()
    ):
        loading = max(math.hypot(ps, qs), math.hypot(pr, qr))
        excess = loading - limit
        if excess > 1e-6 and (worst is None or excess > worst[0]):
            worst = (excess, f"branch {branch_id} at {loading:.2f} MVA over its {limit:.2f} MVA rating")
    return worst


def _feeder_excess(case: NetworkCase, result: IslandResult) -> _Excess | None:
    limits = case.bus_by_id[result.root].q_limits
    if limits is None:
        return None
    q = result.slack_q_mvar
    excess = max(limits[0] - q, q - limits[1])
    if excess > 1e-6:
        return excess, f"feeder {result.root} delivers {q:.2f} MVAr outside [{limits[0]}, {limits[1]}]"
    return None


def _check(name: str, excesses: list[_Excess | None], passed: str) -> ConstraintCheck:
    """The check failed by the first of the largest excesses, in island order."""
    worst: _Excess | None = None
    for excess in excesses:
        if excess is not None and (worst is None or excess[0] > worst[0]):
            worst = excess
    if worst is None:
        return ConstraintCheck(name, True, passed)
    return ConstraintCheck(name, False, worst[1])


def _report(case: NetworkCase, index: ForestIndex, scores: list[IslandScore]) -> ObjectiveReport:
    """The report of a radial configuration from the scores of its islands, in root order.

    The terms are summed one at a time in branch id order, as a scalar loop
    over the closed branches adds them, and each check keeps the first of
    its largest excesses, so the report has the bits of one pass over the
    whole network.
    """
    compiled = _compiled_case(case)
    terms = np.empty(compiled.branch_ids.size)
    for island, score in zip(index.islands, scores):
        terms[island.branch_positions] = score.terms
    terms = terms[index.closed]
    base, hours = case.base_mva, case.delta_t_hours
    per_branch = _BranchTerms(compiled.branch_ids[index.closed], terms * base * hours)
    checks = (
        ConstraintCheck("radiality", True, "closed branches form a rooted spanning forest"),
        _check("voltage_limits", [s.voltage for s in scores], "all bus voltages within bounds"),
        _check("current_limits", [s.current for s in scores], "all rated branches within their MVA ratings"),
        _check("feeder_overload", [s.feeder for s in scores], "all feeder injections within machine limits"),
    )
    fo_value = sequential_sum(terms) * base * hours
    return ObjectiveReport(fo_value, per_branch, checks, all(c.passed for c in checks))


def evaluate_fo(
    case: NetworkCase, config: Configuration, solution: PowerFlowSolution
) -> ObjectiveReport:
    """Score a converged radial solution; closed branches carry unit weight.

    Each island's arrays are read out of the solution's columns by id and
    scored, and the report assembled, as an IslandMemo does with a solve's
    part.  The solution must be of this configuration: its islands' roots
    and its closed branches.
    """
    if not solution.converged:
        raise NotConvergedError("objective needs a converged power flow")
    index = forest_index(case, config)
    compiled = _compiled_case(case)
    v_mag, flows = solution.v_mag, solution.flows
    same_roots = [r.root for r in solution.islands] == [island.root for island in index.islands]
    if not (same_roots and np.array_equal(np.sort(flows.ids), compiled.branch_ids[index.closed])):
        raise ValueError("solution islands do not match the configuration's")
    scores = []
    for island, result in zip(index.islands, solution.islands):
        rows = flows.rows(compiled.branch_ids[island.branch_positions])
        v = v_mag.values[v_mag.rows(compiled.bus_ids[island.bus_positions])]
        sending = _find(compiled.bus_ids, flows.ends[rows, 0])
        scores.append(_score_island(case, island, v, flows.power[rows], sending, result))
    return _report(case, index, scores)


class IslandMemo:
    """The islands scored during one search, so that each distinct island is solved once.

    A branch exchange changes only the islands on one loop, and power flow
    is deterministic, so an island met again is answered from the memo.
    The key is the island's root and its branch positions as ascending
    int32 bytes, 4 B a branch (a frozenset of ids holds about 32 B per
    branch).  An entry is the island's IslandScore, 8 B a branch, taken
    from its solve's own part: a hit computes no flows and builds no
    solution.  `solves` counts the islands solved (one per entry) and
    `hits` the islands answered from the memo.

    A memo holds the scores of one case under one set of solver options,
    the case and options of its first report: a report asked for another
    case (another object) or other options raises ValueError.  A search
    makes its own and drops it when it returns.
    """

    def __init__(self) -> None:
        self._scores: dict[tuple[int, bytes], IslandScore] = {}
        self._bound: tuple[NetworkCase, SolverOptions] | None = None
        self.solves = 0
        self.hits = 0

    def report(self, case: NetworkCase, config: Configuration, options: SolverOptions) -> ObjectiveReport | None:
        """The configuration's report, as evaluate_fo gives it for its solution; None when an island diverged.

        Each island met for the first time is solved through _SOLVERS["nr"].
        The islands are taken in root order, and the first that diverged
        ends the report: the islands after it are neither solved nor counted.
        """
        if self._bound is None:
            self._bound = (case, options)
        elif self._bound[0] is not case or self._bound[1] != options:
            raise ValueError("an island memo answers for the case and solver options of its first report only")
        index = forest_index(case, config)
        sending = None
        scores = []
        for island in index.islands:
            key = (island.root, island.branch_positions.astype(np.int32).tobytes())
            score = self._scores.get(key)
            if score is None:
                if sending is None:
                    sending = sending_ends(case, index)
                part = _SOLVERS["nr"](case, island, options, sending)
                score = self._scores[key] = _score_island(
                    case, island, np.hypot(part.v.real, part.v.imag), part.power, part.ends[:, 0], part.islands[0]
                )
                self.solves += 1
            else:
                self.hits += 1
            if not score.converged:
                return None
            scores.append(score)
        return _report(case, index, scores)


def sort_key(report: ObjectiveReport) -> tuple[bool, float]:
    """Ordering tuple: feasible first, then lower objective."""
    return (not report.feasible, report.fo_value)
