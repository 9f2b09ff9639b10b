"""Branch-exchange local search over radial configurations.

One move closes an open switch and opens a closed switch on the loop that
closure would create, so radiality survives every step.  Walks slide the
open point along the loop, first toward the nearest neighbouring switch,
reversing direction once an attempt fails, and passes repeat until no move
is accepted.  A final exhaustive sweep certifies that no single exchange
improves the result, which directional walks alone cannot promise.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .model import Configuration, NetworkCase, is_radial
from .objective import ObjectiveReport, evaluate_fo, sort_key
from .powerflow import PowerFlowSolution, SolverOptions, solve_all_islands
from .surrogate import (
    FeatureVector,
    LinearModel,
    featurize,
    fit,
    rank_candidates,
    untrained_model,
)
from .topology import adjacent_switches, fundamental_loop


class RejectReason(Enum):
    WORSE_OBJECTIVE = "worse_objective"
    INFEASIBLE = "infeasible"
    POWER_FLOW_DIVERGED = "power_flow_diverged"


class SurrogateMode(Enum):
    RANK_ONLY = "rank_only"
    PRUNE = "prune"


class InitialInfeasibleError(RuntimeError):
    """The starting configuration cannot even be scored (not radial/diverged)."""


@dataclass(frozen=True, slots=True)
class Move:
    close_branch: int
    open_branch: int
    fo_before: float
    fo_after: float | None
    accepted: bool
    rejected_reason: RejectReason | None = None


@dataclass
class SearchTrace:
    moves: list[Move] = field(default_factory=list)
    evaluations: int = 0
    surrogate_hits: int = 0
    # every scored configuration, fuel for offline surrogate fits
    samples: list[tuple[FeatureVector, float]] = field(default_factory=list)

    @property
    def accepted_moves(self) -> list[Move]:
        return [m for m in self.moves if m.accepted]


@dataclass(frozen=True)
class SearchOptions:
    max_passes: int = 20
    use_surrogate: bool = True
    surrogate_mode: SurrogateMode = SurrogateMode.RANK_ONLY
    prune_threshold: float = 0.1
    solver: str = "nr"
    solver_options: SolverOptions = SolverOptions()


@dataclass(frozen=True)
class Rejection:
    reason: RejectReason
    report: ObjectiveReport | None = None
    detail: str = ""


def evaluate_candidate(
    case: NetworkCase,
    config: Configuration,
    options: SearchOptions = SearchOptions(),
) -> tuple[ObjectiveReport, PowerFlowSolution] | Rejection:
    """Score one configuration: radiality gate, power flow, then objective."""
    if not is_radial(case, config):
        return Rejection(RejectReason.INFEASIBLE, detail="not radial")
    solution = solve_all_islands(case, config, options.solver_options, options.solver)
    if not solution.converged:
        return Rejection(RejectReason.POWER_FLOW_DIVERGED, detail="power flow diverged")
    report = evaluate_fo(case, config, solution)
    if not report.feasible:
        failed = "; ".join(c.detail for c in report.constraints if not c.passed)
        return Rejection(RejectReason.INFEASIBLE, report, failed)
    return report, solution


# incumbent ordering: feasibility dominates, then the objective value
_Key = tuple[bool, float]


def _report_key(report: ObjectiveReport) -> _Key:
    return (not report.feasible, report.fo_value)


class _Search:
    def __init__(self, case: NetworkCase, options: SearchOptions):
        self.case = case
        self.options = options
        self.trace = SearchTrace()

    @property
    def samples(self) -> list[tuple[FeatureVector, float]]:
        return self.trace.samples

    def evaluate(self, config: Configuration) -> tuple[ObjectiveReport, PowerFlowSolution] | Rejection:
        outcome = evaluate_candidate(self.case, config, self.options)
        skipped_solve = isinstance(outcome, Rejection) and outcome.detail == "not radial"
        if not skipped_solve:
            self.trace.evaluations += 1
        report = outcome.report if isinstance(outcome, Rejection) else outcome[0]
        if report is not None:
            self.samples.append((featurize(self.case, config), report.fo_value))
        return outcome

    def attempt(
        self, config: Configuration, key: _Key, close_id: int, open_id: int
    ) -> tuple[Configuration, _Key] | None:
        """Try one exchange against the incumbent; log it either way."""
        candidate = config.with_exchange(close_id, open_id)
        outcome = self.evaluate(candidate)
        if isinstance(outcome, Rejection):
            # a scored-but-infeasible candidate can still better an infeasible
            # incumbent; anything unscorable cannot
            if outcome.report is not None and _report_key(outcome.report) < key:
                self.trace.moves.append(
                    Move(close_id, open_id, key[1], outcome.report.fo_value, True)
                )
                return candidate, _report_key(outcome.report)
            self.trace.moves.append(
                Move(
                    close_id,
                    open_id,
                    key[1],
                    outcome.report.fo_value if outcome.report else None,
                    False,
                    outcome.reason,
                )
            )
            return None
        report, _ = outcome
        if _report_key(report) < key:
            self.trace.moves.append(Move(close_id, open_id, key[1], report.fo_value, True))
            return candidate, _report_key(report)
        self.trace.moves.append(
            Move(close_id, open_id, key[1], report.fo_value, False, RejectReason.WORSE_OBJECTIVE)
        )
        return None

    def walk_loop(
        self, config: Configuration, key: _Key, switch: int
    ) -> tuple[Configuration, _Key]:
        """Slide the open point of one loop while the incumbent keeps improving.

        The loop is fixed once `switch` is chosen: its branches stay the
        cycle (or root-to-root path) regardless of which one is currently
        open.  Arms extend from the two ends of `switch`; a failed attempt
        flips direction, a second consecutive failure ends the walk.
        """
        loop = fundamental_loop(self.case, config, switch)
        switchable = {
            b for b in loop.branch_ids if self.case.branch_by_id[b].switchable
        }
        if not switchable:
            return config, key
        ordered = list(loop.branch_ids)
        if loop.inter_feeder:
            # disjoint arms of the root-to-root path, nearest branch first
            arm_u = list(reversed(ordered[: loop.u_side_count]))
            arm_v = ordered[loop.u_side_count :]
        else:
            # a cycle: either direction can slide the whole way around
            arm_u = ordered
            arm_v = list(reversed(ordered))
        arm_u = [b for b in arm_u if b in switchable]
        arm_v = [b for b in arm_v if b in switchable]
        nearest = next(
            b for b in adjacent_switches(self.case, config, switch) if b in switchable
        )
        arms = [arm_u, arm_v] if arm_u and arm_u[0] == nearest else [arm_v, arm_u]

        open_position = switch
        tried = {switch}
        cursor = [0, 0]
        direction = 0
        failed = [False, False]
        while not all(failed):
            arm = arms[direction]
            while cursor[direction] < len(arm) and arm[cursor[direction]] in tried:
                cursor[direction] += 1
            if cursor[direction] >= len(arm):
                failed[direction] = True
                direction = 1 - direction
                continue
            target = arm[cursor[direction]]
            tried.add(target)
            accepted = self.attempt(config, key, open_position, target)
            if accepted is not None:
                config, key = accepted
                open_position = target
                failed = [False, False]
            else:
                failed[direction] = True
                direction = 1 - direction
        return config, key

    def full_sweep(
        self, config: Configuration, key: _Key
    ) -> tuple[Configuration, _Key] | None:
        """Evaluate every single exchange; apply the best strict improvement."""
        best: tuple[tuple, Configuration, _Key, int, int] | None = None
        for switch in sorted(config.open_ids):
            if not self.case.branch_by_id[switch].switchable:
                continue
            loop = fundamental_loop(self.case, config, switch)
            for target in loop.branch_ids:
                if not self.case.branch_by_id[target].switchable:
                    continue
                candidate = config.with_exchange(switch, target)
                outcome = self.evaluate(candidate)
                report = outcome.report if isinstance(outcome, Rejection) else outcome[0]
                if report is not None and _report_key(report) < key:
                    rank = sort_key(report, branch_key=tuple(sorted(candidate.open_ids)))
                    if best is None or rank < best[0]:
                        best = (rank, candidate, _report_key(report), switch, target)
                    continue
                if isinstance(outcome, Rejection):
                    reason = outcome.reason
                else:
                    reason = RejectReason.WORSE_OBJECTIVE
                self.trace.moves.append(
                    Move(
                        switch,
                        target,
                        key[1],
                        report.fo_value if report is not None else None,
                        False,
                        reason,
                    )
                )
        if best is None:
            return None
        _, candidate, best_key, switch, target = best
        self.trace.moves.append(Move(switch, target, key[1], best_key[1], True))
        return candidate, best_key

    def order_switches(
        self, config: Configuration, fo: float, model: LinearModel
    ) -> list[int]:
        """Pass order over open switches, surrogate-ranked when possible."""
        open_ids = [b for b in sorted(config.open_ids) if self.case.branch_by_id[b].switchable]
        if not (self.options.use_surrogate and model.trained):
            return open_ids
        first_moves: dict[int, Configuration] = {}
        for switch in open_ids:
            ranked = adjacent_switches(self.case, config, switch)
            nearest = next(
                (b for b in ranked if self.case.branch_by_id[b].switchable), None
            )
            if nearest is not None:
                first_moves[switch] = config.with_exchange(switch, nearest)
        scoreable = list(first_moves)
        ranked_configs = rank_candidates(model, self.case, [first_moves[s] for s in scoreable])
        positions = {cfg: i for i, cfg in enumerate(ranked_configs)}
        reordered = sorted(scoreable, key=lambda s: positions[first_moves[s]])
        reordered += [s for s in open_ids if s not in first_moves]
        self.trace.surrogate_hits += sum(
            1 for before, after in zip(open_ids, reordered) if before != after
        )
        if self.options.surrogate_mode is SurrogateMode.PRUNE:
            keep = []
            for switch in reordered:
                cfg = first_moves.get(switch)
                if cfg is None:
                    keep.append(switch)
                    continue
                predicted = model.predict(featurize(self.case, cfg))
                if predicted <= fo * (1.0 + self.options.prune_threshold):
                    keep.append(switch)
            return keep
        return reordered


def improve(
    case: NetworkCase,
    initial: Configuration,
    options: SearchOptions = SearchOptions(),
    model: LinearModel | None = None,
) -> tuple[Configuration, SearchTrace]:
    """Drive branch exchanges from a radial start to a 1-exchange local optimum.

    Acceptance orders candidates by feasibility first, objective second, so a
    start that violates operating constraints (but still solves) is walked out
    of rather than refused; within a feasibility class the objective strictly
    falls, keeping the accepted trace monotone.  After a pass with no accepted
    move, the exhaustive sweep either certifies local optimality or supplies
    the improvement the walks missed.
    """
    search = _Search(case, options)
    outcome = search.evaluate(initial)
    if isinstance(outcome, Rejection):
        if outcome.report is None:
            raise InitialInfeasibleError(
                f"initial configuration rejected: {outcome.detail or outcome.reason.value}"
            )
        report = outcome.report
    else:
        report, _ = outcome
    config, key = initial, _report_key(report)
    model = model if model is not None and model.trained else untrained_model(case)

    passes = 0
    while passes < options.max_passes:
        passes += 1
        if options.use_surrogate:
            refit = fit(case, search.samples)
            if refit.trained:
                model = refit
        key_at_pass_start = key
        for switch in search.order_switches(config, key[1], model):
            if switch in config.closed:
                continue  # an earlier walk in this pass closed it
            config, key = search.walk_loop(config, key, switch)
        if key < key_at_pass_start:
            continue
        swept = search.full_sweep(config, key)
        if swept is None:
            break  # certified: no single exchange improves
        config, key = swept
    return config, search.trace
