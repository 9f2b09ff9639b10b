"""Branch-exchange local search over radial configurations.

One move closes an open switch and opens a closed switch on the loop that
closure would create, so radiality survives every step.  A pass gives each
open switch's loop one try: the exchange that the loss-change estimate of
Civanlar et al. (IEEE TPWRD 1988) ranks best.  The estimate holds every
bus's current at its flat-voltage value, I = -conj(S), and gives the change
in the loss sum of r |I|^2 of opening each loop branch in closed form
(`topology.loss_changes`); the incumbent's currents are computed once per
accepted move, and each candidate's forest is derived from the
incumbent's (`model.exchanged`), not walked.  Passes repeat until no
move is accepted.  A final exhaustive sweep certifies that no single
exchange improves the result, which the estimate alone cannot promise.
`reconfigure` runs the whole method, from the all-closed flow to the score.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .model import Configuration, NetworkCase, all_closed_config, exchanged, is_radial
from .objective import IslandMemo, ObjectiveReport, evaluate_fo, sort_key
from .powerflow import PowerFlowSolution, SolverOptions, solve_all_islands, solve_network
from .surrogate import LinearModel, featurize, fit, rank_candidates, untrained_model
from .topology import (
    FlatCurrents,
    build_spanning_forest,
    flat_currents,
    fundamental_loop,
    loss_changes,
    weights_from_flow,
)


class RejectReason(Enum):
    WORSE_OBJECTIVE = "worse_objective"
    INFEASIBLE = "infeasible"
    POWER_FLOW_DIVERGED = "power_flow_diverged"


class InitialInfeasibleError(RuntimeError):
    """No start to search from: the all-closed flow or the start diverged, or it is not radial."""


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
    evaluations: int = 0  # candidates scored, a repeated configuration included
    config_hits: int = 0  # evaluations answered by the search's configuration memo
    surrogate_hits: int = 0
    # the search's IslandMemo, read when the search returns: islands solved and answered without a solve
    island_solves: int = 0
    island_hits: int = 0

    @property
    def accepted_moves(self) -> list[Move]:
        return [m for m in self.moves if m.accepted]


@dataclass(frozen=True)
class SearchOptions:
    use_surrogate: bool = True
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
    memo: IslandMemo | None = None,
) -> ObjectiveReport | Rejection:
    """Score one configuration: radiality gate, then its report from an island memo.

    The memo solves only the islands it has not met; without one, a new
    memo solves every island of this configuration once.
    """
    if not is_radial(case, config):
        return Rejection(RejectReason.INFEASIBLE, detail="not radial")
    if memo is None:
        memo = IslandMemo()
    report = memo.report(case, config, options.solver_options)
    if report is None:
        return Rejection(RejectReason.POWER_FLOW_DIVERGED, detail="power flow diverged")
    if not report.feasible:
        failed = "; ".join(c.detail for c in report.constraints if not c.passed)
        return Rejection(RejectReason.INFEASIBLE, report, failed)
    return report


# incumbent ordering: objective.sort_key
_Key = tuple[bool, float]


@dataclass(frozen=True, slots=True)
class _Scored:
    """What the search reads of one configuration's evaluation, kept for its repeats."""

    key: _Key | None  # None when the configuration could not be scored
    reason: RejectReason | None  # None when it passed every check
    detail: str
    features: tuple[float, ...] | None  # its surrogate sample's features, when samples are kept


class _Search:
    """One search's state: its trace, and what lives only while it runs."""

    def __init__(self, case: NetworkCase, options: SearchOptions):
        self.case = case
        self.options = options
        self.trace = SearchTrace()
        self.memo = IslandMemo()
        # one entry per distinct configuration, keyed by its open branch ids:
        # a few ids, where the closed set holds nearly every branch
        self.scored: dict[frozenset[int], _Scored] = {}
        # features and objective of every scored configuration, for surrogate
        # fits; kept only when the surrogate is on, since nothing else reads them
        self.samples: list[tuple[tuple[float, ...], float]] = []
        # the configuration the estimate's currents and its picks, per open
        # switch, were made in
        self.incumbent: Configuration | None = None
        self.currents: FlatCurrents | None = None
        self.picks: dict[int, int | None] = {}

    def score(self, config: Configuration) -> _Scored:
        """Evaluate one configuration, count it and keep its surrogate sample if the surrogate is on.

        A configuration met before in this search is answered from its first
        evaluation; it still counts as an evaluation and adds its sample again.
        """
        self.trace.evaluations += 1
        open_ids = config.open_ids
        scored = self.scored.get(open_ids)
        if scored is None:
            outcome = evaluate_candidate(self.case, config, self.options, self.memo)
            if isinstance(outcome, Rejection):
                report, reason, detail = outcome.report, outcome.reason, outcome.detail
            else:
                report, reason, detail = outcome, None, ""
            features = None
            if report is not None and self.options.use_surrogate:
                features = featurize(self.case, config)
            key = None if report is None else sort_key(report)
            scored = self.scored[open_ids] = _Scored(key, reason, detail, features)
        else:
            self.trace.config_hits += 1
        if scored.features is not None:
            self.samples.append((scored.features, scored.key[1]))
        return scored

    def log(self, close_id: int, open_id: int, key: _Key, scored: _Scored, accepted: bool) -> None:
        """Record one tried exchange; a rejected one gives its reason, a worse objective when it passed."""
        fo_after = scored.key[1] if scored.key is not None else None
        reason = None if accepted else scored.reason or RejectReason.WORSE_OBJECTIVE
        self.trace.moves.append(Move(close_id, open_id, key[1], fo_after, accepted, reason))

    def attempt(
        self, config: Configuration, key: _Key, close_id: int, open_id: int
    ) -> tuple[Configuration, _Key] | None:
        """Try one exchange against the incumbent; log it either way, and return the candidate if it is better."""
        candidate = exchanged(self.case, config, close_id, open_id)
        scored = self.score(candidate)
        # a scored-but-infeasible candidate can still better an infeasible
        # incumbent; anything unscorable cannot
        better = scored.key is not None and scored.key < key
        self.log(close_id, open_id, key, scored, better)
        if not better:
            return None
        return candidate, scored.key

    def pick(self, config: Configuration, switch: int) -> int | None:
        """The switchable branch on `switch`'s loop that the estimate ranks best, by (change, id).

        None when the loop has no switchable branch.  The currents are
        computed once per configuration, and each loop's pick once per
        configuration and switch.
        """
        if config is not self.incumbent:
            self.incumbent, self.currents, self.picks = config, flat_currents(self.case, config), {}
        if switch not in self.picks:
            loop = fundamental_loop(self.case, config, switch)
            changes = loss_changes(self.case, self.currents, switch, loop)
            branches = self.case.branch_by_id
            self.picks[switch] = min(
                ((change, b) for change, b in zip(changes.tolist(), loop.branch_ids) if branches[b].switchable),
                default=(None, None),
            )[1]
        return self.picks[switch]

    def full_sweep(
        self, config: Configuration, key: _Key
    ) -> tuple[Configuration, _Key] | None:
        """Evaluate every single exchange; apply the best strict improvement."""
        best: tuple[tuple, Configuration, int, int, _Scored] | None = None
        for switch in sorted(config.open_ids):
            if not self.case.branch_by_id[switch].switchable:
                continue
            loop = fundamental_loop(self.case, config, switch)
            for target in loop.branch_ids:
                if not self.case.branch_by_id[target].switchable:
                    continue
                candidate = exchanged(self.case, config, switch, target)
                scored = self.score(candidate)
                if scored.key is not None and scored.key < key:
                    rank = (*scored.key, tuple(sorted(candidate.open_ids)))
                    if best is None or rank < best[0]:
                        best = (rank, candidate, switch, target, scored)
                    continue
                self.log(switch, target, key, scored, False)
        if best is None:
            return None
        _, candidate, switch, target, scored = best
        self.log(switch, target, key, scored, True)
        return candidate, scored.key

    def order_switches(self, config: Configuration, model: LinearModel) -> list[int]:
        """Pass order over open switches, surrogate-ranked when possible."""
        open_ids = [b for b in sorted(config.open_ids) if self.case.branch_by_id[b].switchable]
        if not (self.options.use_surrogate and model.trained):
            return open_ids
        first_moves: dict[int, Configuration] = {}
        for switch in open_ids:
            target = self.pick(config, switch)
            if target is not None:
                first_moves[switch] = exchanged(self.case, config, switch, target)
        scoreable = list(first_moves)
        ranked_configs = rank_candidates(model, self.case, [first_moves[s] for s in scoreable])
        positions = {cfg: i for i, cfg in enumerate(ranked_configs)}
        reordered = sorted(scoreable, key=lambda s: positions[first_moves[s]])
        reordered += [s for s in open_ids if s not in first_moves]
        self.trace.surrogate_hits += sum(
            1 for before, after in zip(open_ids, reordered) if before != after
        )
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
    an improvement the estimate's picks missed.

    `model` warm-starts the surrogate's ranking until the search history
    can fit its own; the parameter goes when the surrogate does.
    """
    search = _Search(case, options)
    scored = search.score(initial)
    if scored.key is None:
        raise InitialInfeasibleError(f"initial configuration rejected: {scored.detail}")
    config, key = initial, scored.key
    model = model if model is not None and model.trained else untrained_model()

    # each pass strictly lowers the key or ends the search, and a case has
    # finitely many radial configurations, so the loop ends
    while True:
        if options.use_surrogate:
            refit = fit(case, search.samples)
            if refit.trained:
                model = refit
        key_at_pass_start = key
        for switch in search.order_switches(config, model):
            if switch in config.closed:
                continue  # an earlier move in this pass closed it
            target = search.pick(config, switch)
            if target is not None and (accepted := search.attempt(config, key, switch, target)) is not None:
                config, key = accepted
        if key < key_at_pass_start:
            continue
        swept = search.full_sweep(config, key)
        if swept is None:
            break  # certified: no single exchange improves
        config, key = swept
    search.trace.island_solves, search.trace.island_hits = search.memo.solves, search.memo.hits
    return config, search.trace


@dataclass(frozen=True)
class Reconfiguration:
    """One run of the method: its radial start, the searched configuration and its final solve and score."""
    start: Configuration
    config: Configuration
    trace: SearchTrace
    solution: PowerFlowSolution
    objective: ObjectiveReport


def reconfigure(case: NetworkCase, options: SearchOptions = SearchOptions()) -> Reconfiguration:
    """All-closed solve, flow-weighted spanning forest, branch exchange, final per-island solve and score."""
    meshed = solve_network(case, all_closed_config(case), options=options.solver_options)
    if not meshed.converged:
        raise InitialInfeasibleError("all-closed power flow did not converge")
    start = build_spanning_forest(case, weights_from_flow(case, meshed)).config
    config, trace = improve(case, start, options)
    solution = solve_all_islands(case, config, options.solver_options)
    return Reconfiguration(start, config, trace, solution, evaluate_fo(case, config, solution))
