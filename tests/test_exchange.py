"""Branch-exchange local search: candidate scoring, acceptance, certification."""
from __future__ import annotations

import dataclasses
import itertools

import pytest

from conftest import (
    DATA_DIR,
    assert_one_exchange_optimal,
    bench_feeders,
    fresh_outcome,
    outcome_fields,
    scaled_loads,
    search_samples,
    search_scores_as_fresh,
    two_bus_case,
)
from dnr.exchange import (
    InitialInfeasibleError,
    RejectReason,
    Rejection,
    SearchOptions,
    evaluate_candidate,
    improve,
)
from dnr import exchange, model, powerflow
from dnr.caseio import parse_case
from dnr.model import Branch, Bus, BusKind, NetworkCase, all_closed_config, is_radial, make_config
from dnr.objective import IslandMemo, ObjectiveReport, evaluate_fo
from dnr.powerflow import SolverOptions, solve_all_islands, solve_network
from dnr.surrogate import featurize
from dnr.topology import build_spanning_forest, weights_from_flow


def _forest_config(case):
    meshed = solve_network(case, all_closed_config(case))
    return build_spanning_forest(case, weights_from_flow(case, meshed)).config


def _counted_solves(monkeypatch) -> list:
    """The (root, branches) of every island solve from here on, in call order."""
    solved = []
    solve = powerflow._SOLVERS["nr"]

    def counted(case, island, *args, **kwargs):
        solved.append((island.root, island.branches))
        return solve(case, island, *args, **kwargs)

    monkeypatch.setitem(powerflow._SOLVERS, "nr", counted)
    return solved


def _enumerate_reports(case, need: int):
    switchable = sorted(b.id for b in case.branches if b.switchable)
    for closed in itertools.combinations(switchable, need):
        config = make_config(case, set(closed))
        if not is_radial(case, config):
            continue
        yield config, evaluate_candidate(case, config)


class TestEvaluateCandidate:
    def test_feasible_config_returns_its_report(self, six_bus_case):
        report = evaluate_candidate(six_bus_case, make_config(six_bus_case, {1, 2, 4, 5}))
        assert isinstance(report, ObjectiveReport)
        assert report.feasible
        assert report.fo_value == pytest.approx(8.72037, abs=1e-4)

    def test_each_call_without_a_memo_solves_every_island_once(
        self, ieee14_case, ieee14_search, monkeypatch
    ):
        solved = _counted_solves(monkeypatch)
        first = evaluate_candidate(ieee14_case, ieee14_search[0])
        assert sorted(root for root, _ in solved) == [1, 2]
        # nothing is kept between calls: the second solves both islands again
        second = evaluate_candidate(ieee14_case, ieee14_search[0])
        assert len(solved) == 4 and solved[2:] == solved[:2]
        assert outcome_fields(second) == outcome_fields(first)

    def test_one_candidate_walks_the_network_once(self, ieee14_case, ieee14_search, monkeypatch):
        # gate, island split, sending ends and objective all read one walk
        case = dataclasses.replace(ieee14_case)  # a new object, so nothing is memoised for it
        walks = []
        walk = model._walk
        monkeypatch.setattr(model, "_walk", lambda *args: walks.append(args) or walk(*args))
        result = evaluate_candidate(case, make_config(case, ieee14_search[0].closed))
        assert not isinstance(result, Rejection)
        assert len(walks) == 1

    def test_meshed_config_rejected_outright(self, ieee14_case):
        closed = set(ieee14_case.branch_by_id) - {17, 18, 19, 20, 16, 14, 15}
        config = make_config(ieee14_case, closed)  # 13 closed for 14 buses, 2 roots
        result = evaluate_candidate(ieee14_case, config)
        assert isinstance(result, Rejection)
        assert result.reason is RejectReason.INFEASIBLE
        assert result.detail == "not radial"
        assert result.report is None

    def test_stranded_load_rejected(self, six_bus_case):
        config = make_config(six_bus_case, {1, 2, 4, 6})  # bus 5 unreachable
        result = evaluate_candidate(six_bus_case, config)
        assert isinstance(result, Rejection)
        assert result.reason is RejectReason.INFEASIBLE
        assert result.detail == "not radial"

    def test_divergent_load_rejected(self):
        case = two_bus_case(5000.0, 2000.0)
        result = evaluate_candidate(case, make_config(case, {1}))
        assert isinstance(result, Rejection)
        assert result.reason is RejectReason.POWER_FLOW_DIVERGED
        assert result.report is None

    def test_ieee14_flow_forest_scores_but_sags(self, ieee14_case, ieee14_forest):
        # the max-flow forest leaves bus 14 on a long lateral below the band
        result = evaluate_candidate(ieee14_case, ieee14_forest.config)
        assert isinstance(result, Rejection)
        assert result.reason is RejectReason.INFEASIBLE
        assert result.report is not None
        assert result.report.fo_value > 0.0
        assert result.report.fo_value == pytest.approx(19.9484, abs=1e-3)
        assert "bus 14" in result.detail

    def test_constraint_infeasible_keeps_report(self, six_bus_case):
        result = evaluate_candidate(six_bus_case, make_config(six_bus_case, {1, 3, 4, 6}))
        assert isinstance(result, Rejection)
        assert result.reason is RejectReason.INFEASIBLE
        assert result.report is not None
        assert not result.report.feasible
        failed = [c.name for c in result.report.constraints if not c.passed]
        assert "voltage_limits" in failed


class TestImproveFixedPoint:
    def test_triangle_optimum_is_stable(self, triangle_case):
        initial = make_config(triangle_case, {1, 2})
        final, trace = improve(triangle_case, initial)
        assert final == initial
        assert not trace.accepted_moves
        assert trace.evaluations > 0  # the certification sweep still scored neighbors

    def test_triangle_detour_start_reaches_enumerated_best(self, triangle_case):
        best = min(
            result.fo_value
            for _, result in _enumerate_reports(triangle_case, 2)
            if not isinstance(result, Rejection) and result.feasible
        )
        final, trace = improve(triangle_case, make_config(triangle_case, {1, 3}))
        result = evaluate_candidate(triangle_case, final)
        assert not isinstance(result, Rejection)
        assert result.fo_value == pytest.approx(best, rel=1e-9)
        assert len(trace.accepted_moves) >= 1

    def test_rerun_from_result_accepts_nothing(self, ieee14_case, ieee14_search):
        final, _ = ieee14_search
        again, trace = improve(ieee14_case, final)
        assert again == final
        assert not trace.accepted_moves


class TestImproveIeee14:
    def test_final_configuration(self, ieee14_case, ieee14_search):
        final, trace = ieee14_search
        report = evaluate_candidate(ieee14_case, final)
        assert not isinstance(report, Rejection)
        assert report.feasible
        assert solve_all_islands(ieee14_case, final).converged
        assert report.fo_value == pytest.approx(11.383316, abs=1e-4)
        assert sorted(final.open_ids) == [1, 5, 6, 7, 9, 16, 19, 20]

    def test_escapes_the_sagging_forest(self, ieee14_case, ieee14_forest, ieee14_search):
        start = evaluate_candidate(ieee14_case, ieee14_forest.config)
        assert isinstance(start, Rejection) and start.report is not None
        final, _ = ieee14_search
        result = evaluate_candidate(ieee14_case, final)
        assert not isinstance(result, Rejection)
        assert result.fo_value < start.report.fo_value

    def test_accepted_moves_strictly_decrease(self, ieee14_search):
        _, trace = ieee14_search
        accepted = trace.accepted_moves
        assert len(accepted) >= 1
        for move in accepted:
            assert move.fo_after < move.fo_before
        for earlier, later in itertools.pairwise(accepted):
            assert later.fo_after < earlier.fo_after

    def test_radiality_preserved_along_the_walk(
        self, ieee14_case, ieee14_forest, ieee14_search
    ):
        final, trace = ieee14_search
        config = ieee14_forest.config
        for move in trace.accepted_moves:
            config = config.with_exchange(
                close_branch=move.close_branch, open_branch=move.open_branch
            )
            assert is_radial(ieee14_case, config)
        assert config == final

    def test_move_and_trace_invariants(self, ieee14_search):
        _, trace = ieee14_search
        for move in trace.moves:
            assert move.close_branch != move.open_branch
            if move.accepted:
                assert move.rejected_reason is None
                assert move.fo_after < move.fo_before
            else:
                assert move.rejected_reason is not None
        assert trace.evaluations >= len(trace.accepted_moves)
        # 10 evaluations repeat a configuration and are answered whole by the
        # search's configuration memo; each of the 28 distinct ones is radial
        # with two islands, solved or answered by the island memo up to the
        # first that diverged, and 6 diverged at the island fed from bus 1
        assert (trace.evaluations, trace.config_hits) == (38, 10)
        assert trace.island_solves + trace.island_hits == 2 * 28 - 6

    @pytest.mark.parametrize("roots", [(1,), (1, 3)], ids=["1", "1,3"])
    def test_ieee14_search_ends_one_exchange_optimal(self, ieee14_text, roots):
        # fed from buses 1 and 3 the search takes four passes, the most of any root set tried
        case = parse_case(ieee14_text, fmt="cdf", roots=roots)
        final, _ = improve(case, _forest_config(case))
        assert_one_exchange_optimal(case, final)


class TestImproveSixBus:
    def test_escape_needs_one_inter_feeder_move(self, six_bus_case):
        initial = _forest_config(six_bus_case)
        assert sorted(initial.open_ids) == [2, 5]
        start = evaluate_candidate(six_bus_case, initial)
        assert isinstance(start, Rejection)  # undervoltage at bus 6, still scored
        final, trace = improve(six_bus_case, initial)
        assert sorted(final.open_ids) == [5, 6]
        accepted = trace.accepted_moves
        assert [(m.close_branch, m.open_branch) for m in accepted] == [(2, 6)]

    def test_reaches_enumerated_global_optimum(self, six_bus_case):
        rows = [
            result.fo_value
            for _, result in _enumerate_reports(six_bus_case, 4)
            if not isinstance(result, Rejection) and result.feasible
        ]
        final, _ = improve(six_bus_case, _forest_config(six_bus_case))
        result = evaluate_candidate(six_bus_case, final)
        assert not isinstance(result, Rejection)
        assert result.fo_value == pytest.approx(min(rows), rel=1e-9)
        assert result.fo_value == pytest.approx(6.125326, abs=1e-4)

    def test_one_exchange_local_optimality_by_enumeration(self, six_bus_case):
        final, _ = improve(six_bus_case, _forest_config(six_bus_case))
        base = evaluate_candidate(six_bus_case, final)
        assert not isinstance(base, Rejection)
        for config, result in _enumerate_reports(six_bus_case, 4):
            if isinstance(result, Rejection) or not result.feasible:
                continue
            swaps = len(set(config.open_ids) ^ set(final.open_ids)) // 2
            if swaps <= 1:
                assert result.fo_value >= base.fo_value - 1e-9


class TestImproveGuards:
    def test_meshed_start_raises(self, triangle_case):
        with pytest.raises(InitialInfeasibleError):
            improve(triangle_case, all_closed_config(triangle_case))

    def test_divergent_start_raises(self):
        case = two_bus_case(5000.0, 2000.0)
        with pytest.raises(InitialInfeasibleError):
            improve(case, make_config(case, {1}))

    def test_scored_infeasible_start_is_allowed(self, six_bus_case):
        # undervoltage starts stay searchable; only unscorable ones are refused
        final, _ = improve(six_bus_case, _forest_config(six_bus_case))
        result = evaluate_candidate(six_bus_case, final)
        assert not isinstance(result, Rejection)
        assert result.feasible


@pytest.fixture(scope="module")
def two_runs(ieee14_text):
    # fed from bus 1 alone, the search runs long enough for the surrogate to
    # fit and reorder; fed from buses 1 and 2 it ends before the first fit
    case = parse_case(ieee14_text, fmt="cdf", roots=(1,))
    start = _forest_config(case)
    runs = {}
    for label, opts in (
        ("none", SearchOptions(use_surrogate=False)),
        ("rank", SearchOptions()),
    ):
        runs[label] = improve(case, start, options=opts)
    return runs


class TestSurrogateNeutrality:
    def test_final_objective_identical(self, ieee14_text, two_runs):
        case = parse_case(ieee14_text, fmt="cdf", roots=(1,))
        values = {}
        for label, (config, _) in two_runs.items():
            result = evaluate_candidate(case, config)
            assert not isinstance(result, Rejection)
            values[label] = result.fo_value
        assert values["rank"] == pytest.approx(values["none"], abs=1e-9)

    def test_ranking_never_costs_evaluations(self, two_runs):
        evals = {label: trace.evaluations for label, (_, trace) in two_runs.items()}
        assert evals["rank"] <= evals["none"]

    def test_rank_mode_reorders_but_none_mode_never_consults(self, two_runs):
        assert two_runs["none"][1].surrogate_hits == 0
        assert two_runs["rank"][1].surrogate_hits > 0


class TestSurrogateOff:
    def test_no_search_sample_is_featurized(self, ieee14_case, ieee14_forest, monkeypatch):
        # samples feed only surrogate fits, so with the surrogate off none is kept
        calls = []
        featurize = exchange.featurize
        monkeypatch.setattr(exchange, "featurize", lambda *args: calls.append(args) or featurize(*args))
        config, trace = improve(ieee14_case, ieee14_forest.config, options=SearchOptions(use_surrogate=False))
        assert calls == []
        # the configuration and trace the search gave while it still featurized every scored candidate
        assert sorted(config.open_ids) == [1, 5, 6, 7, 9, 16, 19, 20]
        assert (trace.evaluations, len(trace.moves), trace.island_solves, trace.island_hits) == (38, 37, 36, 14)
        assert trace.config_hits == 10
        reasons = [move.rejected_reason for move in trace.moves]
        assert [reasons.count(reason) for reason in RejectReason] == [20, 2, 13]
        accepted = [
            (m.close_branch, m.open_branch, m.fo_before.hex(), m.fo_after.hex()) for m in trace.moves if m.accepted
        ]
        assert accepted == [
            (4, 7, "0x1.3f2ca43979a6bp+4", "0x1.7b2dc7be6c585p+3"),
            (18, 16, "0x1.7b2dc7be6c585p+3", "0x1.6c441faa41131p+3"),
        ]


class TestSingleScoringPath:
    """Every candidate is scored, counted and logged by the same two steps."""

    def test_accepted_exactly_when_no_reason(self, two_runs):
        for _, trace in two_runs.values():
            assert trace.moves
            for move in trace.moves:
                assert move.accepted == (move.rejected_reason is None)
                diverged = move.rejected_reason is RejectReason.POWER_FLOW_DIVERGED
                assert (move.fo_after is None) == diverged

    @pytest.mark.parametrize(
        "options",
        [SearchOptions(use_surrogate=False), SearchOptions()],
        ids=["none", "rank"],
    )
    def test_evaluations_count_every_candidate_call(
        self, ieee14_case, ieee14_forest, monkeypatch, options
    ):
        calls = []
        score = exchange.evaluate_candidate
        monkeypatch.setattr(
            exchange, "evaluate_candidate", lambda *args: calls.append(args[1]) or score(*args)
        )
        _, trace = improve(ieee14_case, ieee14_forest.config, options=options)
        # a repeated configuration is answered without a call, and counted
        assert trace.evaluations - trace.config_hits == len(calls)
        # the start is scored once and every other evaluation is a logged move
        assert trace.evaluations == len(trace.moves) + 1

    def test_each_distinct_configuration_is_evaluated_once(self, ieee14_case, ieee14_forest, monkeypatch):
        calls = []
        score = exchange.evaluate_candidate
        monkeypatch.setattr(
            exchange, "evaluate_candidate", lambda *args: calls.append(args[1]) or score(*args)
        )
        start = ieee14_forest.config
        _, trace = improve(ieee14_case, start)
        # the configurations the moves name, replayed from the start
        incumbent, met = start, {start.closed}
        for move in trace.moves:
            candidate = incumbent.with_exchange(move.close_branch, move.open_branch)
            met.add(candidate.closed)
            if move.accepted:
                incumbent = candidate
        assert sorted(sorted(c.closed) for c in calls) == sorted(sorted(closed) for closed in met)
        assert trace.evaluations - trace.config_hits == len(met) == 28

    def test_surrogate_samples_are_those_of_scoring_every_evaluation_afresh(self, ieee14_case, ieee14_forest):
        # each evaluation, repeats included, adds the sample that scoring its
        # configuration with no memo at all gives, in evaluation order
        scored, samples, trace = search_samples(ieee14_case, ieee14_forest.config)
        assert len(scored) == trace.evaluations and trace.config_hits > 0
        expected = []
        for config in scored:
            outcome = fresh_outcome(ieee14_case, config)
            report = outcome.report if isinstance(outcome, Rejection) else outcome
            if report is not None:
                expected.append((featurize(ieee14_case, config), report.fo_value))
        assert len(samples) == 25
        assert [([x.hex() for x in f], fo.hex()) for f, fo in samples] == [
            ([x.hex() for x in f], fo.hex()) for f, fo in expected
        ]

    def test_non_radial_start_is_refused_before_scoring(self, triangle_case, monkeypatch):
        solved = _counted_solves(monkeypatch)
        with pytest.raises(InitialInfeasibleError, match="^initial configuration rejected: not radial$"):
            improve(triangle_case, all_closed_config(triangle_case))
        assert solved == []


class TestIslandMemo:
    """A search solves each distinct island once and answers the repeats from its memo."""

    def test_each_move_scores_as_a_fresh_evaluation(self, ieee14_case, ieee14_forest, ieee14_search):
        final, trace = search_scores_as_fresh(ieee14_case, ieee14_forest.config)
        assert final == ieee14_search[0] and trace.moves == ieee14_search[1].moves

    def test_only_distinct_islands_reach_the_solver_in_each_search(
        self, ieee14_case, ieee14_forest, monkeypatch
    ):
        solved = _counted_solves(monkeypatch)
        traces = [improve(ieee14_case, ieee14_forest.config)[1] for _ in range(2)]
        # a memo that outlived its search would leave the second nothing to solve
        assert [(t.evaluations, t.island_solves, t.island_hits) for t in traces] == [(38, 36, 14)] * 2
        assert len(solved) == 72 and len(set(solved[:36])) == 36 and solved[36:] == solved[:36]

    def test_a_memo_answers_for_its_first_case_only(self, ieee14_case, ieee14_search):
        final = ieee14_search[0]
        memo = IslandMemo()
        assert evaluate_candidate(ieee14_case, final, memo=memo).fo_value == pytest.approx(11.3833, abs=1e-4)
        # the same configuration with loads 30% heavier loses more
        heavier = scaled_loads(ieee14_case, 1.3)
        config = make_config(heavier, final.closed)
        assert evaluate_candidate(heavier, config).fo_value == pytest.approx(20.5014, abs=1e-4)
        with pytest.raises(ValueError, match="case and solver options of its first report"):
            evaluate_candidate(heavier, config, memo=memo)
        # the memo knows its case by identity, not by value
        with pytest.raises(ValueError, match="case and solver options of its first report"):
            evaluate_candidate(dataclasses.replace(ieee14_case), final, memo=memo)
        assert memo.hits == 0

    def test_a_memo_answers_for_its_first_solver_options_only(self, ieee14_case, ieee14_search):
        final = ieee14_search[0]
        memo = IslandMemo()
        loose = SearchOptions(solver_options=SolverOptions(tolerance=1e-2, max_iterations=2))
        outcome = evaluate_candidate(ieee14_case, final, loose, memo)
        assert isinstance(outcome, Rejection) and outcome.reason is RejectReason.POWER_FLOW_DIVERGED
        assert not isinstance(evaluate_candidate(ieee14_case, final), Rejection)
        with pytest.raises(ValueError, match="case and solver options of its first report"):
            evaluate_candidate(ieee14_case, final, SearchOptions(), memo)
        # equal options are the same options
        again = SearchOptions(solver_options=SolverOptions(tolerance=1e-2, max_iterations=2))
        assert outcome_fields(evaluate_candidate(ieee14_case, final, again, memo)) == outcome_fields(outcome)
        # the island fed from bus 1 diverges first, so the other is never met
        assert (memo.solves, memo.hits) == (1, 1)

    @pytest.mark.parametrize(
        ("roots", "solved_roots"), [((1, 3), [1]), ((3, 1), [3, 1])], ids=["heavy-first", "light-first"]
    )
    def test_the_first_diverged_island_ends_the_report(self, monkeypatch, roots, solved_roots):
        # two lines apart: bus 1 feeds a load no operating point carries, bus 3 a light one
        buses = (
            Bus(1, BusKind.FEEDER, v_setpoint=1.0),
            Bus(2, p_load=5000.0, q_load=2000.0),
            Bus(3, BusKind.FEEDER, v_setpoint=1.0),
            Bus(4, p_load=10.0, q_load=5.0),
        )
        branches = (Branch(1, 1, 2, r=0.01, x=0.05), Branch(2, 3, 4, r=0.01, x=0.05))
        case = NetworkCase(100.0, buses, branches, roots=roots)
        config = make_config(case, {1, 2})
        solved = _counted_solves(monkeypatch)
        memo = IslandMemo()
        assert memo.report(case, config, SolverOptions()) is None
        # islands are met in root order, and none after the one that diverged
        assert [root for root, _ in solved] == solved_roots
        assert (memo.solves, memo.hits) == (len(solved_roots), 0)
        assert memo.report(case, config, SolverOptions()) is None
        assert (memo.solves, memo.hits) == (len(solved_roots), len(solved_roots))


class TestReconfigure:
    @pytest.mark.parametrize("case_name", ["ieee14_case", "six_bus_case"])
    def test_equals_the_chain_written_out(self, request, case_name):
        case = request.getfixturevalue(case_name)
        start = _forest_config(case)
        config, trace = improve(case, start)
        solution = solve_all_islands(case, config)
        result = exchange.reconfigure(case)
        assert (result.start, result.config) == (start, config)
        assert result.trace.moves == trace.moves
        assert dict(result.solution.v_mag) == dict(solution.v_mag)
        assert dict(result.solution.v_angle) == dict(solution.v_angle)
        assert dict(result.solution.flows) == dict(solution.flows)
        assert result.objective.fo_value == evaluate_fo(case, config, solution).fo_value

    @pytest.mark.parametrize(
        "case_file, roots",
        [
            ("ieee14.cdf", (1, 2)),
            ("baran_wu_33.json", None),
            ("ieee14.cdf", (1, 3)),
            ("ieee14.cdf", (2, 6, 8)),
            ("ieee14.cdf", (2, 3, 6, 8)),
            # bench/feeders.py's generate(seed, roots, buses, 12)
            ("feeder:1,3,200", None),
            ("feeder:1,1,1000", None),
        ],
    )
    def test_only_the_start_walks_the_whole_network(self, case_file, roots, monkeypatch):
        # every candidate's forest, a first move's and the answer's too, is
        # derived from its incumbent's, and the final solve and score read
        # the answer's
        kind, _, spec = case_file.partition(":")
        if kind == "feeder":
            text = bench_feeders().generate(*(int(part) for part in spec.split(",")), 12)[0]
        else:
            text = (DATA_DIR / case_file).read_text()
        case = parse_case(text, roots=roots)
        walks = []
        walk = model._walk
        monkeypatch.setattr(model, "_walk", lambda *args: walks.append(args) or walk(*args))
        result = exchange.reconfigure(case)
        assert [closed for _, closed in walks] == [result.start.closed]

    def test_a_diverged_all_closed_flow_raises(self):
        case = parse_case((DATA_DIR / "two_bus_collapse.json").read_text())
        with pytest.raises(InitialInfeasibleError, match="all-closed power flow did not converge"):
            exchange.reconfigure(case)

    def test_a_diverged_start_raises(self, ieee14_text):
        # fed from buses 1, 6 and 8 the meshed flow converges, the forest it weights does not
        case = parse_case(ieee14_text, fmt="cdf", roots=(1, 6, 8))
        with pytest.raises(InitialInfeasibleError, match="initial configuration rejected: power flow diverged"):
            exchange.reconfigure(case)

    def test_options_reach_the_search_and_every_solve(self, ieee14_text, ieee14_case):
        # fed from bus 1 alone, the search's surrogate fits and reorders
        fed_from_1 = parse_case(ieee14_text, fmt="cdf", roots=(1,))
        assert exchange.reconfigure(fed_from_1).trace.surrogate_hits == 13
        unranked = exchange.reconfigure(fed_from_1, SearchOptions(use_surrogate=False))
        assert unranked.trace.surrogate_hits == 0
        starved = SearchOptions(solver_options=SolverOptions(max_iterations=1))
        with pytest.raises(InitialInfeasibleError, match="all-closed"):
            exchange.reconfigure(ieee14_case, starved)
