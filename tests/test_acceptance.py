"""End-to-end acceptance checks, one test per shipped guarantee."""
from __future__ import annotations

import itertools
import time

import numpy as np
import pytest

from conftest import (
    fd_jacobian,
    island_of,
    oracle_is_radial,
    random_four_bus,
    solve_gauss_seidel,
    solver_jacobian,
    voltage,
)
from dnr.caseio import parse_case, write_native_case
from dnr.exchange import Rejection, SearchOptions, evaluate_candidate, improve
from dnr.model import all_closed_config, is_radial, islands, make_config
from dnr.powerflow import (
    SolverOptions,
    _classify,
    solve_all_islands,
    solve_network,
)
from dnr.topology import build_spanning_forest, fundamental_loop, weights_from_flow

BASE_CASE_LOSS_MW = 13.436


@pytest.mark.acceptance(1, "meshed IEEE-14 power flow nails the base-case loss")
def test_criterion_1_base_case_loss(ieee14_text):
    started = time.perf_counter()
    case = parse_case(ieee14_text, fmt="cdf", roots=[1, 2])
    solution = solve_network(case, all_closed_config(case))
    elapsed = time.perf_counter() - started

    assert solution.converged
    assert solution.iterations <= 10
    assert abs(solution.total_loss_mw - BASE_CASE_LOSS_MW) / BASE_CASE_LOSS_MW <= 0.01
    assert elapsed < 1.0


@pytest.mark.acceptance(2, "reconfiguration beats the meshed loss and certifies local optimality")
def test_criterion_2_reconfiguration_improves(ieee14_text):
    started = time.perf_counter()
    case = parse_case(ieee14_text, fmt="cdf", roots=[1, 2])
    meshed = solve_network(case, all_closed_config(case))
    forest = build_spanning_forest(case, weights_from_flow(case, meshed))

    initial = evaluate_candidate(case, forest.config)
    initial_fo = initial.report.fo_value if isinstance(initial, Rejection) else initial.fo_value
    assert initial_fo is not None

    final, trace = improve(case, forest.config)
    report = evaluate_candidate(case, final)
    assert not isinstance(report, Rejection)
    solution = solve_all_islands(case, final)

    assert is_radial(case, final)
    assert report.feasible
    assert solution.total_loss_mw < BASE_CASE_LOSS_MW
    assert report.fo_value <= initial_fo

    accepted = trace.accepted_moves
    assert accepted, "search should find at least one improving exchange"
    for move in accepted:
        assert move.fo_after < move.fo_before
    for earlier, later in itertools.pairwise(accepted):
        assert later.fo_after < earlier.fo_after

    # exhaustive 1-exchange neighborhood of the final configuration
    neighbors = 0
    for open_id in sorted(final.open_ids):
        if not case.branch_by_id[open_id].switchable:
            continue
        loop = fundamental_loop(case, final, open_id)
        for other in loop.branch_ids:
            candidate = final.with_exchange(close_branch=open_id, open_branch=other)
            neighbors += 1
            outcome = evaluate_candidate(case, candidate)
            if isinstance(outcome, Rejection):
                continue
            if outcome.feasible:
                assert outcome.fo_value >= report.fo_value - 1e-9

    elapsed = time.perf_counter() - started
    assert 0 < neighbors <= 300
    assert elapsed < 30.0


@pytest.mark.acceptance(3, "small-instance search matches exhaustive enumeration")
def test_criterion_3_oracle_equivalence(triangle_case, six_bus_case):
    started = time.perf_counter()
    for case in (triangle_case, six_bus_case):
        switchable = sorted(b.id for b in case.branches if b.switchable)
        need = len(case.buses) - len(case.roots)

        best_fo = None
        for chosen in itertools.combinations(switchable, need):
            config = make_config(case, set(chosen))
            assert is_radial(case, config) == oracle_is_radial(case, set(chosen))
            if not is_radial(case, config):
                continue

            outcome = evaluate_candidate(case, config)
            assert not isinstance(outcome, Rejection) or outcome.report is not None
            report = outcome.report if isinstance(outcome, Rejection) else outcome

            # brute-force the operating checks straight off the solution
            solution = solve_all_islands(case, config)
            assert solution.converged
            volt_ok = all(
                case.bus_by_id[bus_id].v_min - 1e-9
                <= v
                <= case.bus_by_id[bus_id].v_max + 1e-9
                for bus_id, v in solution.v_mag.items()
            )
            amp_ok = True
            for branch_id, flow in solution.flows.items():
                limit = case.branch_by_id[branch_id].mva_limit
                if limit is None:
                    continue
                mva = max(
                    np.hypot(flow.p_send, flow.q_send),
                    np.hypot(flow.p_recv, flow.q_recv),
                )
                amp_ok = amp_ok and mva <= limit + 1e-6
            q_ok = True
            for island in solution.islands:
                limits = case.bus_by_id[island.root].q_limits
                if limits is None:
                    continue
                q_ok = q_ok and limits[0] - 1e-6 <= island.slack_q_mvar <= limits[1] + 1e-6

            assert report.feasible == (volt_ok and amp_ok and q_ok)
            if report.feasible and (best_fo is None or report.fo_value < best_fo):
                best_fo = report.fo_value

        meshed = solve_network(case, all_closed_config(case))
        forest = build_spanning_forest(case, weights_from_flow(case, meshed))
        final, _ = improve(case, forest.config)
        outcome = evaluate_candidate(case, final)
        assert not isinstance(outcome, Rejection)
        assert outcome.fo_value == pytest.approx(best_fo, rel=1e-12)

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0


@pytest.mark.acceptance(4, "independent solvers and derivatives cross-validate")
def test_criterion_4_solver_cross_validation(
    triangle_case, six_bus_case, ring6_case, path5_case, five_bus_tworoot, twin_case,
    ieee14_case,
):
    radial_picks = [
        (triangle_case, {1, 2}),
        (six_bus_case, {1, 2, 4, 5}),
        (ring6_case, {1, 2, 3, 4, 5}),
        (path5_case, {1, 3, 4}),
        (five_bus_tworoot, {1, 2, 3}),
        (twin_case, {1, 2}),
        (ieee14_case, set(ieee14_case.branch_by_id) - {1, 5, 6, 7, 9, 16, 19, 20}),
    ]
    tight = SolverOptions(tolerance=1e-10)
    for case, closed in radial_picks:
        config = make_config(case, closed)
        nr = solve_all_islands(case, config, tight)
        for island, result in zip(islands(case, config), nr.islands, strict=True):
            if result.converged:
                # a converged island met the tolerance it was given
                assert result.max_mismatch <= tight.tolerance, (island.root, result.max_mismatch)
            gs = solve_gauss_seidel(case, island, tight)
            gs_result, = gs.islands
            if not (result.converged and gs_result.converged):
                continue
            assert set(gs_result.buses) == island.buses
            for bus_id, v in zip(gs_result.buses, gs.v.tolist()):
                delta = abs(voltage(nr, bus_id) - v)
                assert delta <= 1e-6, f"bus {bus_id} disagrees by {delta:.2e}"

    for seed in range(20):
        case = random_four_bus(seed)
        island = island_of(case)
        setup = _classify(case, island)
        rng = np.random.default_rng(4000 + seed)
        vm = np.abs(setup.v) + rng.uniform(-0.05, 0.05, len(setup.v))
        va = rng.uniform(-0.1, 0.1, len(setup.v))
        v = vm * np.exp(1j * va)
        pvpq = np.array(sorted(setup.pv + setup.pq), dtype=int)
        pq = np.array(setup.pq, dtype=int)
        analytic = solver_jacobian(setup.ybus, v, pvpq, pq)
        numeric = fd_jacobian(setup.ybus, v, setup.sbus, pvpq, pq)
        scale = np.maximum(np.abs(numeric), 1.0)
        assert np.max(np.abs(analytic - numeric) / scale) < 1e-5


@pytest.mark.acceptance(5, "objective values track solver losses on every sampled config")
def test_criterion_5_objective_consistency(ieee14_case, ieee14_forest, ieee14_search):
    _, trace = ieee14_search
    configs = [ieee14_forest.config]
    incumbent = ieee14_forest.config
    for move in trace.moves:
        candidate = incumbent.with_exchange(
            close_branch=move.close_branch, open_branch=move.open_branch
        )
        configs.append(candidate)
        if move.accepted:
            incumbent = candidate

    checked = 0
    for config in configs:
        if not is_radial(ieee14_case, config):
            continue
        outcome = evaluate_candidate(ieee14_case, config)
        report = outcome.report if isinstance(outcome, Rejection) else outcome
        if report is None:
            continue
        solution = solve_all_islands(ieee14_case, config)
        if not solution.converged:
            continue
        hourly = report.fo_value / ieee14_case.delta_t_hours
        assert abs(hourly - solution.total_loss_mw) / solution.total_loss_mw <= 0.02
        checked += 1
    assert checked >= 20


@pytest.mark.acceptance(6, "surrogate ranking never changes answers and never adds work")
def test_criterion_6_surrogate_neutrality(
    triangle_case, six_bus_case, ring6_case, five_bus_tworoot, ieee14_case
):
    for case in (triangle_case, six_bus_case, ring6_case, five_bus_tworoot, ieee14_case):
        meshed = solve_network(case, all_closed_config(case))
        forest = build_spanning_forest(case, weights_from_flow(case, meshed))
        plain_final, plain_trace = improve(
            case, forest.config, options=SearchOptions(use_surrogate=False)
        )
        ranked_final, ranked_trace = improve(case, forest.config)

        plain = evaluate_candidate(case, plain_final)
        ranked = evaluate_candidate(case, ranked_final)
        assert not isinstance(plain, Rejection)
        assert not isinstance(ranked, Rejection)
        assert ranked.fo_value == pytest.approx(plain.fo_value, abs=1e-9)
        assert ranked_trace.evaluations <= plain_trace.evaluations


@pytest.mark.acceptance(7, "case formats survive round trips")
def test_criterion_7_format_round_trip(
    triangle_case, six_bus_case, ring6_case, path5_case, five_bus_tworoot, twin_case,
    ieee14_text,
):
    for case in (
        triangle_case, six_bus_case, ring6_case, path5_case, five_bus_tworoot, twin_case,
    ):
        # identity is the claim here; the twin fixture fails strict validation
        # on purpose (two root-bearing components), so the gate stays off
        assert parse_case(write_native_case(case), fmt="json", validate=False) == case

    case = parse_case(ieee14_text, fmt="cdf")
    assert len(case.buses) == 14
    assert len(case.branches) == 20
    assert case.base_mva == 100.0
