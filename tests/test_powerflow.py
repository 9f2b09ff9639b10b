"""AC power flow: admittance assembly, the Newton solver against the Gauss-Seidel oracle, branch flows."""
from __future__ import annotations

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import sparse

from conftest import (
    bench_feeders,
    dense_jacobian,
    fd_jacobian,
    filled_array,
    island_of,
    oracle_admittance,
    oracle_branch_flows,
    oracle_jacobian_pattern,
    random_four_bus,
    random_radial_feeder,
    scaled_loads,
    solve_gauss_seidel,
    solver_jacobian,
    two_bus_case,
    two_bus_has_root,
    two_bus_oracle,
    voltage,
)
from dnr import powerflow
from dnr.caseio import parse_case
from dnr.exchange import improve
from dnr.model import (
    Branch,
    Bus,
    BusKind,
    Island,
    NetworkCase,
    all_closed_config,
    default_config,
    islands as split_islands,
    make_config,
)
from dnr.powerflow import (
    SingularBranchError,
    SolverOptions,
    _DENSE_MAX,
    _classify,
    _factor,
    _newton_step,
    _stable_order,
    branch_flows,
    build_admittance,
    jacobian_pattern,
    leaves_first,
    mismatch_jacobian,
    sending_ends,
    solve_all_islands,
    solve_network,
    solve_newton_raphson,
)
from dnr.topology import build_spanning_forest, forest_index, weights_from_flow

# voltage profile of the meshed IEEE-14 solve, frozen from two independent
# solver routes agreeing to 1e-9 pu
IEEE14_V = {
    1: 1.0600, 2: 1.0450, 3: 1.0100, 4: 1.0177, 5: 1.0195,
    6: 1.0700, 7: 1.0615, 8: 1.0900, 9: 1.0559, 10: 1.0510,
    11: 1.0569, 12: 1.0552, 13: 1.0504, 14: 1.0355,
}


def _solve(case: NetworkCase, island: Island | None = None, **kwargs):
    """One Newton solve's part and its IslandResult, on the whole case unless an island is given."""
    part = solve_newton_raphson(case, island_of(case) if island is None else island, **kwargs)
    result, = part.islands
    return part, result


def _solve_by_id(case: NetworkCase, **kwargs):
    """The whole case solved as one network, its values keyed by id."""
    return solve_network(case, all_closed_config(case), **kwargs)


class TestAdmittance:
    def test_single_branch_pure_reactance(self):
        case = NetworkCase(
            100.0,
            (Bus(1, BusKind.FEEDER, v_setpoint=1.0), Bus(2)),
            (Branch(1, 1, 2, r=0.0, x=0.1),),
            roots=(1,),
        )
        ybus, order = build_admittance(case, island_of(case))
        assert order == [1, 2]
        expected = np.array([[-10j, 10j], [10j, -10j]])
        assert np.allclose(ybus.toarray(), expected)

    def test_lone_root_island(self, six_bus_case):
        ybus, order = build_admittance(six_bus_case, island_of(six_bus_case, 2, {2}, ()))
        assert order == [2]
        assert ybus.shape == (1, 1)
        assert ybus.toarray()[0, 0] == 0.0

    def test_ieee14_row_sums_reduce_to_shunt_terms(self, ieee14_case):
        # an ideal (tap 1) branch cancels out of its row sum, leaving only
        # charging and bus shunts; an off-nominal tap leaves a residual
        # ys/t^2 - ys/t on the from side and ys - ys/t on the to side
        ybus, order = build_admittance(ieee14_case, island_of(ieee14_case))
        pos = {bus: i for i, bus in enumerate(order)}
        expected = np.zeros(len(order), dtype=complex)
        for bus in ieee14_case.buses:
            expected[pos[bus.id]] += complex(bus.g_shunt, bus.b_shunt)
        for branch in ieee14_case.branches:
            ys = 1.0 / complex(branch.r, branch.x)
            bc = 1j * branch.b_shunt / 2.0
            t = branch.tap_ratio
            expected[pos[branch.from_bus]] += bc / t**2 + ys / t**2 - ys / t
            expected[pos[branch.to_bus]] += bc + ys - ys / t
        assert np.allclose(ybus.toarray().sum(axis=1), expected, atol=1e-12)

    def test_zero_impedance_branch_rejected(self):
        case = NetworkCase(
            100.0,
            (Bus(1, BusKind.FEEDER, v_setpoint=1.0), Bus(2)),
            (Branch(1, 1, 2, r=0.0, x=0.0),),
            roots=(1,),
        )
        with pytest.raises(SingularBranchError):
            build_admittance(case, island_of(case))
        with pytest.raises(SingularBranchError):
            branch_flows(case, np.array([0]), np.array([1.0 + 0j, 1.0 + 0j]))


class TestNewtonRaphson:
    def test_ieee14_meshed_matches_published_case(self, ieee14_meshed):
        assert ieee14_meshed.converged
        assert ieee14_meshed.iterations <= 10
        assert ieee14_meshed.total_loss_mw == pytest.approx(13.436, rel=0.01)
        for bus_id, vm in IEEE14_V.items():
            assert ieee14_meshed.v_mag[bus_id] == pytest.approx(vm, abs=5e-4)
        assert ieee14_meshed.v_angle[1] == 0.0
        root = ieee14_meshed.islands[0]
        assert root.slack_p_mw == pytest.approx(232.4, abs=0.1)  # matches the data sheet
        assert root.slack_q_mvar == pytest.approx(-16.55, abs=0.05)

    def test_zero_load_two_bus_is_flat(self):
        case = two_bus_case(0.0, 0.0)
        solution = _solve_by_id(case)
        assert solution.converged
        assert solution.iterations == 1  # flat start already satisfies the mismatch
        assert solution.total_loss_mw == pytest.approx(0.0, abs=1e-9)
        assert solution.v_mag[2] == pytest.approx(1.0)
        assert solution.v_angle[2] == pytest.approx(0.0)

    def test_loaded_two_bus_matches_quadratic_oracle(self):
        case = two_bus_case(50.0, 20.0, r=0.01, x=0.05)
        oracle = two_bus_oracle(1.0, 0.5, 0.2, 0.01, 0.05)
        solution = _solve_by_id(case)
        assert solution.converged
        assert solution.v_mag[2] == pytest.approx(oracle["v2"], abs=1e-8)
        assert solution.total_loss_mw == pytest.approx(oracle["loss_p"] * 100.0, abs=1e-6)

    def test_converged_means_inside_tolerance(self, ieee14_meshed):
        assert ieee14_meshed.max_mismatch <= SolverOptions().tolerance

    def test_iteration_cap_reported_as_divergence(self):
        case = two_bus_case(50.0, 20.0)
        _, result = _solve(case, options=SolverOptions(max_iterations=1))
        assert not result.converged
        assert result.iterations == 1

    def test_singular_jacobian_keeps_the_best_iterate(self, monkeypatch):
        # LAPACK (up to _DENSE_MAX unknowns) and SuperLU (above) both raise on
        # an exactly singular matrix; on either side the solve must stop as
        # it does on a non-finite step, not raise or warn
        jacobian = powerflow.mismatch_jacobian

        def zero_values(*args):
            result = jacobian(*args)
            if sparse.issparse(result):
                result.data[:] = 0.0
            else:
                result[:] = 0.0
            return result

        monkeypatch.setattr(powerflow, "mismatch_jacobian", zero_values)
        for case, unknowns in ((two_bus_case(50.0, 20.0), 2), (random_radial_feeder(1, 60), 118)):
            island = island_of(case)
            flat = _classify(case, island)
            assert len(flat.pv) + 2 * len(flat.pq) == unknowns
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                part, result = _solve(case, island)
            assert not result.converged
            assert result.iterations == 1
            # the flat start, never stepped from
            assert np.array_equal(part.v, flat.v)
        assert 2 <= _DENSE_MAX < 118

    def test_impossible_load_does_not_converge(self):
        case = two_bus_case(5000.0, 2000.0)  # far beyond the line's capability
        _, result = _solve(case)
        assert not result.converged
        # the first step drives bus 2 through zero magnitude, which ends the solve
        assert result.iterations < SolverOptions().max_iterations

    def test_reactive_limit_clamps_the_machine(self):
        # holding 1.05 pu at bus 2 needs more than 5 MVAr, so it drops to PQ
        case = NetworkCase(
            100.0,
            (
                Bus(1, BusKind.FEEDER, v_setpoint=1.0),
                Bus(2, BusKind.GENERATOR, v_setpoint=1.05, q_min=-5.0, q_max=5.0),
                Bus(3, p_load=40.0, q_load=20.0),
            ),
            (
                Branch(1, 1, 2, r=0.02, x=0.06),
                Branch(2, 2, 3, r=0.02, x=0.06),
            ),
            roots=(1,),
        )
        island = island_of(case)
        part, result = _solve(case, island)
        assert result.converged
        ybus, order = build_admittance(case, island)
        v = part.v  # in the island's bus order
        assert abs(v[order.index(2)]) < 1.05  # setpoint unreachable at the limit
        injections = v * np.conj(ybus.toarray() @ v) * case.base_mva
        q_machine = injections[order.index(2)].imag + case.bus_by_id[2].q_load
        assert q_machine == pytest.approx(5.0, abs=1e-5)


def _finite_only(dx: np.ndarray, vm: np.ndarray) -> bool:
    """The step test without the zero-magnitude stop: such a solve runs on to its cap."""
    return bool(np.isfinite(dx).all())


def _assert_the_exit_keeps_the_answer(case: NetworkCase, island: Island):
    """The solve and its run-to-cap reference, checked against each other.

    A solve that keeps its class keeps its answer: a converged one its
    iteration count and its voltages bit for bit.  The exit only ends a solve
    early, so the one change of class it can make is a converged reference
    that it stops; that reference must have converged to a point other than
    the one Gauss-Seidel finds from the same flat start.
    """
    part, solution = _solve(case, island)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(powerflow, "_usable", _finite_only)
        reference_part, reference = _solve(case, island)
    assert solution.iterations <= reference.iterations
    if solution.converged == reference.converged:
        if solution.converged:
            assert solution.iterations == reference.iterations
            assert np.array_equal(part.v, reference_part.v)
        return part, reference_part
    assert reference.converged and not solution.converged
    oracle = solve_gauss_seidel(case, island)
    assert oracle.islands[0].converged
    assert np.abs(np.abs(oracle.v) - np.abs(reference_part.v)).max() > 0.1
    return part, reference_part


class TestDivergenceExit:
    """A Newton step through zero voltage magnitude ends the solve."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        r=st.floats(0.001, 0.2),
        x=st.floats(0.001, 0.3),
        v1=st.floats(0.95, 1.1),
        angle=st.floats(0.0, np.pi / 2),
        # the load as a share of the line's limit at its power factor, kept
        # off the nose itself, where the two roots meet
        share=st.one_of(st.floats(0.02, 0.95), st.floats(1.05, 5.0)),
    )
    def test_two_bus_converges_exactly_when_the_load_is_deliverable(self, r, x, v1, angle, share):
        # for a load s(cos a, sin a) the quadratic's discriminant vanishes at
        # s = V1^2 / (2 (r cos a + x sin a + |z|))
        limit = v1 * v1 / (2.0 * (r * np.cos(angle) + x * np.sin(angle) + np.hypot(r, x)))
        p, q = share * limit * np.cos(angle), share * limit * np.sin(angle)
        case = two_bus_case(p * 100.0, q * 100.0, r=r, x=x, v1=v1)
        part, result = _solve(case)
        assert result.converged == two_bus_has_root(v1, p, q, r, x) == (share < 1.0)
        if result.converged:
            # dV2/dP grows without bound toward the nose, so the tolerance's
            # 1e-8 pu of mismatch is worth more than 1e-8 pu of voltage there
            assert abs(part.v[1]) == pytest.approx(two_bus_oracle(v1, p, q, r, x)["v2"], abs=1e-6)

    def test_a_step_is_usable_while_every_magnitude_stays_above_zero(self):
        step = np.zeros(3)
        assert powerflow._usable(step, np.array([1.0, 0.3, 1e-300]))
        assert not powerflow._usable(step, np.array([1.0, 0.0, 0.9]))
        assert not powerflow._usable(step, np.array([1.0, -0.2, 0.9]))
        assert not powerflow._usable(np.array([0.0, np.nan, 0.0]), np.ones(3))
        assert not powerflow._usable(np.array([0.0, np.inf, 0.0]), np.ones(3))

    def test_the_solve_keeps_the_iterate_before_the_step(self):
        # past the line's limit (tests/data/two_bus_collapse.json holds the
        # same case); with no regulated bus, nothing moves the voltages
        # between one step and the next mismatch, so the iterate kept is the
        # one a solve capped an iteration earlier ends at
        case = two_bus_case(800.0, 320.0)
        island = island_of(case)
        part, result = _solve(case, island)
        assert not result.converged and result.iterations == 5
        before, _ = _solve(case, island, options=SolverOptions(max_iterations=4))
        assert np.array_equal(part.v, before.v)

    def test_ieee14_solves_keep_their_answers(self, ieee14_text):
        rng = np.random.default_rng(14)
        diverged = 0
        for roots in ((1,), (1, 2), (1, 3), (1, 2, 3)):
            base = parse_case(ieee14_text, fmt="cdf", roots=roots)
            for scale in (0.5, 1.0, 2.0):
                case = scaled_loads(base, scale)
                for _ in range(6):
                    weights = {branch.id: float(rng.random()) for branch in case.branches}
                    for island in split_islands(case, build_spanning_forest(case, weights).config):
                        _, reference = _assert_the_exit_keeps_the_answer(case, island)
                        diverged += not reference.islands[0].converged
        assert diverged >= 40

    # about one island in five of these runs past its loadability limit
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        buses=st.integers(2, 40),
        roots=st.integers(1, 2),
        scale=st.floats(1.0, 40.0),
    )
    def test_seeded_feeders_keep_their_answers(self, seed, buses, roots, scale):
        case = scaled_loads(random_radial_feeder(seed, max(buses, roots + 1), roots), scale)
        for island in split_islands(case, default_config(case)):
            solution, reference = _assert_the_exit_keeps_the_answer(case, island)
            assert solution.islands[0].converged == reference.islands[0].converged

    def test_a_root_reached_past_zero_magnitude_is_not_the_operating_point(self, ieee14_text):
        # IEEE-14 at half load; the island fed from bus 2 reaches regulated
        # bus 6 only through buses 10 and 11.  Run to its cap, the solve
        # passes bus magnitudes through zero at its fifth step and converges
        # ten steps later to a low-voltage root near 0.25 pu, which
        # Gauss-Seidel does not find: its solution holds every bus above 1 pu
        case = scaled_loads(parse_case(ieee14_text, fmt="cdf", roots=(1, 2)), 0.5)
        config = make_config(case, {2, 3, 4, 8, 11, 13, 14, 15, 17, 18, 19, 20})
        island = next(isl for isl in split_islands(case, config) if isl.root == 2)
        solution, reference = _assert_the_exit_keeps_the_answer(case, island)
        assert not solution.islands[0].converged and solution.islands[0].iterations == 5
        assert reference.islands[0].converged and reference.islands[0].iterations == 15
        assert np.abs(reference.v).min() < 0.3
        assert np.abs(solve_gauss_seidel(case, island).v).min() > 1.0


class TestGaussSeidel:
    def test_zero_load_two_bus_is_flat(self):
        case = two_bus_case(0.0, 0.0)
        part = solve_gauss_seidel(case, island_of(case))
        assert part.islands[0].converged
        assert part.islands[0].iterations == 1
        assert abs(part.v[1]) == pytest.approx(1.0)

    def test_agrees_with_newton_on_two_bus(self):
        case = two_bus_case(50.0, 20.0)
        island = island_of(case)
        nr = solve_newton_raphson(case, island)
        gs = solve_gauss_seidel(case, island)
        assert gs.islands[0].converged
        assert np.abs(gs.v - nr.v).max() <= 1e-6

    def test_agrees_with_newton_on_meshed_ieee14(self, ieee14_case, ieee14_meshed):
        # exercises reactive-limit clamping and release during the slow sweeps
        gs = solve_gauss_seidel(ieee14_case, island_of(ieee14_case), SolverOptions(tolerance=1e-10))
        result, = gs.islands
        assert result.converged
        assert abs(result.loss_mw - ieee14_meshed.total_loss_mw) <= 0.01
        worst = max(abs(v - voltage(ieee14_meshed, b)) for b, v in zip(result.buses, gs.v.tolist()))
        assert worst <= 1e-6


class TestBranchFlows:
    def test_zero_load_flows_are_zero(self):
        case = two_bus_case(0.0, 0.0)
        _, power, loss = branch_flows(case, np.array([0]), np.array([1.0 + 0j, 1.0 + 0j]))
        assert loss == pytest.approx(0.0, abs=1e-12)
        assert power.tolist() == [[0.0, 0.0, 0.0, 0.0]]

    def test_two_bus_flow_matches_oracle(self):
        case = two_bus_case(50.0, 20.0, r=0.01, x=0.05)
        oracle = two_bus_oracle(1.0, 0.5, 0.2, 0.01, 0.05)
        solution = _solve_by_id(case)
        flow = solution.flows[1]
        assert flow.sending_bus == 1 and flow.receiving_bus == 2
        assert flow.p_send == pytest.approx(oracle["p_send"] * 100.0, abs=1e-5)
        assert flow.q_send == pytest.approx(oracle["q_send"] * 100.0, abs=1e-5)
        # power entering at both ends sums to the series loss
        assert flow.p_send + flow.p_recv == pytest.approx(oracle["loss_p"] * 100.0, abs=1e-5)
        assert flow.p_recv == pytest.approx(-50.0, abs=1e-5)  # delivered load

    def test_per_branch_losses_sum_to_total(self, ieee14_meshed):
        per_branch = sum(f.p_send + f.p_recv for f in ieee14_meshed.flows.values())
        assert per_branch == pytest.approx(ieee14_meshed.total_loss_mw, abs=1e-9)

    def test_radial_orientation_sends_downstream(self, six_bus_case):
        solution = solve_all_islands(six_bus_case, make_config(six_bus_case, {1, 2, 3, 4}))
        for flow in solution.flows.values():
            assert flow.p_send > 0.0  # every branch feeds load away from its root


class TestIslandSolves:
    def test_disjoint_twins_add_up(self, twin_case):
        config = default_config(twin_case)
        both = solve_all_islands(twin_case, config)
        single = two_bus_case(50.0, 20.0, r=0.01, x=0.05)
        _, one = _solve(single)
        assert both.converged
        assert len(both.islands) == 2
        assert both.total_loss_mw == pytest.approx(2.0 * one.loss_mw, abs=1e-9)

    def test_ieee14_radial_two_islands(self, ieee14_case, ieee14_forest):
        solution = solve_all_islands(ieee14_case, ieee14_forest.config)
        assert solution.converged
        assert len(solution.islands) == 2
        assert sorted(b for isl in solution.islands for b in isl.buses) == list(range(1, 15))
        assert len(solution.v_mag) == 14

    def test_lone_root_island_is_trivial(self, six_bus_case):
        # open both of feeder 2's branches: it ends up alone and converged
        solution = solve_all_islands(six_bus_case, make_config(six_bus_case, {1, 3, 4, 6}))
        lone = next(isl for isl in solution.islands if isl.root == 2)
        assert lone.converged
        assert lone.loss_mw == pytest.approx(0.0, abs=1e-12)
        assert lone.iterations == 1

    def test_per_island_power_balance(self, ieee14_case, ieee14_forest):
        # slack generation covers island load plus series loss (P only; no g shunts)
        solution = solve_all_islands(ieee14_case, ieee14_forest.config)
        budget = 10.0 * SolverOptions().tolerance * ieee14_case.base_mva
        for island in solution.islands:
            load = sum(ieee14_case.bus_by_id[b].p_load for b in island.buses)
            gen = sum(
                ieee14_case.bus_by_id[b].p_gen for b in island.buses if b != island.root
            )
            assert island.slack_p_mw + gen == pytest.approx(load + island.loss_mw, abs=budget)

    @pytest.mark.parametrize("case_name", ["five_bus_tworoot", "generated"])
    def test_a_part_lines_up_with_its_island_positions(self, request, case_name):
        # a solve's arrays run over the island's bus and branch positions,
        # and the merged solution keys exactly those values by id
        if case_name == "generated":
            case = parse_case(bench_feeders().generate(1, 2, 30, 3)[0], fmt="json")
        else:
            case = request.getfixturevalue(case_name)
        config = default_config(case)
        index = forest_index(case, config)
        assert len(index.islands) == 2
        bus_ids, branch_ids = np.array(sorted(case.bus_by_id)), np.array(sorted(case.branch_by_id))
        merged = solve_all_islands(case, config)
        for island in index.islands:
            part = solve_newton_raphson(case, island, sending=sending_ends(case, index))
            result, = part.islands
            buses, branches = island.bus_positions, island.branch_positions
            assert result.buses == tuple(bus_ids[buses].tolist())
            assert part.v.shape == buses.shape
            assert part.power.shape == (branches.size, 4)
            assert part.ends.shape == (branches.size, 2)
            # each branch is sent from its parent end, toward the bus it feeds
            send, recv = part.ends.T
            np.testing.assert_array_equal(index.parent_branch[recv], branches)
            np.testing.assert_array_equal(index.parent[recv], send)
            for k, bus in enumerate(bus_ids[buses].tolist()):
                v = part.v[k]
                assert (merged.v_mag[bus], merged.v_angle[bus]) == (np.hypot(v.real, v.imag), np.angle(v))
            for k, branch in enumerate(branch_ids[branches].tolist()):
                flow = merged.flows[branch]
                assert (flow.sending_bus, flow.receiving_bus) == tuple(bus_ids[part.ends[k]].tolist())
                assert [flow.p_send, flow.q_send, flow.p_recv, flow.q_recv] == part.power[k].tolist()

    def test_loss_nonnegative_across_fixtures(
        self, triangle_case, six_bus_case, ring6_case, path5_case, five_bus_tworoot
    ):
        radial = [
            (triangle_case, {1, 2}),
            (six_bus_case, {1, 2, 3, 4}),
            (ring6_case, {1, 2, 3, 4, 5}),
            (path5_case, {1, 3, 4}),
            (five_bus_tworoot, {1, 2, 3}),
        ]
        for case, closed in radial:
            solution = solve_all_islands(case, make_config(case, closed))
            assert solution.converged
            assert solution.total_loss_mw >= -1e-9


class TestNetworkSolve:
    def test_stranded_buses_are_named(self, ieee14_case):
        closed = set(ieee14_case.branch_by_id) - {17, 20}  # cut both feeds into bus 14
        with pytest.raises(ValueError, match=r"\[14\]"):
            solve_network(ieee14_case, make_config(ieee14_case, closed))

    def test_slack_defaults_to_first_root(self, ieee14_case, ieee14_meshed):
        assert ieee14_meshed.islands[0].root == ieee14_case.roots[0]


def _assert_jacobian_matches_oracles(setup, seed: int) -> None:
    """The Jacobian the solver factors, at a random off-flat point, against
    central differences and against the dense matrix form of the same formulas."""
    rng = np.random.default_rng(1000 + seed)
    vm = np.abs(setup.v) + rng.uniform(-0.05, 0.05, len(setup.v))
    va = rng.uniform(-0.1, 0.1, len(setup.v))
    v = vm * np.exp(1j * va)
    pvpq = np.array(sorted(setup.pv + setup.pq), dtype=int)
    pq = np.array(setup.pq, dtype=int)
    analytic = solver_jacobian(setup.ybus, v, pvpq, pq)
    numeric = fd_jacobian(setup.ybus, v, setup.sbus, pvpq, pq)
    assert analytic.shape == numeric.shape
    scale = np.maximum(np.abs(numeric), 1.0)
    assert np.max(np.abs(analytic - numeric) / scale) < 1e-5
    reference = dense_jacobian(setup.ybus, v, pvpq, pq)
    assert np.max(np.abs(analytic - reference) / np.maximum(np.abs(reference), 1.0)) < 1e-12


def _regulated_ieee14_island(case, forest):
    for island in split_islands(case, forest.config):
        setup = _classify(case, island)
        if setup.pv and setup.pq:
            return setup
    pytest.fail("no IEEE-14 island holds both regulated and load buses")


class TestJacobian:
    @pytest.mark.parametrize("seed", [0, 7, 42])
    def test_matches_central_differences_off_flat(self, seed):
        case = random_four_bus(seed)
        island = island_of(case)
        _assert_jacobian_matches_oracles(_classify(case, island), seed)

    def test_ieee14_island_with_pv_buses(self, ieee14_case, ieee14_forest):
        setup = _regulated_ieee14_island(ieee14_case, ieee14_forest)
        _assert_jacobian_matches_oracles(setup, 14)

    def test_ieee14_island_after_a_pv_bus_drops_to_pq(self, ieee14_case, ieee14_forest):
        # the PV -> PQ switch _apply_q_limits makes when a reactive limit binds
        setup = _regulated_ieee14_island(ieee14_case, ieee14_forest)
        setup.pq = sorted(setup.pq + [setup.pv.pop(0)])
        _assert_jacobian_matches_oracles(setup, 14)

    def test_all_regulated_island_has_no_magnitude_columns(self):
        case = NetworkCase(
            100.0,
            (
                Bus(1, BusKind.FEEDER, v_setpoint=1.0),
                Bus(2, BusKind.GENERATOR, p_load=30.0, q_load=10.0, v_setpoint=1.02),
                Bus(3, BusKind.GENERATOR, p_gen=20.0, v_setpoint=0.99),
            ),
            (
                Branch(1, 1, 2, r=0.02, x=0.06, b_shunt=0.03),
                Branch(2, 2, 3, r=0.01, x=0.05, tap_ratio=0.97),
            ),
            roots=(1,),
        )
        setup = _classify(case, island_of(case))
        assert setup.pq == [] and setup.pv == [1, 2]
        _assert_jacobian_matches_oracles(setup, 3)
        solution = _solve_by_id(case)
        assert solution.converged
        assert solution.v_mag[2] == pytest.approx(1.02)

    @pytest.mark.parametrize(
        ("q_min", "q_max", "clamps"),
        [(5.0, 5.0, False), (None, 5.0, False), (-5.0, 5.0, True)],
        ids=["equal-limits", "one-limit", "range"],
    )
    def test_a_machine_clamps_only_on_a_reactive_range(self, q_min, q_max, clamps):
        # holding 1.05 pu against a 1.0 pu root over x = 0.05 takes about
        # 100 MVAr; equal limits, like a missing one, mean no limit at all
        case = NetworkCase(
            100.0,
            (
                Bus(1, BusKind.FEEDER, v_setpoint=1.0),
                Bus(2, BusKind.GENERATOR, p_load=10.0, q_load=4.0, v_setpoint=1.05, q_min=q_min, q_max=q_max),
            ),
            (Branch(1, 1, 2, r=0.01, x=0.05),),
            roots=(1,),
        )
        setup = _classify(case, island_of(case))
        assert np.isnan(setup.q_min[1]) == np.isnan(setup.q_max[1]) == (not clamps)
        assert setup.q_load[1] == 4.0
        solution = _solve_by_id(case)
        assert solution.converged
        if clamps:
            assert solution.v_mag[2] < 1.01  # the machine gives its 5 MVAr and no more
        else:
            assert solution.v_mag[2] == pytest.approx(1.05)

    def test_slack_only_island_needs_no_newton_step(self, six_bus_case, monkeypatch):
        island = island_of(six_bus_case, 2, {2}, ())
        setup = _classify(six_bus_case, island)
        empty = np.array([], dtype=int)
        assert solver_jacobian(setup.ybus, setup.v, empty, empty).shape == (0, 0)

        def no_jacobian(*args):
            raise AssertionError("a slack-only island has nothing to solve")

        monkeypatch.setattr(powerflow, "mismatch_jacobian", no_jacobian)
        _, result = _solve(six_bus_case, island)
        assert result.converged and result.iterations == 1


# ---------------------------------------------------------------------------
# the compiled layers against the scalar oracles, and the Jacobian pattern


def _assert_close(actual, expected) -> None:
    """Equal to 1e-12 of the largest magnitude involved."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    scale = max(float(np.max(np.abs(expected), initial=0.0)), 1e-300)
    assert np.max(np.abs(actual - expected), initial=0.0) <= 1e-12 * scale


def _assert_admittance_matches_oracle(case, island) -> None:
    ybus, order = build_admittance(case, island)
    expected, expected_order = oracle_admittance(case, island)
    assert order == expected_order
    _assert_close(ybus.toarray(), expected)


def _oracle_arguments(case, branches, voltages, sending):
    """branch_flows' positional arguments as the ids the oracle takes.

    The voltages become Python complex numbers, so the oracle computes in
    Python's complex arithmetic, not numpy's.
    """
    bus_ids, branch_ids = sorted(case.bus_by_id), sorted(case.branch_by_id)
    ids = [branch_ids[k] for k in branches]
    by_id = dict(zip(bus_ids, voltages.tolist()))
    if sending is None:
        return ids, by_id, None
    return ids, by_id, {branch_ids[k]: bus_ids[sending[k]] for k in branches}


def _assert_flows_match_oracle(case, branches, voltages, sending) -> None:
    """branch_flows over bus positions has every bit of the oracle's scalar loop over ids."""
    ends, power, loss = branch_flows(case, branches, voltages, sending)
    ids, by_id, sending_ids = _oracle_arguments(case, branches, voltages, sending)
    expected, expected_loss = oracle_branch_flows(case, ids, by_id, sending_ids)
    assert list(expected) == ids
    bus_ids = sorted(case.bus_by_id)
    rows = [(bus_ids[send], bus_ids[recv], *flow) for (send, recv), flow in zip(ends.tolist(), power.tolist())]
    assert rows == [
        (f.sending_bus, f.receiving_bus, f.p_send, f.q_send, f.p_recv, f.q_recv) for f in expected.values()
    ]
    assert loss == expected_loss


@dataclasses.dataclass
class _SolveWork:
    """Newton work inside one island solve."""

    island: Island
    jacobians: int = 0
    splits: set = dataclasses.field(default_factory=set)  # the PQ sets Jacobians were filled for
    patterns: list = dataclasses.field(default_factory=list)  # the JacobianPatterns built
    switches: int = 0  # calls of _apply_q_limits that changed the PV/PQ sets
    stale_products: int = 0  # Jacobians handed a Ybus @ v other than at their v
    converged: bool | None = None
    iterations: int = 0


@pytest.fixture(scope="module")
def ieee14_recorded(ieee14_case):
    """One IEEE-14 reconfiguration as the CLI runs it, recording the power-flow calls."""
    calls = {"admittance": [], "flows": [], "patterns": [], "solves": [], "sparse": 0}

    def wrap(name, record):
        inner = getattr(powerflow, name)

        def wrapped(*args, **kwargs):
            result = inner(*args, **kwargs)
            record(args, kwargs, result)
            return result

        return wrapped

    def jacobian(args, kwargs, result):
        work = calls["solves"][-1]
        work.jacobians += 1
        ybus, v, _, pq, _, ibus = args
        work.splits.add(tuple(pq))
        if not np.array_equal(ibus, ybus @ v):
            work.stale_products += 1

    def pattern(args, kwargs, result):
        calls["solves"][-1].patterns.append(result)
        calls["patterns"].append(args)

    def built_sparse(args, kwargs, result):
        calls["sparse"] += 1

    def switched(args, kwargs, result):
        if result[0]:
            calls["solves"][-1].switches += 1

    solve = powerflow._SOLVERS["nr"]

    def recorded_solve(case, island, *args, **kwargs):
        work = _SolveWork(island)
        calls["solves"].append(work)
        part = solve(case, island, *args, **kwargs)
        work.converged = part.islands[0].converged
        work.iterations = part.islands[0].iterations
        return part

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(powerflow, "build_admittance", wrap(
            "build_admittance", lambda args, kwargs, result: calls["admittance"].append(args[1])
        ))
        mp.setattr(powerflow, "branch_flows", wrap(
            "branch_flows", lambda args, kwargs, result: calls["flows"].append(args[1:])
        ))
        mp.setattr(powerflow, "mismatch_jacobian", wrap("mismatch_jacobian", jacobian))
        mp.setattr(powerflow, "jacobian_pattern", wrap("jacobian_pattern", pattern))
        mp.setattr(powerflow, "_apply_q_limits", wrap("_apply_q_limits", switched))
        mp.setattr(powerflow, "_csc", wrap("_csc", built_sparse))
        mp.setitem(powerflow._SOLVERS, "nr", recorded_solve)
        meshed = solve_network(ieee14_case, all_closed_config(ieee14_case))
        forest = build_spanning_forest(ieee14_case, weights_from_flow(ieee14_case, meshed))
        config, _ = improve(ieee14_case, forest.config)
        solve_all_islands(ieee14_case, config)
    return calls


class TestCompiledLayers:
    """build_admittance and branch_flows gather from the compiled case; the
    scalar loops in conftest are the reference."""

    def test_every_ieee14_search_island(self, ieee14_case, ieee14_recorded):
        islands = {(isl.root, isl.branches): isl for isl in ieee14_recorded["admittance"]}
        assert len(islands) == 37  # 36 radial islands and the meshed network
        for island in islands.values():
            _assert_admittance_matches_oracle(ieee14_case, island)
        # 39 solves: 36 distinct search islands, the meshed network and the
        # final solve's two; an island the search's memo answers is neither
        # solved nor given flows again, so each solve computes flows once
        assert len(ieee14_recorded["solves"]) == 39
        assert len(ieee14_recorded["flows"]) == 39
        for branch_ids, voltages, sending in ieee14_recorded["flows"]:
            _assert_flows_match_oracle(ieee14_case, branch_ids, voltages, sending)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        buses=st.integers(2, 30),
        roots=st.integers(1, 2),
        singular=st.booleans(),
    )
    def test_seeded_radial_feeders(self, seed, buses, roots, singular):
        case = random_radial_feeder(seed, max(buses, roots + 1), roots)
        if singular:
            # the last branch loses its series impedance
            last = dataclasses.replace(case.branches[-1], r=0.0, x=0.0)
            case = dataclasses.replace(case, branches=case.branches[:-1] + (last,))
        index = forest_index(case, default_config(case))
        # the parent end of each closed branch sends
        sending = np.full(len(case.branches), -1)
        below = index.parent_branch >= 0
        sending[index.parent_branch[below]] = index.parent[below]
        rng = np.random.default_rng(seed)
        by_id = {
            bus: complex(rng.uniform(0.9, 1.1), rng.uniform(-0.1, 0.1)) for bus in case.bus_by_id
        }
        voltages = np.array([by_id[bus] for bus in sorted(by_id)])  # over bus positions
        for island in index.islands:
            branches = island.branch_positions
            if singular and len(case.branches) in island.branches:
                with pytest.raises(SingularBranchError):
                    oracle_admittance(case, island)
                with pytest.raises(SingularBranchError):
                    build_admittance(case, island)
                with pytest.raises(SingularBranchError):
                    oracle_branch_flows(case, island.branches, by_id)
                with pytest.raises(SingularBranchError):
                    branch_flows(case, branches, voltages, sending)
                continue
            _assert_admittance_matches_oracle(case, island)
            _assert_flows_match_oracle(case, branches, voltages, sending)
            _assert_flows_match_oracle(case, branches, voltages, None)


class TestJacobianPattern:
    def test_pv_buses_clamping_mid_solve(self, ieee14_case, ieee14_forest, monkeypatch):
        # buses 6 and 8 of the island fed from bus 1 reach a reactive limit
        # and turn PQ; every Jacobian after the switch must fit the new split
        island = next(
            isl for isl in split_islands(ieee14_case, ieee14_forest.config) if isl.root == 1
        )
        seen = []
        jacobian = powerflow.mismatch_jacobian

        def checked(ybus, v, pvpq, pq, pattern, ibus):
            # the solve hands over the product its mismatch used, at this v
            assert np.array_equal(ibus, ybus @ v)
            result = jacobian(ybus, v, pvpq, pq, pattern, ibus)
            # back from the pattern's leaves-first numbering to the mismatch's
            natural = np.empty(result.shape)
            natural[np.ix_(pattern.order, pattern.order)] = filled_array(result)
            seen.append((ybus, v.copy(), pvpq.copy(), pq.copy(), natural))
            return result

        monkeypatch.setattr(powerflow, "mismatch_jacobian", checked)
        _, result = _solve(ieee14_case, island)
        assert result.converged
        splits = [tuple(pq) for _, _, _, pq, _ in seen]
        assert len(set(splits)) == 2 and len(splits[-1]) == len(splits[0]) + 2
        for ybus, v, pvpq, pq, analytic in seen:
            numeric = fd_jacobian(ybus, v, np.zeros(len(v), dtype=complex), pvpq, pq)
            assert analytic.shape == numeric.shape
            assert np.max(np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1.0)) < 1e-5
            reference = dense_jacobian(ybus, v, pvpq, pq)
            assert np.max(np.abs(analytic - reference) / np.maximum(np.abs(reference), 1.0)) < 1e-12

    def test_one_pattern_per_solve_and_per_split(self, ieee14_recorded):
        # a bus that clamps and is released returns to a split the solve
        # already has a pattern for, so a solve builds fewer than one per switch
        solves = ieee14_recorded["solves"]
        assert sum(work.jacobians for work in solves) == 214
        assert sum(work.jacobians for work in solves if work.converged) == 115
        for work in solves:
            assert len(work.patterns) == len(work.splits), work.island
        assert sum(len(work.patterns) for work in solves) == 68
        search = solves[1:-2]  # without the meshed solve and the final solve's two islands
        assert sum(w.iterations for w in search if w.converged) == 127
        assert sum(w.iterations for w in search if not w.converged) == 99
        # every IEEE-14 system has at most _DENSE_MAX unknowns and is filled
        # dense, so the one sparse matrix a solve builds is its Ybus
        assert ieee14_recorded["sparse"] == len(solves) == 39
        for work in solves:
            assert all(p.order.size <= _DENSE_MAX and p.jacobian is None for p in work.patterns), work.island
        assert sum(work.switches for work in solves) > sum(len(work.splits) - 1 for work in solves)

    def test_each_jacobian_reuses_the_product_at_its_voltages(self, ieee14_recorded):
        # including after _apply_q_limits releases a clamped bus and moves v
        assert sum(work.stale_products for work in ieee14_recorded["solves"]) == 0

    def test_every_ieee14_pattern_matches_the_stable_argsort_oracle(self, ieee14_recorded):
        calls = ieee14_recorded["patterns"]
        assert len(calls) == sum(len(work.patterns) for work in ieee14_recorded["solves"])
        for ybus, pvpq, pq, buses in calls:
            _assert_pattern_matches_oracle(ybus, pvpq, pq, buses)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), buses=st.integers(2, 60), roots=st.integers(1, 2))
    def test_seeded_feeders_match_the_stable_argsort_oracle(self, seed, buses, roots):
        case = random_radial_feeder(seed, max(buses, roots + 1), roots)
        rng = np.random.default_rng(seed)
        for island in forest_index(case, default_config(case)).islands:
            setup = _classify(case, island)
            pvpq = np.delete(np.arange(len(setup.order)), setup.slack)
            if not pvpq.size:
                continue  # a lone root: no Jacobian
            # any PV/PQ split: the generated buses are all PQ
            pq = np.sort(rng.choice(pvpq, rng.integers(0, pvpq.size + 1), replace=False))
            _assert_pattern_matches_oracle(setup.ybus, pvpq, pq, leaves_first(setup.ybus))

    def test_lone_root_has_an_empty_pattern_in_any_order(self, six_bus_case):
        setup = _classify(six_bus_case, island_of(six_bus_case, 2, {2}, ()))
        empty = np.array([], dtype=int)
        pattern = jacobian_pattern(setup.ybus, empty, empty, leaves_first(setup.ybus))
        assert pattern.jacobian is None  # no unknowns: a dense pattern
        assert pattern.order.size == pattern.take.size == pattern.slots.size == 0
        ibus = setup.ybus @ setup.v
        assert mismatch_jacobian(setup.ybus, setup.v, empty, empty, pattern, ibus).shape == (0, 0)


def _assert_pattern_matches_oracle(ybus, pvpq, pq, buses) -> None:
    pattern = jacobian_pattern(ybus, pvpq, pq, buses)
    expected = oracle_jacobian_pattern(ybus, pvpq, pq, buses)
    for name in ("columns", "take", "order"):
        np.testing.assert_array_equal(getattr(pattern, name), getattr(expected, name), err_msg=name)
    size = expected.order.size
    if size <= _DENSE_MAX:
        # each term at the row-major cell of the oracle's CSC entry it sums into
        assert pattern.jacobian is None
        matrix = expected.jacobian
        cells = matrix.indices * size + np.repeat(np.arange(size), np.diff(matrix.indptr))
        np.testing.assert_array_equal(pattern.slots, cells[expected.slots])
        return
    np.testing.assert_array_equal(pattern.slots, expected.slots)
    # the same cells, in CSC order
    assert pattern.jacobian.shape == expected.jacobian.shape
    np.testing.assert_array_equal(pattern.jacobian.indptr, expected.jacobian.indptr)
    np.testing.assert_array_equal(pattern.jacobian.indices, expected.jacobian.indices)


def _assert_dense_fill_has_the_csc_bits(ybus, v, pvpq, pq) -> None:
    """The dense fill is toarray() of the CSC fill through the stable-argsort
    oracle's pattern, bit for bit: each entry sums the same terms in the same order."""
    buses = leaves_first(ybus)
    ibus = ybus @ v
    pattern = jacobian_pattern(ybus, pvpq, pq, buses)
    assert pattern.jacobian is None
    dense = mismatch_jacobian(ybus, v, pvpq, pq, pattern, ibus)
    csc = mismatch_jacobian(ybus, v, pvpq, pq, oracle_jacobian_pattern(ybus, pvpq, pq, buses), ibus)
    expected = csc.toarray()
    assert dense.shape == expected.shape
    np.testing.assert_array_equal(dense.view(np.uint64), expected.view(np.uint64))


class TestDenseFill:
    """Up to _DENSE_MAX unknowns the Jacobian is filled straight into a dense
    array, with every bit of the CSC fill it replaces."""

    def test_every_ieee14_search_island(self, ieee14_case, ieee14_recorded):
        # 36 radial islands and the meshed network, at the flat start and the solution
        islands = {(isl.root, isl.branches): isl for isl in ieee14_recorded["admittance"]}
        assert len(islands) == 37
        lone = []
        for island in islands.values():
            setup = _classify(ieee14_case, island)
            if not (setup.pv or setup.pq):
                lone.append(island.root)
                continue  # a lone root: no Jacobian
            pvpq = np.array(sorted(setup.pv + setup.pq), dtype=int)
            pq = np.array(setup.pq, dtype=int)
            for v in (setup.v, solve_newton_raphson(ieee14_case, island).v):
                _assert_dense_fill_has_the_csc_bits(setup.ybus, v, pvpq, pq)
        assert lone == [1]  # root bus 1 with both its branches open

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), buses=st.integers(2, 32), roots=st.integers(1, 2))
    def test_seeded_feeders_with_any_split(self, seed, buses, roots):
        # at most 31 buses besides the root: at most 62 unknowns, all filled dense
        case = random_radial_feeder(seed, max(buses, roots + 1), roots)
        rng = np.random.default_rng(seed)
        for island in forest_index(case, default_config(case)).islands:
            setup = _classify(case, island)
            pvpq = np.delete(np.arange(len(setup.order)), setup.slack)
            if not pvpq.size:
                continue  # a lone root: no Jacobian
            pq = np.sort(rng.choice(pvpq, rng.integers(0, pvpq.size + 1), replace=False))
            off_flat = (1.0 + rng.uniform(-0.05, 0.05, pvpq.size + 1)) * np.exp(
                1j * rng.uniform(-0.1, 0.1, pvpq.size + 1)
            )
            for v in (setup.v, off_flat):
                _assert_dense_fill_has_the_csc_bits(setup.ybus, v, pvpq, pq)


class TestStableOrder:
    """The sort build_admittance and jacobian_pattern use in place of a
    stable argsort."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        keys=st.lists(st.integers(0, 3), max_size=80)  # mostly duplicates
        | st.lists(st.integers(0, 2**40 - 1), max_size=80)
    )
    @example(keys=[])
    @example(keys=[5])
    def test_stable_order_is_a_stable_argsort(self, keys):
        keys = np.array(keys, dtype=np.int64)
        ordered, order = _stable_order(keys, 2**40)
        np.testing.assert_array_equal(order, np.argsort(keys, kind="stable"))
        np.testing.assert_array_equal(ordered, keys[order])

    def test_stable_order_refuses_keys_that_overflow(self):
        keys = np.array([0, 1, 2], dtype=np.int64)  # two bits of position
        _stable_order(keys, 2**61)
        with pytest.raises(OverflowError):
            _stable_order(keys, 2**61 + 1)


def _newton_points(case, island):
    """(pattern, Jacobian numbered leaves first, the same Jacobian as CSC,
    dense Jacobian) at the flat start and at the solution, the two points
    every Newton solve factors a Jacobian near; nothing for a lone root.

    The CSC matrix is the solver's own fill over _DENSE_MAX unknowns, and
    below it the fill through the oracle's pattern, in the same numbering."""
    setup = _classify(case, island)
    if not (setup.pv or setup.pq):
        return
    solved = solve_newton_raphson(case, island)
    pvpq = np.array(sorted(setup.pv + setup.pq), dtype=int)
    pq = np.array(setup.pq, dtype=int)
    buses = leaves_first(setup.ybus)
    pattern = jacobian_pattern(setup.ybus, pvpq, pq, buses)
    oracle = oracle_jacobian_pattern(setup.ybus, pvpq, pq, buses)
    for v in (setup.v, solved.v):
        # a pattern's CSC matrix is overwritten by its next fill
        ibus = setup.ybus @ v
        jacobian = mismatch_jacobian(setup.ybus, v, pvpq, pq, pattern, ibus)
        csc = jacobian if sparse.issparse(jacobian) else mismatch_jacobian(setup.ybus, v, pvpq, pq, oracle, ibus)
        yield pattern, jacobian, csc, dense_jacobian(setup.ybus, v, pvpq, pq)


def _assert_leaves_first_without_fill(case, island) -> None:
    """The Jacobian numbered leaves first is P J P^T of the dense Jacobian,
    and its SuperLU factor in that order has no entry J lacks and solves it.

    Solutions are checked by their residual, here and in
    _assert_step_solves_the_dense_system, since at a diverged solve's last
    iterate J's condition number reaches 7e5 and two sound solvers' steps
    differ by more than 1e-12."""
    for pattern, jacobian, csc, dense in _newton_points(case, island):
        size = dense.shape[0]
        assert sorted(pattern.order) == list(range(size))
        permute = np.eye(size)[pattern.order]
        _assert_close(filled_array(jacobian), permute @ dense @ permute.T)
        factors = _factor(csc)
        # SuperLU swapped no rows: every pivot is the diagonal, which on a
        # tree numbered leaves first is what keeps the factor free of fill
        np.testing.assert_array_equal(factors.perm_r, np.arange(size))
        assert factors.L.nnz + factors.U.nnz <= csc.nnz + size
        rhs = csc @ np.random.default_rng(size).standard_normal(size)
        _assert_close(csc @ factors.solve(rhs), rhs)


def _assert_step_solves_the_dense_system(case, island) -> None:
    """The Newton step, mapped back to the mismatch's numbering, solves the
    dense system, through SuperLU exactly when it has over _DENSE_MAX
    unknowns."""
    factor = powerflow._factor
    factored = []

    def counted(matrix):
        factored.append(matrix.shape[0])
        return factor(matrix)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(powerflow, "_factor", counted)
        for pattern, jacobian, _, dense in _newton_points(case, island):
            size = dense.shape[0]
            rhs = dense @ np.random.default_rng(size).standard_normal(size)
            factored.clear()
            _assert_close(dense @ _newton_step(jacobian, rhs, pattern), -rhs)
            assert factored == ([size] if size > _DENSE_MAX else [])


class TestLeavesFirst:
    """Over _DENSE_MAX unknowns the Newton step factors the Jacobian leaves
    first, which on a tree creates no fill (Tinney & Walker, 1967)."""

    def test_every_radial_ieee14_search_island(self, ieee14_case, ieee14_recorded):
        islands = {(isl.root, isl.branches): isl for isl in ieee14_recorded["admittance"]}
        radial = [isl for isl in islands.values() if len(isl.branches) == len(isl.buses) - 1]
        assert len(radial) == 36
        for island in radial:
            _assert_leaves_first_without_fill(ieee14_case, island)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), buses=st.integers(2, 60), roots=st.integers(1, 2))
    def test_seeded_radial_feeders(self, seed, buses, roots):
        case = random_radial_feeder(seed, max(buses, roots + 1), roots)
        for island in forest_index(case, default_config(case)).islands:
            _assert_leaves_first_without_fill(case, island)


class TestNewtonStep:
    """_newton_step solves up to _DENSE_MAX unknowns as a dense array and
    larger systems through the leaves-first SuperLU factor."""

    def test_every_ieee14_search_island(self, ieee14_case, ieee14_recorded):
        # 36 radial islands and the meshed network
        islands = {(isl.root, isl.branches): isl for isl in ieee14_recorded["admittance"]}
        for island in islands.values():
            _assert_step_solves_the_dense_system(ieee14_case, island)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), buses=st.integers(2, 60), roots=st.integers(1, 2))
    @example(seed=0, buses=60, roots=1)  # 118 unknowns: SuperLU
    @example(seed=0, buses=20, roots=1)  # 38 unknowns: dense
    def test_seeded_feeders_on_both_sides_of_the_threshold(self, seed, buses, roots):
        case = random_radial_feeder(seed, max(buses, roots + 1), roots)
        for island in forest_index(case, default_config(case)).islands:
            _assert_step_solves_the_dense_system(case, island)
