"""AC power flow: admittance assembly, the Newton solver against the Gauss-Seidel oracle, branch flows."""
from __future__ import annotations

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (
    dense_jacobian,
    fd_jacobian,
    oracle_admittance,
    oracle_branch_flows,
    oracle_jacobian_pattern,
    random_four_bus,
    random_radial_feeder,
    solve_gauss_seidel,
    two_bus_case,
    two_bus_oracle,
)
from dnr import powerflow
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
    _classify,
    _factor,
    _newton_step,
    _stable_order,
    branch_flows,
    build_admittance,
    jacobian_pattern,
    leaves_first,
    mismatch_jacobian,
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


def _whole_island(case: NetworkCase) -> Island:
    return Island(case.roots[0], frozenset(case.bus_by_id), frozenset(case.branch_by_id))


class TestAdmittance:
    def test_single_branch_pure_reactance(self):
        case = NetworkCase(
            100.0,
            (Bus(1, BusKind.FEEDER, v_setpoint=1.0), Bus(2)),
            (Branch(1, 1, 2, r=0.0, x=0.1),),
            roots=(1,),
        )
        ybus, order = build_admittance(case, _whole_island(case))
        assert order == [1, 2]
        expected = np.array([[-10j, 10j], [10j, -10j]])
        assert np.allclose(ybus.toarray(), expected)

    def test_lone_root_island(self, six_bus_case):
        ybus, order = build_admittance(six_bus_case, Island(2, frozenset({2}), frozenset()))
        assert order == [2]
        assert ybus.shape == (1, 1)
        assert ybus.toarray()[0, 0] == 0.0

    def test_ieee14_row_sums_reduce_to_shunt_terms(self, ieee14_case):
        # an ideal (tap 1) branch cancels out of its row sum, leaving only
        # charging and bus shunts; an off-nominal tap leaves a residual
        # ys/t^2 - ys/t on the from side and ys - ys/t on the to side
        ybus, order = build_admittance(ieee14_case, _whole_island(ieee14_case))
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
            build_admittance(case, _whole_island(case))
        with pytest.raises(SingularBranchError):
            branch_flows(case, {1}, {1: 1.0 + 0j, 2: 1.0 + 0j})


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
        solution = solve_newton_raphson(case, _whole_island(case))
        assert solution.converged
        assert solution.iterations == 1  # flat start already satisfies the mismatch
        assert solution.total_loss_mw == pytest.approx(0.0, abs=1e-9)
        assert solution.v_mag[2] == pytest.approx(1.0)
        assert solution.v_angle[2] == pytest.approx(0.0)

    def test_loaded_two_bus_matches_quadratic_oracle(self):
        case = two_bus_case(50.0, 20.0, r=0.01, x=0.05)
        oracle = two_bus_oracle(1.0, 0.5, 0.2, 0.01, 0.05)
        solution = solve_newton_raphson(case, _whole_island(case))
        assert solution.converged
        assert solution.v_mag[2] == pytest.approx(oracle["v2"], abs=1e-8)
        assert solution.total_loss_mw == pytest.approx(oracle["loss_p"] * 100.0, abs=1e-6)

    def test_converged_means_inside_tolerance(self, ieee14_meshed):
        assert ieee14_meshed.max_mismatch <= SolverOptions().tolerance

    def test_iteration_cap_reported_as_divergence(self):
        case = two_bus_case(50.0, 20.0)
        solution = solve_newton_raphson(
            case, _whole_island(case), options=SolverOptions(max_iterations=1)
        )
        assert not solution.converged
        assert solution.iterations == 1

    def test_singular_jacobian_keeps_the_best_iterate(self, monkeypatch):
        # SuperLU raises on an exactly singular factor; the solve must stop
        # as it does on a non-finite step, not raise or warn
        case = two_bus_case(50.0, 20.0)
        jacobian = powerflow.mismatch_jacobian

        def zero_values(*args):
            result = jacobian(*args)
            result.data[:] = 0.0
            return result

        monkeypatch.setattr(powerflow, "mismatch_jacobian", zero_values)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            solution = solve_newton_raphson(case, _whole_island(case))
        assert not solution.converged
        assert solution.iterations == 1
        assert solution.v_mag[2] == 1.0  # the flat start, never stepped from

    def test_impossible_load_does_not_converge(self):
        case = two_bus_case(5000.0, 2000.0)  # far beyond the line's capability
        solution = solve_newton_raphson(case, _whole_island(case))
        assert not solution.converged

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
        island = _whole_island(case)
        solution = solve_newton_raphson(case, island)
        assert solution.converged
        assert solution.v_mag[2] < 1.05  # setpoint unreachable at the limit
        ybus, order = build_admittance(case, island)
        v = np.array([solution.voltage(b) for b in order])
        injections = v * np.conj(ybus.toarray() @ v) * case.base_mva
        q_machine = injections[order.index(2)].imag + case.bus_by_id[2].q_load
        assert q_machine == pytest.approx(5.0, abs=1e-5)


class TestGaussSeidel:
    def test_zero_load_two_bus_is_flat(self):
        case = two_bus_case(0.0, 0.0)
        solution = solve_gauss_seidel(case, _whole_island(case))
        assert solution.converged
        assert solution.iterations == 1
        assert solution.v_mag[2] == pytest.approx(1.0)

    def test_agrees_with_newton_on_two_bus(self):
        case = two_bus_case(50.0, 20.0)
        island = _whole_island(case)
        nr = solve_newton_raphson(case, island)
        gs = solve_gauss_seidel(case, island)
        assert gs.converged
        for bus_id in nr.v_mag:
            assert abs(gs.voltage(bus_id) - nr.voltage(bus_id)) <= 1e-6

    def test_agrees_with_newton_on_meshed_ieee14(self, ieee14_case, ieee14_meshed):
        # exercises reactive-limit clamping and release during the slow sweeps
        gs = solve_gauss_seidel(
            ieee14_case, _whole_island(ieee14_case), all_closed_config(ieee14_case),
            SolverOptions(tolerance=1e-10),
        )
        assert gs.converged
        assert abs(gs.total_loss_mw - ieee14_meshed.total_loss_mw) <= 0.01
        worst = max(abs(gs.voltage(b) - ieee14_meshed.voltage(b)) for b in gs.v_mag)
        assert worst <= 1e-6


class TestBranchFlows:
    def test_zero_load_flows_are_zero(self):
        case = two_bus_case(0.0, 0.0)
        flows, loss = branch_flows(case, {1}, {1: 1.0 + 0j, 2: 1.0 + 0j})
        assert loss == pytest.approx(0.0, abs=1e-12)
        flow = flows[1]
        assert flow.p_send == flow.q_send == flow.p_recv == flow.q_recv == 0.0

    def test_two_bus_flow_matches_oracle(self):
        case = two_bus_case(50.0, 20.0, r=0.01, x=0.05)
        oracle = two_bus_oracle(1.0, 0.5, 0.2, 0.01, 0.05)
        solution = solve_newton_raphson(case, _whole_island(case))
        flow = solution.flows[1]
        assert flow.sending_bus == 1 and flow.receiving_bus == 2
        assert flow.p_send == pytest.approx(oracle["p_send"] * 100.0, abs=1e-5)
        assert flow.q_send == pytest.approx(oracle["q_send"] * 100.0, abs=1e-5)
        # power entering at both ends sums to the series loss
        assert flow.p_send + flow.p_recv == pytest.approx(oracle["loss_p"] * 100.0, abs=1e-5)
        assert flow.p_recv == pytest.approx(-50.0, abs=1e-5)  # delivered load
        assert flow.current_mag == pytest.approx(oracle["current"], abs=1e-8)

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
        one = solve_newton_raphson(single, _whole_island(single))
        assert both.converged
        assert len(both.islands) == 2
        assert both.total_loss_mw == pytest.approx(2.0 * one.total_loss_mw, abs=1e-9)

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
    """Analytic Jacobian at a random off-flat point, against central
    differences and against the dense matrix form of the same formulas."""
    rng = np.random.default_rng(1000 + seed)
    vm = np.abs(setup.v) + rng.uniform(-0.05, 0.05, len(setup.v))
    va = rng.uniform(-0.1, 0.1, len(setup.v))
    v = vm * np.exp(1j * va)
    pvpq = np.array(sorted(setup.pv + setup.pq), dtype=int)
    pq = np.array(setup.pq, dtype=int)
    analytic = mismatch_jacobian(setup.ybus, v, pvpq, pq).toarray()
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
        island = Island(1, frozenset(case.bus_by_id), frozenset(case.branch_by_id))
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
        setup = _classify(case, _whole_island(case))
        assert setup.pq == [] and setup.pv == [1, 2]
        _assert_jacobian_matches_oracles(setup, 3)
        solution = solve_newton_raphson(case, _whole_island(case))
        assert solution.converged
        assert solution.v_mag[2] == pytest.approx(1.02)

    def test_slack_only_island_needs_no_newton_step(self, six_bus_case, monkeypatch):
        island = Island(2, frozenset({2}), frozenset())
        setup = _classify(six_bus_case, island)
        empty = np.array([], dtype=int)
        assert mismatch_jacobian(setup.ybus, setup.v, empty, empty).shape == (0, 0)

        def no_jacobian(*args):
            raise AssertionError("a slack-only island has nothing to solve")

        monkeypatch.setattr(powerflow, "mismatch_jacobian", no_jacobian)
        solution = solve_newton_raphson(six_bus_case, island)
        assert solution.converged and solution.iterations == 1


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


def _assert_flows_match_oracle(case, branch_ids, voltages, sending) -> None:
    flows, loss = branch_flows(case, branch_ids, voltages, sending)
    expected, expected_loss = oracle_branch_flows(case, branch_ids, voltages, sending)
    assert list(flows) == list(expected)
    for branch_id, flow in flows.items():
        want = expected[branch_id]
        assert (flow.branch_id, flow.sending_bus, flow.receiving_bus) == (
            want.branch_id, want.sending_bus, want.receiving_bus
        )
        _assert_close(
            [flow.p_send, flow.q_send, flow.p_recv, flow.q_recv, flow.current_mag],
            [want.p_send, want.q_send, want.p_recv, want.q_recv, want.current_mag],
        )
    _assert_close(loss, expected_loss)


@dataclasses.dataclass
class _SolveWork:
    """Newton work inside one island solve."""

    island: Island
    jacobians: int = 0
    patterns: int = 0
    switches: int = 0  # calls of _apply_q_limits that changed the PV/PQ sets
    stale_products: int = 0  # Jacobians handed a Ybus @ v other than at their v


@pytest.fixture(scope="module")
def ieee14_recorded(ieee14_case):
    """One IEEE-14 reconfiguration as the CLI runs it, recording the power-flow calls."""
    calls = {"admittance": [], "flows": [], "patterns": [], "solves": []}

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
        ybus, v, _, _, _, ibus = args
        if not np.array_equal(ibus, ybus @ v):
            work.stale_products += 1

    def pattern(args, kwargs, result):
        calls["solves"][-1].patterns += 1
        calls["patterns"].append(args)

    def switched(args, kwargs, result):
        if result[0]:
            calls["solves"][-1].switches += 1

    solve = powerflow._SOLVERS["nr"]

    def recorded_solve(case, island, *args, **kwargs):
        calls["solves"].append(_SolveWork(island))
        return solve(case, island, *args, **kwargs)

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
        assert len(islands) == 42  # 41 radial islands and the meshed network
        for island in islands.values():
            _assert_admittance_matches_oracle(ieee14_case, island)
        assert len(ieee14_recorded["flows"]) == len(ieee14_recorded["solves"]) == 107
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
        sending = {
            branch: index.parent_bus[bus]
            for bus, branch in index.parent_branch.items()
            if branch is not None
        }
        rng = np.random.default_rng(seed)
        voltages = {
            bus: complex(rng.uniform(0.9, 1.1), rng.uniform(-0.1, 0.1)) for bus in case.bus_by_id
        }
        for island in index.islands:
            if singular and len(case.branches) in island.branches:
                with pytest.raises(SingularBranchError):
                    oracle_admittance(case, island)
                with pytest.raises(SingularBranchError):
                    build_admittance(case, island)
                with pytest.raises(SingularBranchError):
                    oracle_branch_flows(case, island.branches, voltages, sending)
                with pytest.raises(SingularBranchError):
                    branch_flows(case, island.branches, voltages, sending)
                continue
            _assert_admittance_matches_oracle(case, island)
            _assert_flows_match_oracle(case, island.branches, voltages, sending)
            _assert_flows_match_oracle(case, island.branches, voltages, None)


class TestJacobianPattern:
    def test_pv_buses_clamping_mid_solve(self, ieee14_case, ieee14_forest, monkeypatch):
        # buses 6 and 8 of the island fed from bus 1 reach a reactive limit
        # and turn PQ; every Jacobian after the switch must fit the new split
        island = next(
            isl for isl in split_islands(ieee14_case, ieee14_forest.config) if isl.root == 1
        )
        seen = []
        jacobian = powerflow.mismatch_jacobian

        def checked(ybus, v, pvpq, pq, pattern=None, ibus=None):
            # the solve hands over the product its mismatch used, at this v
            assert ibus is not None and np.array_equal(ibus, ybus @ v)
            result = jacobian(ybus, v, pvpq, pq, pattern, ibus)
            # back from the pattern's leaves-first numbering to the mismatch's
            natural = np.empty(result.shape)
            natural[np.ix_(pattern.order, pattern.order)] = result.toarray()
            seen.append((ybus, v.copy(), pvpq.copy(), pq.copy(), natural))
            return result

        monkeypatch.setattr(powerflow, "mismatch_jacobian", checked)
        solution = solve_newton_raphson(ieee14_case, island)
        assert solution.converged
        splits = [tuple(pq) for _, _, _, pq, _ in seen]
        assert len(set(splits)) == 2 and len(splits[-1]) == len(splits[0]) + 2
        for ybus, v, pvpq, pq, analytic in seen:
            numeric = fd_jacobian(ybus, v, np.zeros(len(v), dtype=complex), pvpq, pq)
            assert analytic.shape == numeric.shape
            assert np.max(np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1.0)) < 1e-5
            reference = dense_jacobian(ybus, v, pvpq, pq)
            assert np.max(np.abs(analytic - reference) / np.maximum(np.abs(reference), 1.0)) < 1e-12

    def test_one_pattern_per_solve_and_per_switch(self, ieee14_recorded):
        solves = ieee14_recorded["solves"]
        assert sum(work.jacobians for work in solves) == 881
        for work in solves:
            assert work.patterns == (1 if work.jacobians else 0) + work.switches, work.island
        assert sum(work.switches for work in solves) > 0

    def test_each_jacobian_reuses_the_product_at_its_voltages(self, ieee14_recorded):
        # including after _apply_q_limits releases a clamped bus and moves v
        assert sum(work.stale_products for work in ieee14_recorded["solves"]) == 0

    def test_every_ieee14_pattern_matches_the_stable_argsort_oracle(self, ieee14_recorded):
        calls = ieee14_recorded["patterns"]
        assert len(calls) == sum(work.patterns for work in ieee14_recorded["solves"])
        for ybus, pvpq, pq, buses in calls:
            _assert_pattern_matches_oracle(ybus, pvpq, pq, buses)
            _assert_pattern_matches_oracle(ybus, pvpq, pq, None)

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


def _assert_pattern_matches_oracle(ybus, pvpq, pq, buses) -> None:
    pattern = jacobian_pattern(ybus, pvpq, pq, buses)
    expected = oracle_jacobian_pattern(ybus, pvpq, pq, buses)
    for name in ("columns", "take", "slots", "order"):
        np.testing.assert_array_equal(getattr(pattern, name), getattr(expected, name), err_msg=name)
    # the same cells, in CSC order
    assert pattern.jacobian.shape == expected.jacobian.shape
    np.testing.assert_array_equal(pattern.jacobian.indptr, expected.jacobian.indptr)
    np.testing.assert_array_equal(pattern.jacobian.indices, expected.jacobian.indices)


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


def _assert_leaves_first_without_fill(case, island) -> None:
    """At the flat start and at the solution, the two points every Newton
    solve factors a Jacobian near, the Jacobian numbered leaves first is
    P J P^T of the dense Jacobian, its factor in that order has no entry J
    lacks, and the Newton step, mapped back to the mismatch's numbering,
    solves the dense system."""
    setup = _classify(case, island)
    if not (setup.pv or setup.pq):
        return  # a lone root: nothing to factor
    solved = solve_newton_raphson(case, island)
    pvpq = np.array(sorted(setup.pv + setup.pq), dtype=int)
    pq = np.array(setup.pq, dtype=int)
    pattern = jacobian_pattern(setup.ybus, pvpq, pq, leaves_first(setup.ybus))
    size = pvpq.size + pq.size
    assert sorted(pattern.order) == list(range(size))
    permute = np.eye(size)[pattern.order]
    rng = np.random.default_rng(size)
    for v in (setup.v, np.array([solved.voltage(bus) for bus in setup.order])):
        jacobian = mismatch_jacobian(setup.ybus, v, pvpq, pq, pattern)
        dense = dense_jacobian(setup.ybus, v, pvpq, pq)
        _assert_close(jacobian.toarray(), permute @ dense @ permute.T)
        factors = _factor(jacobian)
        # SuperLU swapped no rows: every pivot is the diagonal, which on a
        # tree numbered leaves first is what keeps the factor free of fill
        np.testing.assert_array_equal(factors.perm_r, np.arange(size))
        assert factors.L.nnz + factors.U.nnz <= jacobian.nnz + size
        # the step must solve the dense system; checked by its residual, since
        # at a diverged solve's last iterate J's condition number reaches 7e5
        # and two sound solvers' steps differ by more than 1e-12
        rhs = dense @ rng.standard_normal(size)
        _assert_close(dense @ _newton_step(jacobian, rhs, pattern), -rhs)


class TestLeavesFirst:
    """The Newton step factors the Jacobian leaves first, which on a tree
    creates no fill (Tinney & Walker, 1967)."""

    def test_every_radial_ieee14_search_island(self, ieee14_case, ieee14_recorded):
        islands = {(isl.root, isl.branches): isl for isl in ieee14_recorded["admittance"]}
        radial = [isl for isl in islands.values() if len(isl.branches) == len(isl.buses) - 1]
        assert len(radial) == 41
        for island in radial:
            _assert_leaves_first_without_fill(ieee14_case, island)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), buses=st.integers(2, 60), roots=st.integers(1, 2))
    def test_seeded_radial_feeders(self, seed, buses, roots):
        case = random_radial_feeder(seed, max(buses, roots + 1), roots)
        for island in forest_index(case, default_config(case)).islands:
            _assert_leaves_first_without_fill(case, island)
