"""Loss objective, constraint checks, and candidate ordering."""
from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from conftest import bench_feeders, two_bus_case
from dnr.caseio import parse_case
from dnr.model import Branch, Bus, BusKind, NetworkCase, NotRadialError, default_config, make_config
from dnr.objective import ConstraintCheck, IslandMemo, ObjectiveReport, evaluate_fo, sort_key
from dnr.powerflow import (
    BranchFlow,
    BranchFlows,
    BusValues,
    IslandResult,
    NotConvergedError,
    PowerFlowSolution,
    SolverOptions,
    solve_all_islands,
)
from dnr.topology import forest_index

PASS = ConstraintCheck("radiality", True, "")


def _report(fo: float, feasible: bool = True) -> ObjectiveReport:
    return ObjectiveReport(fo, (), (PASS,), feasible)


def _fabricated_two_bus_solution() -> PowerFlowSolution:
    """Hand-built solution: 1.0 + j0.5 pu leaving bus 1 at exactly 1.0 pu."""
    buses = np.array([1, 2])
    island = IslandResult(1, (1, 2), True, 3, 0.0, 1.25, 100.0, 50.0)
    return PowerFlowSolution(
        v_mag=BusValues(buses, np.array([1.0, 0.99])),
        v_angle=BusValues(buses, np.array([0.0, -0.01])),
        flows=BranchFlows(np.array([1]), np.array([[1, 2]]), np.array([[100.0, 50.0, -98.75, -43.75]])),
        total_loss_mw=1.25,
        converged=True,
        iterations=3,
        max_mismatch=0.0,
        islands=(island,),
    )


class TestObjectiveValue:
    def test_single_branch_arithmetic(self):
        # r (P^2 + Q^2) / v^2 in pu, rescaled: 0.01 * 1.25 / 1.0 * 100 MVA * 1 h
        case = two_bus_case(98.75, 43.75, r=0.01, x=0.05)
        config = make_config(case, {1})
        report = evaluate_fo(case, config, _fabricated_two_bus_solution())
        assert report.fo_value == pytest.approx(1.25, abs=1e-12)
        assert report.per_branch_terms == ((1, pytest.approx(1.25, abs=1e-12)),)
        assert report.feasible

    def test_zero_load_scores_zero(self):
        case = two_bus_case(0.0, 0.0)
        config = make_config(case, {1})
        report = evaluate_fo(case, config, solve_all_islands(case, config))
        assert report.fo_value == pytest.approx(0.0, abs=1e-12)
        assert report.feasible
        assert all(check.passed for check in report.constraints)

    def test_ieee14_radial_fo_tracks_losses(self, ieee14_case, ieee14_forest):
        solution = solve_all_islands(ieee14_case, ieee14_forest.config)
        report = evaluate_fo(ieee14_case, ieee14_forest.config, solution)
        fo_rate = report.fo_value / ieee14_case.delta_t_hours
        assert fo_rate == pytest.approx(solution.total_loss_mw, rel=0.02)

    def test_terms_sum_to_the_objective(self, six_bus_case):
        config = make_config(six_bus_case, {1, 2, 3, 4})
        solution = solve_all_islands(six_bus_case, config)
        report = evaluate_fo(six_bus_case, config, solution)
        assert sum(term for _, term in report.per_branch_terms) == pytest.approx(
            report.fo_value, abs=1e-12
        )
        assert {bid for bid, _ in report.per_branch_terms} == set(config.closed)

    def test_terms_read_as_the_tuple_they_stand_for(self, ieee14_case, ieee14_forest):
        # a report makes its (branch id, MWh) pairs when they are first read
        config = ieee14_forest.config
        report = evaluate_fo(ieee14_case, config, solve_all_islands(ieee14_case, config))
        pairs = tuple(report.per_branch_terms)
        assert [bid for bid, _ in pairs] == sorted(config.closed)
        assert report.per_branch_terms == pairs and pairs == report.per_branch_terms
        assert len(report.per_branch_terms) == len(pairs)
        assert report.per_branch_terms[-1] == pairs[-1]
        assert repr(report.per_branch_terms) == repr(pairs)
        as_built = ObjectiveReport(report.fo_value, pairs, report.constraints, report.feasible)
        assert report == as_built and hash(report) == hash(as_built)
        assert report != ObjectiveReport(report.fo_value, pairs[:-1], report.constraints, report.feasible)

    def test_load_growth_never_cuts_the_objective(self, triangle_case):
        # same topology, stepped load at the far bus
        values = []
        for p_mw in (50.0, 100.0, 150.0, 200.0, 250.0):
            buses = tuple(
                replace(b, p_load=p_mw) if b.id == 3 else b for b in triangle_case.buses
            )
            case = replace(triangle_case, buses=buses)
            config = make_config(case, {1, 2})
            report = evaluate_fo(case, config, solve_all_islands(case, config))
            values.append(report.fo_value)
        assert values == sorted(values)
        assert values[0] < values[-1]

    def test_doubling_delta_t_doubles_fo(self, six_bus_case):
        config = make_config(six_bus_case, {1, 2, 3, 4})
        solution = solve_all_islands(six_bus_case, config)
        base = evaluate_fo(six_bus_case, config, solution)
        stretched_case = replace(six_bus_case, delta_t_hours=2.0)
        stretched = evaluate_fo(stretched_case, config, solution)
        assert stretched.fo_value == pytest.approx(2.0 * base.fo_value, abs=1e-12)


class TestGuards:
    def test_unconverged_solution_rejected(self):
        case = two_bus_case(50.0, 20.0)
        config = make_config(case, {1})
        bad = replace(_fabricated_two_bus_solution(), converged=False)
        with pytest.raises(NotConvergedError):
            evaluate_fo(case, config, bad)

    def test_non_radial_config_rejected(self, triangle_case):
        config = make_config(triangle_case, {1, 2, 3})
        solution = _fabricated_two_bus_solution()
        with pytest.raises(NotRadialError):
            evaluate_fo(triangle_case, config, solution)

    def test_islands_must_match_the_configuration(self, five_bus_tworoot):
        # the objective is assembled island by island: a solution without
        # the configuration's islands, in root order, has nothing to score
        config = make_config(five_bus_tworoot, {1, 2, 3})
        solution = solve_all_islands(five_bus_tworoot, config)
        for islands in ((), solution.islands[::-1]):
            with pytest.raises(ValueError, match="islands"):
                evaluate_fo(five_bus_tworoot, config, replace(solution, islands=islands))
        # the same roots over other closed branches: bus 5 fed over the tie
        with pytest.raises(ValueError, match="islands"):
            evaluate_fo(five_bus_tworoot, make_config(five_bus_tworoot, {1, 3, 4}), solution)


class TestConstraints:
    def test_voltage_band_violation_names_the_bus(self):
        case = two_bus_case(80.0, 30.0, v_min=0.99)  # drop exceeds a 1% band
        config = make_config(case, {1})
        report = evaluate_fo(case, config, solve_all_islands(case, config))
        assert not report.feasible
        check = {c.name: c for c in report.constraints}["voltage_limits"]
        assert not check.passed
        assert "bus 2" in check.detail

    def test_rating_violation_names_the_branch(self):
        case = two_bus_case(50.0, 20.0, mva_limit=30.0)
        config = make_config(case, {1})
        report = evaluate_fo(case, config, solve_all_islands(case, config))
        check = {c.name: c for c in report.constraints}["current_limits"]
        assert not check.passed
        assert "branch 1" in check.detail
        assert not report.feasible

    def test_feeder_reactive_limit_violation(self):
        case = two_bus_case(50.0, 20.0, q_min=-1.0, q_max=1.0)
        config = make_config(case, {1})
        report = evaluate_fo(case, config, solve_all_islands(case, config))
        check = {c.name: c for c in report.constraints}["feeder_overload"]
        assert not check.passed
        assert "feeder 1" in check.detail

    @pytest.mark.parametrize(
        "load, check, named",
        [
            ({"v_min": 0.99}, "voltage_limits", "bus 4 at"),
            ({"mva_limit": 30.0}, "current_limits", "branch 2 at"),
        ],
        ids=["voltage", "rating"],
    )
    def test_a_tie_between_islands_names_the_first_island(self, load, check, named):
        # root 1 feeds bus 4 over branch 2 and root 2 feeds bus 3 over branch 1,
        # with the same line and load: both islands break the check by the
        # same excess, and the first island (root order), not the lower id, is named
        buses = (
            Bus(1, BusKind.FEEDER, v_setpoint=1.0),
            Bus(2, BusKind.FEEDER, v_setpoint=1.0),
            *(Bus(i, p_load=80.0, q_load=30.0, v_min=load.get("v_min", 0.9)) for i in (3, 4)),
        )
        branches = tuple(
            Branch(i, root, bus, r=0.01, x=0.05, mva_limit=load.get("mva_limit"))
            for i, root, bus in ((1, 2, 3), (2, 1, 4))
        )
        case = NetworkCase(100.0, buses, branches, roots=(1, 2))
        config = make_config(case, {1, 2})
        solution = solve_all_islands(case, config)
        # the two islands solve alike, to the bit
        assert solution.v_mag[3] == solution.v_mag[4]
        assert (solution.flows.power[0] == solution.flows.power[1]).all()
        memo = IslandMemo()
        for report in (evaluate_fo(case, config, solution), memo.report(case, config, SolverOptions())):
            failed = [c for c in report.constraints if not c.passed]
            assert [c.name for c in failed] == [check]
            assert failed[0].detail.startswith(named), failed[0].detail
        assert memo.solves == 2

    def test_all_four_checks_always_reported(self, six_bus_case):
        config = make_config(six_bus_case, {1, 2, 3, 4})
        solution = solve_all_islands(six_bus_case, config)
        report = evaluate_fo(six_bus_case, config, solution)
        assert [c.name for c in report.constraints] == [
            "radiality",
            "voltage_limits",
            "current_limits",
            "feeder_overload",
        ]
        assert report.feasible == all(c.passed for c in report.constraints)


class TestColumnarSolution:
    """A merged solution keeps per-bus and per-branch values as columns
    behind read-only mappings; the objective reads the columns into each
    island's positions and must score them exactly as a memo scores the
    solves' parts."""

    @pytest.mark.parametrize(
        "case_name, closed",
        [
            ("six_bus_case", {1, 2, 3, 4}),
            ("five_bus_tworoot", {1, 2, 3}),
            ("sagging", {1}),
            ("rated", {1}),
            ("overloaded_feeder", {1}),
            ("two_feeders", None),  # the generator's radial default
        ],
    )
    def test_solved_islands_score_as_their_dicts(self, request, case_name, closed):
        case = {
            "sagging": lambda: two_bus_case(80.0, 30.0, v_min=0.99),
            "rated": lambda: two_bus_case(50.0, 20.0, mva_limit=30.0),
            "overloaded_feeder": lambda: two_bus_case(50.0, 20.0, q_min=-1.0, q_max=1.0),
            "two_feeders": lambda: parse_case(bench_feeders().generate(1, 2, 30, 3)[0], fmt="json"),
        }.get(case_name, lambda: request.getfixturevalue(case_name))()
        config = default_config(case) if closed is None else make_config(case, closed)
        solution = solve_all_islands(case, config)
        if case_name == "two_feeders":
            # merged island by island, the ids do not ascend: each island's
            # arrays are read through a sorted copy of them
            assert list(solution.v_mag) != sorted(solution.v_mag)
            assert list(solution.flows) != sorted(solution.flows)
        assert isinstance(solution.v_mag, BusValues) and isinstance(solution.flows, BranchFlows)
        # the key order of the dicts merged island by island: buses in id
        # order within an island, then branches in id order within it
        islands = forest_index(case, config).islands
        assert list(solution.v_mag) == [bus for island in islands for bus in sorted(island.buses)]
        assert list(solution.v_angle) == list(solution.v_mag)
        assert list(solution.flows) == [b for island in islands for b in sorted(island.branches)]
        # scored as a memo scores the solves' parts, read in positions from the start
        assert evaluate_fo(case, config, solution) == IslandMemo().report(case, config, SolverOptions())

    def test_views_are_read_only_mappings(self, six_bus_case):
        solution = solve_all_islands(six_bus_case, make_config(six_bus_case, {1, 2, 3, 4}))
        assert 99 not in solution.v_mag and "1" not in solution.flows
        with pytest.raises(KeyError):
            solution.v_mag[99]
        with pytest.raises(TypeError):
            solution.v_mag[1] = 1.0
        # a flow is built from its row of the columns when indexed
        flows = solution.flows
        row = list(flows).index(1)
        send, recv = flows.ends[row].tolist()
        expected = BranchFlow(1, send, recv, *flows.power[row].tolist())
        assert flows[1] == expected and dict(flows)[1] == expected


class TestOrdering:
    def test_lower_objective_wins(self):
        assert sort_key(_report(3.7)) < sort_key(_report(4.3))
        assert sort_key(_report(4.3)) > sort_key(_report(3.7))

    def test_feasibility_dominates_value(self):
        assert sort_key(_report(9.0)) < sort_key(_report(2.0, feasible=False))
        assert sort_key(_report(5.0, feasible=False)) > sort_key(_report(99.0))
        # among infeasible reports the objective still orders
        assert sort_key(_report(2.0, feasible=False)) < sort_key(_report(3.0, feasible=False))

    def test_equal_reports_tie_without_a_branch_key(self):
        a, b = _report(5.0), _report(5.0)
        assert sort_key(a) == sort_key(b) == (False, 5.0)
        assert not sort_key(a) < sort_key(b)
