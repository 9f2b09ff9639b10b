"""Forest construction, loop tracing, and switch adjacency."""
from __future__ import annotations

import dataclasses
import random

import networkx as nx
import pytest

from conftest import enumerate_radial, oracle_is_radial, oracle_spanning_forest, two_bus_case
from dnr.exchange import _sides
from dnr.model import (
    Branch,
    Bus,
    BusKind,
    NetworkCase,
    SwitchState,
    is_radial,
    make_config,
)
from dnr.powerflow import NotConvergedError, solve_all_islands, solve_network
from dnr.topology import (
    UnreachableError,
    build_spanning_forest,
    forest_index,
    fundamental_loop,
    path_to_root,
    weights_from_flow,
)


def _uniform_weights(case: NetworkCase) -> dict[int, float]:
    return {b.id: 1.0 for b in case.branches}


def _pinned_closed(case: NetworkCase, branch_id: int) -> NetworkCase:
    """The case with one branch no longer switchable, so held at its default state, closed."""
    return dataclasses.replace(case, branches=tuple(
        dataclasses.replace(b, switchable=False) if b.id == branch_id else b for b in case.branches
    ))


class TestSpanningForest:
    def test_ieee14_two_trees(self, ieee14_case, ieee14_forest):
        assert len(ieee14_forest.config.closed) == 12
        assert len(ieee14_forest.config.open_ids) == 8
        assert is_radial(ieee14_case, ieee14_forest.config)

    def test_three_bus_path_closes_everything(self):
        case = NetworkCase(
            100.0,
            (Bus(1, BusKind.FEEDER, v_setpoint=1.0), Bus(2), Bus(3)),
            (Branch(1, 1, 2, r=0.01, x=0.02), Branch(2, 2, 3, r=0.01, x=0.02)),
            roots=(1,),
        )
        result = build_spanning_forest(case, _uniform_weights(case))
        assert result.config.closed == frozenset({1, 2})
        assert result.config.open_ids == frozenset()

    def test_weighted_triangle_keeps_the_heavy_pair(self, triangle_case):
        result = build_spanning_forest(triangle_case, {1: 3.0, 2: 2.0, 3: 1.0})
        assert result.config.closed == frozenset({1, 2})
        assert result.config.open_ids == {3}

    def test_equal_weights_fall_to_lower_ids(self, triangle_case):
        # branches 1 (1-2) and 2 (1-3) tie out of the root, then 2 and 3 (2-3)
        result = build_spanning_forest(triangle_case, _uniform_weights(triangle_case))
        assert result.config.closed == frozenset({1, 2})

    def test_missing_weights_rejected(self, triangle_case):
        with pytest.raises(KeyError):
            build_spanning_forest(triangle_case, {1: 1.0, 2: 1.0})

    def test_pinned_open_branch_can_strand_buses(self):
        case = NetworkCase(
            100.0,
            (Bus(1, BusKind.FEEDER, v_setpoint=1.0), Bus(2), Bus(3, p_load=10.0)),
            (
                Branch(1, 1, 2, r=0.01, x=0.02),
                Branch(
                    2, 2, 3, r=0.01, x=0.02,
                    switchable=False, default_state=SwitchState.OPEN,
                ),
            ),
            roots=(1,),
        )
        with pytest.raises(UnreachableError) as err:
            build_spanning_forest(case, _uniform_weights(case))
        assert err.value.bus_ids == [3]

    def test_always_radial(
        self, triangle_case, six_bus_case, ring6_case, path5_case, five_bus_tworoot
    ):
        for case in (triangle_case, six_bus_case, ring6_case, path5_case, five_bus_tworoot):
            result = build_spanning_forest(case, _uniform_weights(case))
            assert is_radial(case, result.config)
            assert oracle_is_radial(case, result.config.closed)

    def test_greedy_weight_multiset_is_lexicographically_maximal(
        self, triangle_case, six_bus_case, ring6_case
    ):
        for case in (triangle_case, six_bus_case, ring6_case):
            weights = {b.id: float(b.id) for b in case.branches}  # distinct on purpose
            result = build_spanning_forest(case, weights)
            chosen = sorted((weights[b] for b in result.config.closed), reverse=True)
            for closed in enumerate_radial(case):
                other = sorted((weights[b] for b in closed), reverse=True)
                assert chosen >= other, (case.roots, sorted(closed))

    def test_heap_matches_the_rescanning_oracle(self, ieee14_case):
        # branch 13 (6-13) pinned closed, branch 7 (4-5) pinned open
        pins = {13: SwitchState.CLOSED, 7: SwitchState.OPEN}
        pinned = dataclasses.replace(ieee14_case, branches=tuple(
            dataclasses.replace(b, switchable=False, default_state=pins[b.id]) if b.id in pins else b
            for b in ieee14_case.branches
        ))
        rng = random.Random(14)
        for case in (ieee14_case, pinned):
            for trial in range(40):
                if trial % 2:
                    weights = {b.id: float(rng.choice((1, 2, 3))) for b in case.branches}  # ties
                else:
                    weights = {b.id: rng.uniform(0.0, 100.0) for b in case.branches}
                expected = oracle_spanning_forest(case, weights)
                assert build_spanning_forest(case, weights) == expected, (case is pinned, trial)
        assert 13 in expected.config.closed and 7 not in expected.config.closed  # pins held

    def test_determinism(self, six_bus_case):
        weights = {b.id: 2.0 for b in six_bus_case.branches}
        assert build_spanning_forest(six_bus_case, weights) == build_spanning_forest(
            six_bus_case, weights
        )


class TestFlowWeights:
    def test_zero_load_gives_zero_weights(self):
        case = two_bus_case(0.0, 0.0)
        solution = solve_all_islands(case, make_config(case, {1}))
        assert weights_from_flow(case, solution) == {1: 0.0}

    def test_two_bus_weight_is_sending_mva(self):
        case = two_bus_case(50.0, 20.0)
        solution = solve_all_islands(case, make_config(case, {1}))
        flow = solution.flows[1]
        expected = (flow.p_send**2 + flow.q_send**2) ** 0.5
        assert weights_from_flow(case, solution)[1] == pytest.approx(expected)

    def test_ieee14_weights_all_positive_slack_corridor_heaviest(
        self, ieee14_case, ieee14_meshed
    ):
        weights = weights_from_flow(ieee14_case, ieee14_meshed)
        assert set(weights) == set(ieee14_case.branch_by_id)
        assert all(w > 0.0 for w in weights.values())
        assert max(weights, key=weights.get) == 1  # the 1-2 corridor out of the slack

    def test_unconverged_solution_rejected(self):
        case = two_bus_case(5000.0, 2000.0)
        solution = solve_network(case, make_config(case, {1}))
        assert not solution.converged
        with pytest.raises(NotConvergedError):
            weights_from_flow(case, solution)


class TestForestIndex:
    """Buses 1-6 and branches 1-6 of the six-bus case sit at positions 0-5."""

    def test_roots_and_parents(self, six_bus_case):
        index = forest_index(six_bus_case, make_config(six_bus_case, {1, 2, 3, 4}))
        assert index.root.tolist() == [0, 1, 0, 1, 0, 1]  # indices into case.roots
        assert index.parent.tolist() == [-1, -1, 0, 1, 2, 3]
        assert index.parent_branch.tolist() == [-1, -1, 0, 1, 2, 3]
        assert index.path_r.tolist() == [0.0, 0.0, 0.02, 0.02, 0.02 + 0.03, 0.02 + 0.03]
        assert index.closed.tolist() == [0, 1, 2, 3]

    def test_path_to_root(self, six_bus_case):
        index = forest_index(six_bus_case, make_config(six_bus_case, {1, 2, 3, 4}))
        assert path_to_root(index, 5) == [3, 1]  # bus 6 by branches 4 and 2
        assert path_to_root(index, 1) == []


class TestFundamentalLoop:
    def test_triangle_cycle(self, triangle_case):
        config = make_config(triangle_case, {1, 2})
        loop = fundamental_loop(triangle_case, config, 3)
        assert loop.branch_ids == (1, 2)
        assert not loop.inter_feeder
        assert loop.sides() == ((1, 2), (2, 1))

    def test_closed_branch_is_not_a_loop_seed(self, triangle_case):
        config = make_config(triangle_case, {1, 2})
        with pytest.raises(ValueError):
            fundamental_loop(triangle_case, config, 1)

    def test_inter_feeder_path_runs_root_to_root(self, five_bus_tworoot):
        config = make_config(five_bus_tworoot, {1, 2, 3})
        loop = fundamental_loop(five_bus_tworoot, config, 4)
        assert loop.inter_feeder
        assert loop.branch_ids == (3, 2, 1)
        assert loop.u_side_count == 1
        assert loop.sides() == ((3,), (2, 1))

    def test_ieee14_intra_island_loop_is_a_real_cycle(self, ieee14_case, ieee14_forest):
        config = ieee14_forest.config
        index = forest_index(ieee14_case, config)
        root = dict(zip(sorted(ieee14_case.bus_by_id), index.root.tolist()))
        for open_id in sorted(config.open_ids):
            branch = ieee14_case.branch_by_id[open_id]
            if root[branch.from_bus] != root[branch.to_bus]:
                continue
            loop = fundamental_loop(ieee14_case, config, open_id)
            assert not loop.inter_feeder
            assert set(loop.branch_ids) <= config.closed
            # loop plus the open branch holds exactly one cycle
            graph = nx.MultiGraph()
            for bid in (*loop.branch_ids, open_id):
                b = ieee14_case.branch_by_id[bid]
                graph.add_edge(b.from_bus, b.to_bus)
            assert len(nx.cycle_basis(nx.Graph(graph))) == 1 or len(loop.branch_ids) == 1

    def test_loop_members_are_closed_everywhere(self, six_bus_case):
        for closed in enumerate_radial(six_bus_case):
            config = make_config(six_bus_case, closed)
            for open_id in sorted(config.open_ids):
                loop = fundamental_loop(six_bus_case, config, open_id)
                assert set(loop.branch_ids) <= set(closed)
                assert open_id not in loop.branch_ids


def _hop_ranked(loop) -> list[int]:
    """The loop's branch ids by walk length from its open branch, lower id on ties."""
    ids, k = loop.branch_ids, loop.u_side_count

    def hops(position: int) -> int:
        if loop.inter_feeder:
            return k - 1 - position if position < k else position - k
        return min(position, len(ids) - 1 - position)

    return [b for _, b in sorted((hops(pos), b) for pos, b in enumerate(ids))]


def _four_bus_tie(tie_from: int, tie_to: int) -> NetworkCase:
    """Roots 1 and 2 feed buses 3 and 4 by branches 1 and 2; tie 3 joins the given ends."""
    return NetworkCase(
        100.0,
        (
            Bus(1, BusKind.FEEDER, v_setpoint=1.0),
            Bus(2, BusKind.FEEDER, v_setpoint=1.0),
            Bus(3, p_load=10.0, q_load=2.0),
            Bus(4, p_load=10.0, q_load=2.0),
        ),
        (
            Branch(1, 1, 3, r=0.01, x=0.02),
            Branch(2, 2, 4, r=0.01, x=0.02),
            Branch(3, tie_from, tie_to, r=0.01, x=0.02, default_state=SwitchState.OPEN),
        ),
        roots=(1, 2),
    )


class TestAdjacentSwitches:
    """A loop's two sides (FundamentalLoop.sides) and the side its walk starts on (exchange._sides)."""

    def test_triangle_order(self, triangle_case):
        loop = fundamental_loop(triangle_case, make_config(triangle_case, {1, 2}), 3)
        assert loop.sides() == ((1, 2), (2, 1))
        assert _sides(triangle_case, loop) == ([1, 2], [2, 1])  # both first switches 0 hops out

    def test_two_branch_tie_returns_both_nearest_first(self):
        case = _four_bus_tie(3, 4)
        loop = fundamental_loop(case, make_config(case, {1, 2}), 3)
        assert loop.sides() == ((1,), (2,))
        assert _sides(case, loop) == ([1], [2])
        # the tie turned round: its from-end's side is now branch 2's, and
        # the lower id still goes first
        case = _four_bus_tie(4, 3)
        loop = fundamental_loop(case, make_config(case, {1, 2}), 3)
        assert loop.sides() == ((2,), (1,))
        assert _sides(case, loop) == ([1], [2])

    def test_ring_gives_all_five_ordered_by_hops(self, ring6_case):
        loop = fundamental_loop(ring6_case, make_config(ring6_case, {1, 2, 4, 5, 6}), 3)
        assert loop.sides() == ((2, 1, 6, 5, 4), (4, 5, 6, 1, 2))
        assert _sides(ring6_case, loop) == ([2, 1, 6, 5, 4], [4, 5, 6, 1, 2])
        assert _hop_ranked(loop) == [2, 4, 1, 5, 6]

    def test_a_root_at_the_from_end_leaves_that_side_empty(self, six_bus_case):
        # branch 1 (1-3) open, bus 3 fed from root 2 by branches 6 (3-4) and 2 (2-4)
        loop = fundamental_loop(six_bus_case, make_config(six_bus_case, {2, 3, 5, 6}), 1)
        assert loop.inter_feeder and loop.u_side_count == 0
        assert loop.sides() == ((), (6, 2))
        assert _sides(six_bus_case, loop) == ([6, 2], [])

    def test_a_side_keeps_only_its_switches(self, five_bus_tworoot):
        loop = fundamental_loop(five_bus_tworoot, make_config(five_bus_tworoot, {1, 2, 3}), 4)
        assert _sides(five_bus_tworoot, loop) == ([2, 1], [3])  # 2 before 3 at 0 hops
        pinned = _pinned_closed(five_bus_tworoot, 2)
        assert _sides(pinned, loop) == ([3], [1])  # 3 at 0 hops before 1 at 1
        pinned = _pinned_closed(pinned, 3)
        assert _sides(pinned, loop) == ([1], [])

    def test_matches_loop_hop_ranking(self, six_bus_case, ring6_case):
        # each case as it is, and with each branch in turn pinned closed
        for case in (six_bus_case, ring6_case):
            for pinned in (case, *(_pinned_closed(case, b) for b in sorted(case.branch_by_id))):
                for closed in enumerate_radial(case):
                    config = make_config(case, closed)
                    for open_id in sorted(config.open_ids):
                        loop = fundamental_loop(case, config, open_id)
                        switches = [b for b in _hop_ranked(loop) if pinned.branch_by_id[b].switchable]
                        first, second = _sides(pinned, loop)
                        assert first[:1] == switches[:1], (sorted(closed), open_id)
                        assert sorted({*first, *second}) == sorted(switches)
                        assert second == [] or first != []
