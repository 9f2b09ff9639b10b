"""Forest construction, loop tracing, and switch adjacency."""
from __future__ import annotations

import dataclasses
import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    DATA_DIR,
    enumerate_radial,
    oracle_flat_loss,
    oracle_is_radial,
    oracle_spanning_forest,
    random_radial_feeder,
    two_bus_case,
)
from dnr.caseio import parse_case
from dnr.exchange import _Search, SearchOptions
from dnr.model import (
    Branch,
    Bus,
    BusKind,
    NetworkCase,
    SwitchState,
    default_config,
    is_radial,
    make_config,
)
from dnr.powerflow import NotConvergedError, solve_all_islands, solve_network
from dnr.topology import (
    UnreachableError,
    build_spanning_forest,
    flat_currents,
    forest_index,
    fundamental_loop,
    loss_changes,
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
        assert loop.u_side_count == 1  # branch 1 feeds the tie's from-end, bus 2

    def test_closed_branch_is_not_a_loop_seed(self, triangle_case):
        config = make_config(triangle_case, {1, 2})
        with pytest.raises(ValueError):
            fundamental_loop(triangle_case, config, 1)

    def test_inter_feeder_path_runs_root_to_root(self, five_bus_tworoot):
        config = make_config(five_bus_tworoot, {1, 2, 3})
        loop = fundamental_loop(five_bus_tworoot, config, 4)
        assert loop.inter_feeder
        assert loop.branch_ids == (3, 2, 1)
        assert loop.u_side_count == 1  # branch 3 feeds the tie's from-end, bus 4

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


def _root_path(case: NetworkCase, config, bus: int) -> set[int]:
    """Ids of the branches from a bus up to its root."""
    positions = path_to_root(forest_index(case, config), sorted(case.bus_by_id).index(bus))
    ids = sorted(case.branch_by_id)
    return {ids[p] for p in positions}


class TestAdjacentSwitches:
    """A loop's switches on each side of its open branch: `u_side_count` puts
    the from-end's (u's) side first, then the to-end's (v's), and the
    estimate picks only among switchable branches."""

    def test_triangle_order(self, triangle_case):
        loop = fundamental_loop(triangle_case, make_config(triangle_case, {1, 2}), 3)
        assert (loop.branch_ids, loop.u_side_count) == ((1, 2), 1)

    def test_two_branch_tie_returns_both_nearest_first(self):
        # each branch is next to the tie; the one at its from-end goes first
        case = _four_bus_tie(3, 4)
        loop = fundamental_loop(case, make_config(case, {1, 2}), 3)
        assert loop.inter_feeder and (loop.branch_ids, loop.u_side_count) == ((1, 2), 1)
        case = _four_bus_tie(4, 3)
        loop = fundamental_loop(case, make_config(case, {1, 2}), 3)
        assert loop.inter_feeder and (loop.branch_ids, loop.u_side_count) == ((2, 1), 1)

    def test_ring_cycle_splits_at_the_root(self, ring6_case):
        # tie 3 runs from bus 3 (fed by 2, 1) to bus 4 (fed by 4, 5, 6)
        loop = fundamental_loop(ring6_case, make_config(ring6_case, {1, 2, 4, 5, 6}), 3)
        assert (loop.branch_ids, loop.u_side_count) == ((2, 1, 6, 5, 4), 2)

    def test_a_cycle_through_a_root_at_the_from_end_has_no_u_side(self, ring6_case):
        loop = fundamental_loop(ring6_case, make_config(ring6_case, {2, 3, 4, 5, 6}), 1)
        assert not loop.inter_feeder
        assert (loop.branch_ids, loop.u_side_count) == ((6, 5, 4, 3, 2), 0)

    def test_a_cycle_leaves_out_the_path_above_its_apex(self, six_bus_case):
        # root 2 stands alone; root 1 feeds bus 3 by branch 1, and bus 3 feeds
        # tie 5's from-end by branch 3 and its to-end by branches 6 and 4
        loop = fundamental_loop(six_bus_case, make_config(six_bus_case, {1, 3, 4, 6}), 5)
        assert not loop.inter_feeder
        assert (loop.branch_ids, loop.u_side_count) == ((3, 6, 4), 1)

    def test_a_root_at_the_from_end_leaves_that_side_empty(self, six_bus_case):
        # branch 1 (1-3) open, bus 3 fed from root 2 by branches 6 (3-4) and 2 (2-4)
        loop = fundamental_loop(six_bus_case, make_config(six_bus_case, {2, 3, 5, 6}), 1)
        assert loop.inter_feeder
        assert (loop.branch_ids, loop.u_side_count) == ((6, 2), 0)

    def test_a_side_keeps_only_its_switches(self, five_bus_tworoot):
        # tie 4's loop is 3 on u's side, 2 and 1 on v's; 3 and 1 estimate the
        # same change, so with 2 pinned closed the lower id goes first
        picks = []
        case = five_bus_tworoot
        for pinned in (None, 2, 3, 1):
            case = case if pinned is None else _pinned_closed(case, pinned)
            picks.append(_Search(case, SearchOptions()).pick(make_config(case, {1, 2, 3}), 4))
        assert picks == [2, 1, 1, None]

    def test_every_split_follows_the_two_root_paths(
        self, six_bus_case, ring6_case, parallel_case, five_bus_tworoot
    ):
        for case in (six_bus_case, ring6_case, parallel_case, five_bus_tworoot):
            for closed in enumerate_radial(case):
                config = make_config(case, closed)
                for open_id in sorted(config.open_ids):
                    loop = fundamental_loop(case, config, open_id)
                    branch = case.branch_by_id[open_id]
                    up = _root_path(case, config, branch.from_bus)
                    vp = _root_path(case, config, branch.to_bus)
                    k = loop.u_side_count
                    assert set(loop.branch_ids[:k]) == up - vp, (sorted(closed), open_id)
                    assert set(loop.branch_ids[k:]) == vp - up, (sorted(closed), open_id)


def _with_ties(case: NetworkCase, seed: int, ties: int) -> NetworkCase:
    """The case with `ties` more branches, open, each joining two random buses not yet joined."""
    rng = random.Random(seed)
    joined = {frozenset((b.from_bus, b.to_bus)) for b in case.branches}
    added = []
    while len(added) < ties:
        ends = frozenset(rng.sample(sorted(case.bus_by_id), 2))
        if ends not in joined:
            joined.add(ends)
            u, v = sorted(ends, reverse=rng.random() < 0.5)
            r, x = rng.uniform(0.005, 0.05), rng.uniform(0.0, 0.1)
            added.append(Branch(len(case.branches) + len(added) + 1, u, v, r=r, x=x, default_state=SwitchState.OPEN))
    return dataclasses.replace(case, branches=case.branches + tuple(added))


def _assert_estimates_are_exact(case: NetworkCase, config) -> None:
    """Every exchange's estimate against the oracle's two flat-current losses; each pick is their argmin.

    The estimate must equal the candidate's loss less the incumbent's, to
    1e-9 of the incumbent's loss, and the search's pick must be the
    switchable branch with the lowest (estimate, id), which is also the
    lowest by the oracle's losses.
    """
    currents = flat_currents(case, config)
    base = oracle_flat_loss(case, config.closed)
    search = _Search(case, SearchOptions())
    for open_id in sorted(config.open_ids):
        loop = fundamental_loop(case, config, open_id)
        changes = loss_changes(case, currents, open_id, loop).tolist()
        exact = [oracle_flat_loss(case, (config.closed - {b}) | {open_id}) - base for b in loop.branch_ids]
        assert changes == pytest.approx(exact, rel=1e-9, abs=1e-9 * base), (sorted(config.closed), open_id)
        switchable = [i for i, b in enumerate(loop.branch_ids) if case.branch_by_id[b].switchable]
        pick = search.pick(config, open_id)
        if not switchable:
            assert pick is None
            continue
        assert pick == min((changes[i], loop.branch_ids[i]) for i in switchable)[1]
        assert exact[loop.branch_ids.index(pick)] <= min(exact[i] for i in switchable) + 1e-9 * base


class TestLossChanges:
    """Civanlar's closed form against the whole-forest flat-current loss of each candidate."""

    def test_every_exchange_of_every_small_configuration(
        self, triangle_case, six_bus_case, ring6_case, parallel_case, five_bus_tworoot
    ):
        for case in (triangle_case, six_bus_case, ring6_case, parallel_case, five_bus_tworoot):
            for closed in enumerate_radial(case):
                _assert_estimates_are_exact(case, make_config(case, closed))

    def test_a_pick_is_always_switchable(self, six_bus_case, ring6_case):
        for case in (six_bus_case, ring6_case):
            for pinned in (_pinned_closed(case, b) for b in sorted(case.branch_by_id)):
                for closed in enumerate_radial(pinned):
                    _assert_estimates_are_exact(pinned, make_config(pinned, closed))

    def test_baran_wu_33_from_its_ties_and_from_its_optimum(self):
        case = parse_case((DATA_DIR / "baran_wu_33.json").read_text())
        _assert_estimates_are_exact(case, make_config(case, set(range(1, 33))))
        _assert_estimates_are_exact(case, make_config(case, set(range(1, 38)) - {7, 9, 14, 32, 37}))

    def test_ieee14_from_the_flow_forest_and_from_the_answer(self, ieee14_case, ieee14_forest, ieee14_search):
        _assert_estimates_are_exact(ieee14_case, ieee14_forest.config)
        _assert_estimates_are_exact(ieee14_case, ieee14_search[0])

    @pytest.mark.parametrize("buses, roots, ties", [(12, 1, 3), (16, 3, 4)])
    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_generated_feeders_with_random_ties(self, buses, roots, ties, seed):
        case = _with_ties(random_radial_feeder(seed, buses, roots), seed, ties)
        _assert_estimates_are_exact(case, default_config(case))
