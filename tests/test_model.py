"""Case model: structural validation, radiality, islanding, configurations."""
from __future__ import annotations

import dataclasses
import itertools

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import DATA_DIR, bench_feeders, enumerate_radial, oracle_is_radial, random_radial_feeder
from dnr import exchange, model, topology
from dnr.caseio import parse_case
from dnr.model import (
    Branch,
    Bus,
    BusKind,
    ConfigurationError,
    NetworkCase,
    NotRadialError,
    SwitchState,
    all_closed_config,
    default_config,
    exchange_forest,
    forest,
    islands,
    is_radial,
    make_config,
    validate_case,
)


def _sweep_cases(triangle, six_bus, ring6):
    return [("triangle", triangle), ("six_bus", six_bus), ("ring6", ring6)]


def _assert_forest_matches_graph(case: NetworkCase, config) -> None:
    """Islands are the networkx components in root order; every bus hangs off
    its parent by a closed branch, and its parents lead to its island's root."""
    graph = nx.MultiGraph()
    graph.add_nodes_from(case.bus_by_id)
    for branch_id in config.closed:
        branch = case.branch_by_id[branch_id]
        graph.add_edge(branch.from_bus, branch.to_bus)
    component = {bus: frozenset(c) for c in nx.connected_components(graph) for bus in c}
    parts = islands(case, config)
    assert [part.root for part in parts] == list(case.roots)
    assert [part.buses for part in parts] == [component[root] for root in case.roots]
    assert sum(len(part.buses) for part in parts) == len(case.buses)
    index = forest(case, config)
    assert index.islands is parts
    # positions number the ids ascending
    bus_ids, branch_ids = sorted(case.bus_by_id), sorted(case.branch_by_id)
    assert [branch_ids[k] for k in index.closed] == sorted(config.closed)
    for part in parts:
        assert [bus_ids[i] for i in part.bus_positions] == sorted(part.buses)
        assert [branch_ids[k] for k in part.branch_positions] == sorted(part.branches)
    for i, bus in enumerate(bus_ids):
        part = parts[index.root[i]]
        assert bus in part.buses
        at, steps = i, 0
        while index.parent[at] >= 0:
            parent = index.parent[at]
            branch = case.branch_by_id[branch_ids[index.parent_branch[at]]]
            assert branch.id in config.closed
            assert {branch.from_bus, branch.to_bus} == {bus_ids[at], bus_ids[parent]}
            assert index.path_r[at] == index.path_r[parent] + branch.r
            at, steps = parent, steps + 1
            assert steps < len(bus_ids)
        assert bus_ids[at] == part.root
        assert index.parent_branch[at] == -1 and index.path_r[at] == 0.0


class TestValidateCase:
    def test_ieee14_as_shipped_is_clean(self, ieee14_case):
        assert validate_case(ieee14_case) == []

    def test_branch_to_nonexistent_bus(self):
        case = NetworkCase(
            100.0,
            (Bus(1, BusKind.FEEDER, v_setpoint=1.0), Bus(2)),
            (Branch(1, 1, 2, r=0.01, x=0.02), Branch(2, 1, 99, r=0.01, x=0.02)),
            roots=(1,),
        )
        violations = validate_case(case)
        hits = [v for v in violations if v.code == "missing_bus"]
        assert len(hits) == 1
        assert hits[0].branch_id == 2
        assert hits[0].bus_id == 99
        assert "99" in hits[0].message

    def test_disconnected_components_reported(self):
        # 4-bus case with the 2-3 bridge missing: {1,2} and {3,4} split apart
        case = NetworkCase(
            100.0,
            (Bus(1, BusKind.FEEDER, v_setpoint=1.0), Bus(2), Bus(3), Bus(4)),
            (Branch(1, 1, 2, r=0.01, x=0.02), Branch(2, 3, 4, r=0.01, x=0.02)),
            roots=(1,),
        )
        hits = [v for v in validate_case(case) if v.code == "disconnected"]
        assert len(hits) == 1
        assert "3" in hits[0].message and "4" in hits[0].message

    def test_duplicate_bus_in_a_connected_case(self):
        case = NetworkCase(
            100.0,
            (Bus(1, BusKind.FEEDER, v_setpoint=1.0), Bus(2), Bus(2)),
            (Branch(1, 1, 2, r=0.01, x=0.02),),
            roots=(1,),
        )
        assert [v.code for v in validate_case(case)] == ["duplicate_bus"]

    def test_local_gripes_each_get_a_code(self):
        case = NetworkCase(
            100.0,
            (
                Bus(1, BusKind.FEEDER, v_setpoint=1.0),
                Bus(1),  # duplicate id
                Bus(2, v_min=1.2, v_max=1.1),  # inverted band
                Bus(3, v_setpoint=1.0),  # setpoint on a plain load
            ),
            (
                Branch(1, 1, 2, r=-0.01, x=0.02),
                Branch(1, 2, 3, r=0.0, x=0.0),  # duplicate id, zero impedance
                Branch(2, 3, 3, r=0.01, x=0.02),  # self loop
                Branch(3, 1, 3, r=0.01, x=0.02, mva_limit=0.0),
            ),
            roots=(1, 9),  # 9 does not exist
        )
        codes = {v.code for v in validate_case(case)}
        assert {
            "duplicate_bus",
            "voltage_bounds",
            "load_setpoint",
            "duplicate_branch",
            "negative_resistance",
            "zero_impedance",
            "self_loop",
            "bad_rating",
            "missing_root",
        } <= codes

    def test_base_interval_and_tap_must_be_positive(self):
        buses = (Bus(1, BusKind.FEEDER, v_setpoint=1.0), Bus(2))
        tapped = (Branch(1, 1, 2, r=0.01, x=0.02, tap_ratio=0.0),)
        plain = (Branch(1, 1, 2, r=0.01, x=0.02),)
        assert {v.code for v in validate_case(NetworkCase(0.0, buses, plain, (1,)))} == {"bad_base"}
        # loads are divided by the base, which must be a normal float
        assert {v.code for v in validate_case(NetworkCase(1e-320, buses, plain, (1,)))} == {"bad_base"}
        assert validate_case(NetworkCase(1e-3, buses, plain, (1,))) == []
        assert {v.code for v in validate_case(NetworkCase(100.0, buses, tapped, (1,)))} == {"bad_tap"}
        # the objective multiplies each loss by the base and the interval
        for hours in (-1.0, 0.0, float("inf"), float("nan"), 1e308, 1e-320):
            case = NetworkCase(100.0, buses, plain, (1,), delta_t_hours=hours)
            assert {v.code for v in validate_case(case)} == {"bad_interval"}

    def test_a_series_impedance_must_be_invertible(self):
        # the π-model divides by r^2 + x^2, which must be a normal float
        buses = (Bus(1, BusKind.FEEDER, v_setpoint=1.0), Bus(2))
        for r, x in ((1e-150, 0.0), (0.0, 1e-150), (1e-3, 0.0)):
            case = NetworkCase(100.0, buses, (Branch(1, 1, 2, r=r, x=x),), (1,))
            assert validate_case(case) == []
            assert np.isfinite(model._pi_stamp(case.branches[0])).all()
        for r, x in ((1e-320, 0.0), (0.0, 1e-320), (1e-160, 1e-160), (0.0, 0.0), (float("nan"), 0.1)):
            case = NetworkCase(100.0, buses, (Branch(1, 1, 2, r=r, x=x),), (1,))
            assert [v.code for v in validate_case(case)] == ["zero_impedance"], (r, x)

    def test_taps_and_ids_must_fit_the_arithmetic(self):
        # the π-model divides by the tap's square, which must be a normal
        # float, and ids are compiled into int64 arrays
        def line_case(tap=1.0, branch_id=1, bus_id=2):
            buses = (Bus(1, BusKind.FEEDER, v_setpoint=1.0), Bus(bus_id))
            return NetworkCase(100.0, buses, (Branch(branch_id, 1, bus_id, r=0.01, x=0.02, tap_ratio=tap),), (1,))

        for tap in (1e-150, 1e150):
            case = line_case(tap=tap)
            assert validate_case(case) == []
            assert np.isfinite(model._pi_stamp(case.branches[0])).all()
        for tap in (1e-300, 1e-155, 1e155, 1e300, -1.0, float("inf"), float("nan")):
            assert [v.code for v in validate_case(line_case(tap=tap))] == ["bad_tap"]
        for fits in (2**63 - 1, -(2**63)):
            for case in (line_case(branch_id=fits), line_case(bus_id=fits)):
                assert validate_case(case) == []
                assert is_radial(case, default_config(case))
        for past in (2**63, -(2**63) - 1):
            for case in (line_case(branch_id=past), line_case(bus_id=past)):
                assert [v.code for v in validate_case(case)] == ["bad_id"]

    def test_a_regulated_setpoint_must_be_positive(self):
        line = (Branch(1, 1, 2, r=0.01, x=0.02),)
        for setpoint in (-1.0, 0.0, float("nan")):
            feeder = (Bus(1, BusKind.FEEDER, v_setpoint=setpoint), Bus(2))
            machine = (Bus(1, BusKind.FEEDER, v_setpoint=1.0), Bus(2, BusKind.GENERATOR, v_setpoint=setpoint))
            for buses, bus_id in ((feeder, 1), (machine, 2)):
                violations = validate_case(NetworkCase(100.0, buses, line, (1,)))
                assert [(v.code, v.bus_id) for v in violations] == [("bad_setpoint", bus_id)]

    def test_reactive_limits_must_not_be_inverted(self):
        line = (Branch(1, 1, 2, r=0.01, x=0.02),)
        for q_min, q_max, codes in (
            (50.0, -40.0, [("bad_q_limits", 2)]),
            (-40.0, 50.0, []),
            (5.0, 5.0, []),  # equal limits mean none
            (50.0, None, []),
            (None, -40.0, []),
        ):
            machine = Bus(2, BusKind.GENERATOR, v_setpoint=1.0, q_min=q_min, q_max=q_max)
            case = NetworkCase(100.0, (Bus(1, BusKind.FEEDER, v_setpoint=1.0), machine), line, (1,))
            assert [(v.code, v.bus_id) for v in validate_case(case)] == codes

    def test_root_listed_twice(self):
        # each root is an island's slack; a repeated one cannot split the case
        buses = (Bus(1, BusKind.FEEDER, v_setpoint=1.0), Bus(2))
        case = NetworkCase(100.0, buses, (Branch(1, 1, 2, r=0.01, x=0.02),), roots=(1, 1))
        assert [(v.code, v.bus_id) for v in validate_case(case)] == [("duplicate_root", 1)]

    def test_root_must_be_a_feeder(self):
        case = NetworkCase(
            100.0,
            (Bus(1), Bus(2)),
            (Branch(1, 1, 2, r=0.01, x=0.02),),
            roots=(1,),
        )
        assert any(v.code == "root_kind" for v in validate_case(case))


class TestRadiality:
    def test_ieee14_forest_is_radial(self, ieee14_case, ieee14_forest):
        config = ieee14_forest.config
        assert is_radial(ieee14_case, config)
        assert oracle_is_radial(ieee14_case, config.closed)
        assert len(config.closed) == 14 - 2

    def test_ieee14_all_closed_is_not_radial(self, ieee14_case):
        assert not is_radial(ieee14_case, all_closed_config(ieee14_case))

    def test_every_state_vector_matches_graph_oracle(
        self, triangle_case, six_bus_case, ring6_case, parallel_case
    ):
        cases = _sweep_cases(triangle_case, six_bus_case, ring6_case) + [("parallel", parallel_case)]
        for name, case in cases:
            ids = sorted(case.branch_by_id)
            for bits in itertools.product((0, 1), repeat=len(ids)):
                closed = {bid for bid, bit in zip(ids, bits) if bit}
                config = make_config(case, closed)
                radial = is_radial(case, config)
                assert radial == oracle_is_radial(case, closed), (name, sorted(closed))
                if radial:
                    _assert_forest_matches_graph(case, config)

    def test_configuration_of_another_case_is_refused(self, triangle_case, ring6_case):
        with pytest.raises(ConfigurationError):
            is_radial(ring6_case, make_config(triangle_case, {1, 2}))

    def test_radial_implies_counting_identity(self, triangle_case, six_bus_case, ring6_case):
        for _, case in _sweep_cases(triangle_case, six_bus_case, ring6_case):
            expected = len(case.buses) - len(case.roots)
            for closed in enumerate_radial(case):
                assert len(closed) == expected

    def test_root_to_root_path_is_rejected(self, path5_case):
        # correct count, full coverage, no cycle: still invalid with two roots tied
        assert not is_radial(path5_case, make_config(path5_case, {1, 2, 3, 4}))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        buses=st.integers(2, 25),
        roots=st.integers(1, 3),
        extra=st.lists(st.sampled_from(["tie", "parallel", "root_to_root"]), max_size=6),
        exchanges=st.integers(0, 4),
    )
    def test_generated_closed_sets_match_graph_oracle(self, seed, buses, roots, extra, exchanges):
        # a seeded radial feeder plus ties between random buses, parallel
        # copies of its branches and ties between two roots; exchanges from
        # its radial set keep n - k branches closed and make cycles, stranded
        # buses and root-to-root paths as well as other radial sets
        case = random_radial_feeder(seed, max(buses, roots + 1), roots)
        rng = np.random.default_rng(seed)
        added = []
        for number, kind in enumerate(extra, start=len(case.branches) + 1):
            if kind == "parallel":
                ends = case.branches[rng.integers(len(case.branches))]
                u, v = ends.to_bus, ends.from_bus
            elif kind == "root_to_root" and roots > 1:
                u, v = rng.choice(case.roots, 2, replace=False).tolist()
            else:
                u, v = rng.choice(sorted(case.bus_by_id), 2, replace=False).tolist()
            added.append(Branch(number, u, v, r=0.01 * number, x=0.02))
        case = dataclasses.replace(case, branches=case.branches + tuple(added))
        closed = {branch.id for branch in case.branches if branch not in added}
        for _ in range(exchanges):
            opened = sorted(set(case.branch_by_id) - closed)
            if not opened:
                break
            closed.add(int(rng.choice(opened)))
            closed.remove(int(rng.choice(sorted(closed))))
        config = make_config(case, closed)
        radial = forest(case, config) is not None
        assert radial == oracle_is_radial(case, closed)
        if radial:
            _assert_forest_matches_graph(case, config)


class TestForestMemo:
    @pytest.fixture
    def walks(self, monkeypatch):
        """Arguments of every walk `forest` runs while the test does."""
        seen: list[tuple] = []
        walk = model._walk

        def counting(*args):
            seen.append(args)
            return walk(*args)

        monkeypatch.setattr(model, "_walk", counting)
        return seen

    def test_equal_closed_sets_share_one_walk(self, ring6_case, walks):
        case = dataclasses.replace(ring6_case)  # a new object, so nothing is memoised for it
        first = make_config(case, {2, 3, 4, 5, 6})
        second = make_config(case, [2, 3, 4, 5, 6])
        assert first is not second and first.closed is not second.closed
        assert forest(case, first) is forest(case, second)
        assert islands(case, second) == islands(case, first)
        assert len(walks) == 1

    def test_a_second_case_object_is_walked_on_its_own(self, walks):
        def chain(order):
            buses = (Bus(1, BusKind.FEEDER, v_setpoint=1.0), Bus(2), Bus(3))
            branches = tuple(Branch(bid, f, t, r=0.01, x=0.02) for bid, f, t in order)
            return NetworkCase(100.0, buses, branches, roots=(1,))

        straight = chain([(1, 1, 2), (2, 2, 3)])
        bent = chain([(1, 1, 3), (2, 3, 2)])  # same branch ids, other topology
        twin = chain([(1, 1, 2), (2, 2, 3)])  # equal to `straight`, another object
        config = make_config(straight, {1, 2})
        first = forest(straight, config)
        assert first.parent.tolist() == [-1, 0, 1]  # buses 1, 2, 3 at positions 0, 1, 2
        assert forest(bent, config).parent.tolist() == [-1, 2, 0]
        again = forest(twin, config)
        assert again is not first
        for name in ("root", "parent", "parent_branch", "path_r", "closed"):
            np.testing.assert_array_equal(getattr(again, name), getattr(first, name))
        assert again.islands == first.islands
        assert [args[0] for args in walks] == [straight, bent, twin]
        assert walks[0][0] is straight and walks[2][0] is twin

    def test_not_radial_is_memoised_too(self, triangle_case, walks):
        case = dataclasses.replace(triangle_case)
        config = make_config(case, {1, 2, 3})
        assert forest(case, config) is None
        with pytest.raises(NotRadialError):
            islands(case, config)
        assert not is_radial(case, config)
        assert len(walks) == 1


def _assert_same_forest(derived, walked) -> None:
    """Equal forests: array for array with their dtypes, `path_r` by its bits, and island for island."""
    for name in ("root", "parent", "parent_branch", "path_r", "closed"):
        mine, theirs = getattr(derived, name), getattr(walked, name)
        assert (mine.dtype, mine.tobytes()) == (theirs.dtype, theirs.tobytes()), name
    assert len(derived.islands) == len(walked.islands)
    for mine, theirs in zip(derived.islands, walked.islands):
        assert (mine.root, mine.buses, mine.branches) == (theirs.root, theirs.buses, theirs.branches)
        for name in ("bus_positions", "branch_positions"):
            a, b = getattr(mine, name), getattr(theirs, name)
            assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes()), (mine.root, name)


def _search_case(name: str) -> NetworkCase:
    """IEEE-14 from `roots`, the 33-bus case, or a seeded feeder of the benchmark's generator."""
    kind, _, spec = name.partition(":")
    if kind == "ieee14":
        roots = tuple(int(root) for root in spec.split(","))
        return parse_case((DATA_DIR / "ieee14.cdf").read_text(), fmt="cdf", roots=roots)
    if kind == "baran-wu-33":
        return parse_case((DATA_DIR / "baran_wu_33.json").read_text())
    seed, roots, buses = (int(part) for part in spec.split(","))
    return parse_case(bench_feeders().generate(seed, roots, buses, 12)[0], fmt="json")


class TestExchangeForest:
    @pytest.mark.parametrize(
        "name",
        [
            "ieee14:1,2",
            "ieee14:1,3",
            "ieee14:2,6",
            "baran-wu-33",
            *(f"feeder:{seed},3,200" for seed in range(1, 6)),
            *(f"feeder:{seed},1,1000" for seed in range(1, 6)),
        ],
    )
    def test_every_candidate_of_a_search_equals_its_walk(self, name, monkeypatch):
        case = _search_case(name)
        derived = []

        def recorded(case, index, close_id, open_id, closed_ids):
            result = exchange_forest(case, index, close_id, open_id, closed_ids)
            derived.append((index, close_id, open_id, closed_ids, result))
            return result

        monkeypatch.setattr(model, "exchange_forest", recorded)
        exchange.reconfigure(case)
        branch_ids = model._compiled_case(case).branch_ids
        assert derived
        for index, close_id, open_id, closed_ids, result in derived:
            closed = (frozenset(branch_ids[index.closed].tolist()) - {open_id}) | {close_id}
            assert closed_ids == closed
            _assert_same_forest(result, model._walk(case, closed))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        buses=st.integers(4, 30),
        roots=st.sampled_from([1, 3]),
        ties=st.integers(1, 6),
        steps=st.integers(1, 6),
    )
    def test_random_exchanges_match_the_walk_and_the_graph_oracle(self, seed, buses, roots, ties, steps):
        # a seeded radial feeder with open ties between random buses; each step
        # closes a random tie and opens a closed branch off its loop, which
        # must not be radial, and one on it, which must be and is walked from
        case = random_radial_feeder(seed, buses, roots)
        rng = np.random.default_rng(seed)
        added = []
        for number in range(len(case.branches) + 1, len(case.branches) + ties + 1):
            u, v = rng.choice(sorted(case.bus_by_id), 2, replace=False).tolist()
            added.append(Branch(number, u, v, r=0.01 * number, x=0.02, default_state=SwitchState.OPEN))
        case = dataclasses.replace(case, branches=case.branches + tuple(added))
        config = default_config(case)
        index = forest(case, config)
        for _ in range(steps):
            close_id = int(rng.choice(sorted(config.open_ids)))
            loop = set(topology.fundamental_loop(case, config, close_id).branch_ids)
            off = sorted(config.closed - loop)
            if off:
                open_id = int(rng.choice(off))
                off_loop = config.with_exchange(close_id, open_id).closed
                assert not oracle_is_radial(case, off_loop)
                assert exchange_forest(case, index, close_id, open_id, off_loop) is None
            if not loop:
                continue  # a tie joining two roots directly
            open_id = int(rng.choice(sorted(loop)))
            candidate = config.with_exchange(close_id, open_id)
            assert oracle_is_radial(case, candidate.closed)
            derived = exchange_forest(case, index, close_id, open_id, candidate.closed)
            _assert_same_forest(derived, model._walk(case, candidate.closed))
            if roots == 1:  # the one island shares the closed set, as the walk's does
                assert derived.islands[0].branches is candidate.closed
            config, index = candidate, derived

    def test_an_exchange_must_close_an_open_branch_and_open_a_closed_one(self, ring6_case):
        config = make_config(ring6_case, {2, 3, 4, 5, 6})
        index = forest(ring6_case, config)
        for close_id, open_id in ((2, 3), (1, 1)):
            with pytest.raises(ConfigurationError):
                exchange_forest(ring6_case, index, close_id, open_id, config.closed)


class TestForestOnFirstUse:
    """`with_exchange` records the exchange, and `forest` derives from it on a memo miss."""

    @staticmethod
    def _counted(monkeypatch) -> tuple[list, list]:
        walks, derived = [], []
        walk, derive = model._walk, model.exchange_forest
        monkeypatch.setattr(model, "_walk", lambda *args: walks.append(args[1]) or walk(*args))
        monkeypatch.setattr(model, "exchange_forest", lambda *args: derived.append(args[-1]) or derive(*args))
        return walks, derived

    def test_an_exchange_derives_from_its_parents_forest(self, ring6_case, monkeypatch):
        case = dataclasses.replace(ring6_case)  # a case no other test has memoised
        config = make_config(case, {1, 2, 3, 4, 5})
        forest(case, config)
        candidate = config.with_exchange(6, 3)
        assert candidate.made_by == (config.closed, 6, 3)
        walks, derived = self._counted(monkeypatch)
        index = forest(case, candidate)
        assert (walks, derived) == ([], [candidate.closed])
        assert forest(case, candidate) is index  # a repeat derives nothing
        assert (walks, derived) == ([], [candidate.closed])
        _assert_same_forest(index, model._walk(case, candidate.closed))

    def test_a_parent_forest_not_memoised_is_walked_once(self, ring6_case, monkeypatch):
        config = make_config(ring6_case, {1, 2, 3, 4, 5})
        forest(ring6_case, config)
        candidate = config.with_exchange(6, 3)
        case = dataclasses.replace(ring6_case)  # the parent's forest is memoised for ring6_case only
        walks, derived = self._counted(monkeypatch)
        index = forest(case, candidate)
        assert (walks, derived) == ([config.closed], [candidate.closed])
        _assert_same_forest(index, model._walk(case, candidate.closed))

    def test_an_exchange_from_a_non_radial_configuration_is_walked(self, ring6_case, monkeypatch):
        case = dataclasses.replace(ring6_case)
        config = make_config(case, {1, 2, 3, 4})  # a bus short of a tree
        candidate = config.with_exchange(5, 1)
        walks, derived = self._counted(monkeypatch)
        assert forest(case, candidate) is None
        assert (walks, derived) == ([config.closed, candidate.closed], [])

    def test_an_equal_configuration_shares_the_entry_and_records_nothing(self, ring6_case, monkeypatch):
        case = dataclasses.replace(ring6_case)
        candidate = make_config(case, {1, 2, 3, 4, 5}).with_exchange(6, 3)
        index = forest(case, candidate)
        walks, derived = self._counted(monkeypatch)
        for same in (make_config(case, candidate.closed), dataclasses.replace(candidate)):
            assert same.made_by is None
            assert same == candidate and hash(same) == hash(candidate)
            assert forest(case, same) is index
        assert (walks, derived) == ([], [])

    def test_made_by_cannot_be_passed_in(self, ring6_case):
        closed = frozenset({1, 2, 3, 4, 5})
        with pytest.raises(TypeError):
            model.Configuration(ring6_case.branch_ids, closed, made_by=(closed, 6, 3))


class TestIslands:
    def test_ieee14_two_islands_partition_the_buses(self, ieee14_case, ieee14_forest):
        parts = islands(ieee14_case, ieee14_forest.config)
        assert len(parts) == 2
        assert {p.root for p in parts} == {1, 2}
        seen = sorted(b for p in parts for b in p.buses)
        assert seen == list(range(1, 15))

    def test_single_root_single_island(self, ring6_case):
        config = make_config(ring6_case, {1, 2, 3, 4, 5})
        parts = islands(ring6_case, config)
        assert len(parts) == 1
        assert parts[0].root == 1
        assert parts[0].buses == frozenset(range(1, 7))

    def test_cut_path_splits_at_the_open_branch(self, path5_case):
        parts = islands(path5_case, make_config(path5_case, {1, 3, 4}))
        by_root = {p.root: p.buses for p in parts}
        assert by_root == {1: frozenset({1, 2}), 5: frozenset({3, 4, 5})}

    def test_islands_partition_buses_and_branches(self, six_bus_case):
        for closed in enumerate_radial(six_bus_case):
            parts = islands(six_bus_case, make_config(six_bus_case, closed))
            buses = [b for p in parts for b in p.buses]
            branches = [b for p in parts for b in p.branches]
            assert sorted(buses) == sorted(six_bus_case.bus_by_id)
            assert sorted(branches) == sorted(closed)
            for part in parts:
                assert part.root in part.buses

    def test_non_radial_config_raises(self, triangle_case):
        with pytest.raises(NotRadialError):
            islands(triangle_case, make_config(triangle_case, {1, 2, 3}))


class TestConfiguration:
    def test_state_accessors(self, triangle_case):
        config = make_config(triangle_case, {1, 3})
        assert config.state(1) is SwitchState.CLOSED
        assert config.state(2) is SwitchState.OPEN
        assert config.open_ids == frozenset({2})
        assert config.states() == {
            1: SwitchState.CLOSED,
            2: SwitchState.OPEN,
            3: SwitchState.CLOSED,
        }
        with pytest.raises(ConfigurationError):
            config.state(99)

    def test_with_exchange_swaps_exactly_one_pair(self, triangle_case):
        config = make_config(triangle_case, {1, 3})
        swapped = config.with_exchange(2, 3)
        assert swapped.closed == frozenset({1, 2})
        assert swapped.branch_ids is config.branch_ids is triangle_case.branch_ids  # shared
        with pytest.raises(ConfigurationError):
            config.with_exchange(1, 2)  # 1 is already closed
        with pytest.raises(ConfigurationError):
            config.with_exchange(2, 2)  # 2 is already open

    def test_make_config_rejects_unknown_ids(self, triangle_case):
        with pytest.raises(ConfigurationError):
            make_config(triangle_case, {1, 7})

    def test_pinned_branch_cannot_move(self):
        case = NetworkCase(
            100.0,
            (Bus(1, BusKind.FEEDER, v_setpoint=1.0), Bus(2), Bus(3)),
            (
                Branch(1, 1, 2, r=0.01, x=0.02, switchable=False),
                Branch(2, 2, 3, r=0.01, x=0.02),
                Branch(3, 1, 3, r=0.01, x=0.02),
            ),
            roots=(1,),
        )
        with pytest.raises(ConfigurationError):
            make_config(case, {2, 3})  # leaves pinned-closed branch 1 open
        config = make_config(case, {1, 2})
        assert config.closed == frozenset({1, 2})

    def test_default_config_follows_default_states(self, triangle_case):
        assert default_config(triangle_case).closed == frozenset({1, 2})

    def test_states_round_trip(self, six_bus_case):
        config = make_config(six_bus_case, {1, 2, 3, 4})
        states = config.states()
        assert list(states) == sorted(six_bus_case.branch_ids)
        closed = {bid for bid, state in states.items() if state is SwitchState.CLOSED}
        assert make_config(six_bus_case, closed) == config


class TestBusFields:
    def test_degenerate_q_band_means_unlimited(self):
        assert Bus(1, q_min=5.0, q_max=5.0).q_limits is None
        assert Bus(1, q_min=None, q_max=10.0).q_limits is None
        assert Bus(1, q_min=-5.0, q_max=10.0).q_limits == (-5.0, 10.0)

    def test_ieee14_machine_limits(self, ieee14_case):
        by_id = ieee14_case.bus_by_id
        assert by_id[1].q_limits is None
        assert by_id[2].q_limits == (-40.0, 50.0)
        assert by_id[3].q_limits == (0.0, 40.0)
        assert by_id[6].q_limits == (-6.0, 24.0)
        assert by_id[8].q_limits == (-6.0, 24.0)
