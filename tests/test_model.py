"""Case model: structural validation, radiality, islanding, configurations."""
from __future__ import annotations

import itertools

import pytest

from conftest import enumerate_radial, oracle_is_radial
from dnr.model import (
    Branch,
    Bus,
    BusKind,
    ConfigurationError,
    NetworkCase,
    NotRadialError,
    SwitchState,
    all_closed_config,
    config_from_states,
    default_config,
    islands,
    is_radial,
    make_config,
    validate_case,
)


def _sweep_cases(triangle, six_bus, ring6):
    return [("triangle", triangle), ("six_bus", six_bus), ("ring6", ring6)]


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
        self, triangle_case, six_bus_case, ring6_case
    ):
        for name, case in _sweep_cases(triangle_case, six_bus_case, ring6_case):
            ids = sorted(case.branch_by_id)
            for bits in itertools.product((0, 1), repeat=len(ids)):
                closed = {bid for bid, bit in zip(ids, bits) if bit}
                config = make_config(case, closed)
                assert is_radial(case, config) == oracle_is_radial(case, closed), (
                    name,
                    sorted(closed),
                )

    def test_radial_implies_counting_identity(self, triangle_case, six_bus_case, ring6_case):
        for _, case in _sweep_cases(triangle_case, six_bus_case, ring6_case):
            expected = len(case.buses) - len(case.roots)
            for closed in enumerate_radial(case):
                assert len(closed) == expected

    def test_root_to_root_path_is_rejected(self, path5_case):
        # correct count, full coverage, no cycle: still invalid with two roots tied
        assert not is_radial(path5_case, make_config(path5_case, {1, 2, 3, 4}))


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

    def test_config_from_states_accepts_enums_and_ints(self, triangle_case):
        by_enum = config_from_states(
            triangle_case,
            {1: SwitchState.CLOSED, 2: SwitchState.OPEN, 3: SwitchState.CLOSED},
        )
        by_int = config_from_states(triangle_case, {1: 1, 2: 0, 3: 1})
        assert by_enum == by_int
        assert by_enum.closed == frozenset({1, 3})
        with pytest.raises(ConfigurationError):
            config_from_states(triangle_case, {1: 1, 2: 0})  # missing branch 3

    def test_default_config_follows_default_states(self, triangle_case):
        assert default_config(triangle_case).closed == frozenset({1, 2})

    def test_states_round_trip(self, six_bus_case):
        config = make_config(six_bus_case, {1, 2, 3, 4})
        assert config_from_states(six_bus_case, config.states()) == config


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
