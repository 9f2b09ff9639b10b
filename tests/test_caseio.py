"""Parsing, serialization, and report generation."""
from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import given, settings, strategies as st

from conftest import DATA_DIR, ieee14_with_field, two_bus_case
from dnr.caseio import (
    ParseError,
    ValidationError,
    parse_case,
    trace_to_json,
    write_native_case,
    write_report,
)
from dnr.exchange import SearchTrace
from dnr.model import BusKind, all_closed_config, default_config, make_config
from dnr.objective import evaluate_fo
from dnr.powerflow import solve_all_islands


class TestCdfParsing:
    def test_ieee14_shape(self, ieee14_case):
        assert len(ieee14_case.buses) == 14
        assert len(ieee14_case.branches) == 20
        assert ieee14_case.base_mva == 100.0
        assert ieee14_case.roots == (1, 2)

    def test_ieee14_bus_kinds(self, ieee14_text, ieee14_case):
        # with the root override both feeders are FEEDER, condensers keep q limits
        kinds = {b.id: b.kind for b in ieee14_case.buses}
        assert kinds[1] is BusKind.FEEDER
        assert kinds[2] is BusKind.FEEDER
        for bus_id in (3, 6, 8):
            assert kinds[bus_id] is BusKind.SYNCHRONOUS_CONDENSER
        assert all(
            kinds[b] is BusKind.LOAD for b in (4, 5, 7, 9, 10, 11, 12, 13, 14)
        )
        # without the override the file's swing bus is the single root
        as_filed = parse_case(ieee14_text, fmt="cdf")
        assert as_filed.roots == (1,)
        assert as_filed.bus_by_id[2].kind is BusKind.GENERATOR

    def test_ieee14_electrical_fields(self, ieee14_case):
        branch = ieee14_case.branch_by_id[1]
        assert (branch.from_bus, branch.to_bus) == (1, 2)
        assert branch.r == pytest.approx(0.01938)
        assert branch.x == pytest.approx(0.05917)
        assert branch.b_shunt == pytest.approx(0.0528)
        taps = {bid: ieee14_case.branch_by_id[bid].tap_ratio for bid in (8, 9, 10)}
        assert taps == {8: 0.978, 9: 0.969, 10: 0.932}
        assert ieee14_case.bus_by_id[9].b_shunt == pytest.approx(0.19)
        assert ieee14_case.bus_by_id[3].p_load == pytest.approx(94.2)

    def test_empty_text_fails_at_line_one(self):
        with pytest.raises(ParseError) as err:
            parse_case("", fmt="cdf")
        assert err.value.line_no == 1

    def test_bad_numeric_field_names_its_line(self, ieee14_text):
        lines = ieee14_text.splitlines(keepends=True)
        lines[4] = lines[4][:45] + "oops" + lines[4][49:]
        with pytest.raises(ParseError) as err:
            parse_case("".join(lines), fmt="cdf")
        assert err.value.line_no == 5
        assert "oops" in str(err.value)

    @pytest.mark.parametrize(
        ("row", "lo", "hi", "text", "complaint"),
        [
            pytest.param(4, 40, 49, "nan", "bad numeric field 'nan'", id="nan-load"),
            pytest.param(19, 19, 29, "nan", "bad numeric field 'nan'", id="nan-resistance"),
            pytest.param(4, 0, 4, "inf", "bad numeric field 'inf'", id="infinite-bus-id"),
            pytest.param(4, 0, 4, "nan", "bad numeric field 'nan'", id="nan-bus-id"),
            pytest.param(4, 24, 26, ".5", "non-integer field '.5'", id="fractional-bus-type"),
            pytest.param(19, 5, 9, "2.5", "non-integer field '2.5'", id="fractional-branch-end"),
        ],
    )
    def test_fields_must_be_finite_and_ids_whole(self, row, lo, hi, text, complaint):
        with pytest.raises(ParseError, match=complaint) as err:
            parse_case(ieee14_with_field(row, lo, hi, text), fmt="cdf")
        assert err.value.line_no == row + 1

    @pytest.mark.parametrize(("text", "p_load"), [("  12.5", 12.5), ("\x1f 12.5", 12.5), ("\x1f", 0.0)])
    def test_padding_is_what_str_strip_drops(self, text, p_load):
        # \x1f is whitespace to str.strip() but not to float(); a field
        # holding only padding is blank
        case = parse_case(ieee14_with_field(4, 40, 49, text), fmt="cdf")
        assert case.bus_by_id[3].p_load == p_load

    def test_missing_sections_fail(self):
        title = " " * 31 + "100.0"  # a valid title card and nothing else
        with pytest.raises(ParseError, match="bus data"):
            parse_case(title + "\n-999\n", fmt="cdf")
        with pytest.raises(ParseError, match="MVA base"):
            parse_case("TITLE CARD WITHOUT A BASE\n", fmt="cdf")

    def test_delta_t_override(self, ieee14_text):
        case = parse_case(ieee14_text, fmt="cdf", roots=(1, 2), delta_t_hours=0.5)
        assert case.delta_t_hours == 0.5


IEEE14_LINES = (DATA_DIR / "ieee14.cdf").read_text().splitlines()
# (lo, hi) of every column field the reader takes from a bus or branch row
BUS_FIELDS = [(0, 4), (24, 26), (27, 33), (40, 49), (49, 59), (59, 67), (67, 75),
              (90, 98), (98, 106), (106, 114), (114, 122)]
BRANCH_FIELDS = [(0, 4), (5, 9), (19, 29), (29, 40), (40, 50), (50, 55), (76, 82)]
SECTION_MARKERS = [
    no for no, line in enumerate(IEEE14_LINES)
    if "FOLLOWS" in line or line.startswith(("-9", "END OF DATA"))
]
FIELD_TEXT = st.one_of(
    st.text(max_size=12),
    st.floats().map(repr),
    st.integers().map(str),
    st.sampled_from(["nan", "inf", "-inf", "1e999", "-0", "2.5", "0x10", "1_0"]),
)


@st.composite
def damaged_ieee14(draw) -> str:
    """IEEE-14 with one field rewritten, one line cut short or one section marker gone."""
    damage = draw(st.sampled_from(["field", "truncate", "marker"]))
    if damage == "field":
        row, (lo, hi) = draw(st.one_of(
            st.tuples(st.integers(2, 15), st.sampled_from(BUS_FIELDS)),
            st.tuples(st.integers(18, 37), st.sampled_from(BRANCH_FIELDS)),
            st.tuples(st.just(0), st.just((31, 37))),  # the title card's MVA base
        ))
        return ieee14_with_field(row, lo, hi, draw(FIELD_TEXT))
    lines = list(IEEE14_LINES)
    if damage == "truncate":
        row = draw(st.integers(0, len(lines) - 1))
        lines[row] = lines[row][: draw(st.integers(0, len(lines[row])))]
        if draw(st.booleans()):
            lines = lines[: row + 1]
    else:
        del lines[draw(st.sampled_from(SECTION_MARKERS))]
    return "\n".join(lines) + "\n"


class TestCdfFuzz:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(text=damaged_ieee14())
    def test_damaged_text_fails_only_as_parse_or_validation_error(self, text):
        try:
            parse_case(text, fmt="cdf")
        except (ParseError, ValidationError):
            pass


class TestNativeFormat:
    @pytest.mark.parametrize(
        "fixture",
        ["triangle_case", "six_bus_case", "ring6_case", "five_bus_tworoot"],
    )
    def test_round_trip_identity(self, fixture, request):
        case = request.getfixturevalue(fixture)
        assert parse_case(write_native_case(case), fmt="json") == case

    def test_ieee14_survives_native_round_trip(self, ieee14_case):
        assert parse_case(write_native_case(ieee14_case), fmt="json") == ieee14_case

    def test_auto_detection_sniffs_content(self, triangle_case, ieee14_text):
        assert parse_case(write_native_case(triangle_case)) == triangle_case
        assert len(parse_case(ieee14_text, roots=(1, 2)).buses) == 14

    def test_unknown_format_rejected(self, ieee14_text):
        with pytest.raises(ParseError):
            parse_case(ieee14_text, fmt="matpower")

    def test_malformed_json_rejected(self):
        with pytest.raises(ParseError):
            parse_case('{"base_mva": 100.0}', fmt="json")
        with pytest.raises(ParseError):
            parse_case("{not json", fmt="json")

    @pytest.mark.parametrize(
        ("owner", "field", "value", "complaint"),
        [
            ("buses", "p_load", "ten", "bus 2 p_load 'ten'"),
            ("branches", "r", "x", "branch 1 r 'x'"),
            ("branches", "x", None, "branch 1 x None"),
            ("buses", "q_load", float("nan"), "bus 2 q_load nan"),
            ("buses", "v_max", float("inf"), "bus 2 v_max inf"),
            (None, "base_mva", float("nan"), "case base_mva nan"),
            (None, "delta_t_hours", "soon", "case delta_t_hours 'soon'"),
        ],
    )
    def test_numeric_fields_must_be_finite_numbers(self, owner, field, value, complaint):
        payload = json.loads(write_native_case(two_bus_case(10.0, 5.0)))
        target = payload if owner is None else payload[owner][-1]
        target[field] = value
        with pytest.raises(ParseError, match=f"{complaint} is not a finite number"):
            parse_case(json.dumps(payload), fmt="json")

    @pytest.mark.parametrize("value", ["no", "true", 1, None])
    def test_switchable_must_be_a_boolean(self, value):
        payload = json.loads(write_native_case(two_bus_case(10.0, 5.0)))
        payload["branches"][0]["switchable"] = value
        with pytest.raises(ParseError, match=f"branch 1 switchable {value!r} is not true or false"):
            parse_case(json.dumps(payload), fmt="json")

    def test_switchable_round_trips_byte_identical(self):
        case = two_bus_case(10.0, 5.0)
        pinned = dataclasses.replace(case.branches[0], switchable=False)
        case = dataclasses.replace(case, branches=(pinned,))
        text = write_native_case(case)
        assert '"switchable": false' in text
        assert write_native_case(parse_case(text, fmt="json")) == text

    def test_infinite_id_rejected(self):
        text = write_native_case(two_bus_case(10.0, 5.0)).replace('"id": 2', '"id": Infinity')
        with pytest.raises(ParseError):
            parse_case(text, fmt="json")

    def test_numeric_fields_are_coerced_to_float(self):
        payload = json.loads(write_native_case(two_bus_case(10.0, 5.0)))
        payload["buses"][1]["p_load"] = 10
        payload["branches"][0]["tap_ratio"] = "1"
        case = parse_case(json.dumps(payload), fmt="json")
        assert type(case.bus_by_id[2].p_load) is float
        assert case.branch_by_id[1].tap_ratio == 1.0
        assert case == two_bus_case(10.0, 5.0)

    def test_validation_gate(self):
        case = two_bus_case(10.0, 5.0)
        text = write_native_case(case).replace('"to_bus": 2', '"to_bus": 99')
        with pytest.raises(ValidationError) as err:
            parse_case(text, fmt="json")
        assert any(v.code == "missing_bus" for v in err.value.violations)
        parsed = parse_case(text, fmt="json", validate=False)  # gate off: loads anyway
        assert parsed.branch_by_id[1].to_bus == 99


class TestReports:
    def test_meshed_ieee14_report_carries_published_loss(self, ieee14_case, ieee14_meshed):
        text = write_report(ieee14_case, all_closed_config(ieee14_case), ieee14_meshed)
        payload = json.loads(text)
        assert payload["power_flow"]["converged"] is True
        assert payload["total_loss_mw"] == pytest.approx(13.436, rel=0.01)
        assert payload["open_switches"] == []
        assert payload["objective"] is None and payload["search"] is None

    def test_zero_load_report_is_all_zeros(self):
        case = two_bus_case(0.0, 0.0)
        config = default_config(case)
        solution = solve_all_islands(case, config)
        objective = evaluate_fo(case, config, solution)
        payload = json.loads(write_report(case, config, solution, objective))
        assert payload["total_loss_mw"] == pytest.approx(0.0, abs=1e-9)
        assert payload["objective"]["fo_value_mwh"] == pytest.approx(0.0, abs=1e-9)
        assert payload["objective"]["feasible"] is True

    def test_switch_states_round_trip_through_report(self, six_bus_case):
        config = make_config(six_bus_case, {1, 2, 3, 4})
        solution = solve_all_islands(six_bus_case, config)
        payload = json.loads(write_report(six_bus_case, config, solution))
        states = {int(bid): state for bid, state in payload["switch_states"].items()}
        assert states == {1: "closed", 2: "closed", 3: "closed", 4: "closed", 5: "open", 6: "open"}
        assert payload["open_switches"] == [5, 6]

    def test_reports_are_deterministic(self, six_bus_case):
        config = make_config(six_bus_case, {1, 2, 3, 4})
        solution = solve_all_islands(six_bus_case, config)
        objective = evaluate_fo(six_bus_case, config, solution)
        first = write_report(six_bus_case, config, solution, objective, SearchTrace())
        second = write_report(six_bus_case, config, solution, objective, SearchTrace())
        assert first == second
        payload = json.loads(first)
        assert "meta" not in payload
        stamped = json.loads(
            write_report(six_bus_case, config, solution, timestamp="2026-01-01T00:00:00Z")
        )
        assert stamped["meta"]["generated_at"] == "2026-01-01T00:00:00Z"

    def test_island_entries_cover_the_solution(self, six_bus_case):
        config = make_config(six_bus_case, {1, 2, 3, 4})
        solution = solve_all_islands(six_bus_case, config)
        payload = json.loads(write_report(six_bus_case, config, solution))
        assert {entry["root"] for entry in payload["islands"]} == {1, 2}
        total = sum(entry["loss_mw"] for entry in payload["islands"])
        assert total == pytest.approx(payload["total_loss_mw"])

    def test_trace_serialization(self):
        trace = SearchTrace(evaluations=3, config_hits=1, surrogate_hits=1, island_solves=4, island_hits=2)
        payload = json.loads(trace_to_json(trace))
        assert payload == {
            "evaluations": 3, "config_hits": 1, "surrogate_hits": 1, "island_solves": 4, "island_hits": 2,
            "moves": [],
        }


class TestMeshedReportPath:
    def test_network_solution_reportable(self, ieee14_case, ieee14_meshed):
        # the meshed snapshot has one island entry rooted at the slack
        assert len(ieee14_meshed.islands) == 1
        assert ieee14_meshed.islands[0].root == 1
        text = write_report(ieee14_case, all_closed_config(ieee14_case), ieee14_meshed)
        assert json.loads(text)["islands"][0]["buses"] == list(range(1, 15))
