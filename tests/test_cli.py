"""Command line behavior: exit codes, report output, flag wiring."""
from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import DATA_DIR, deep_chain, ieee14_with_field, two_bus_case, two_bus_has_root
from dnr import exchange
from dnr.caseio import parse_case, write_native_case
from dnr.cli import main


@pytest.fixture(scope="module")
def cdf_path(tmp_path_factory, ieee14_text):
    path = tmp_path_factory.mktemp("cli") / "ieee14.cdf"
    path.write_text(ieee14_text)
    return path


@pytest.fixture(scope="module")
def stable_report(cdf_path, tmp_path_factory):
    out_path = tmp_path_factory.mktemp("cli-report") / "report.json"
    rc = main([
        "reconfigure", str(cdf_path), "--roots", "1,2", "--stable",
        "--out", str(out_path),
    ])
    assert rc == 0
    return out_path.read_text()


class TestArgumentHandling:
    def test_no_arguments_is_a_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_unknown_subcommand_is_a_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["optimize", "case.json"])
        assert err.value.code == 2

    def test_missing_file_exits_two(self, tmp_path, capsys):
        rc = main(["validate", str(tmp_path / "nope.json")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_whitespace_only_text_is_an_empty_case(self, tmp_path, capsys):
        path = tmp_path / "blank.cdf"
        path.write_text("  \n\n")
        rc = main(["validate", str(path)])
        assert rc == 2
        assert capsys.readouterr().err == "error: empty case text (line 1)\n"

    def test_garbage_text_exits_two(self, tmp_path, capsys):
        path = tmp_path / "garbage.cdf"
        path.write_text("this is not a case file\n")
        rc = main(["validate", str(path)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_directory_exits_two(self, tmp_path, capsys):
        rc = main(["validate", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:") and err.count("\n") == 1

    def test_binary_file_exits_two(self, tmp_path, capsys):
        path = tmp_path / "image.cdf"
        path.write_bytes(b"\x89PNG\r\n\x1a\n\x00\xff\xfe")
        rc = main(["validate", str(path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:") and err.count("\n") == 1

    def test_bad_roots_list_is_a_usage_error(self, cdf_path):
        with pytest.raises(SystemExit) as err:
            main(["powerflow", str(cdf_path), "--roots", "1,two"])
        assert err.value.code == 2

    @pytest.mark.parametrize(
        ("command", "flag", "value"),
        [("validate", "--format", "json"), ("powerflow", "--format", "cdf"), ("powerflow", "--delta-t", "0.5")],
    )
    def test_removed_flags_are_usage_errors(self, cdf_path, capsys, command, flag, value):
        # the format is read from the text, and powerflow prints nothing the interval scales
        with pytest.raises(SystemExit) as err:
            main([command, str(cdf_path), flag, value])
        assert err.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestValidate:
    def test_clean_case_reports_ok(self, cdf_path, capsys):
        rc = main(["validate", str(cdf_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.startswith("ok: 14 buses, 20 branches")

    def test_violations_listed_with_codes(self, tmp_path, capsys):
        case = two_bus_case(10.0, 5.0)
        broken = dataclasses.replace(
            case, branches=(dataclasses.replace(case.branches[0], to_bus=99),)
        )
        path = tmp_path / "broken.json"
        path.write_text(write_native_case(broken))
        rc = main(["validate", str(path)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "missing_bus" in out

    def test_a_non_positive_setpoint_fails_validation(self, capsys):
        # the committed case's feeder holds -1.0 pu; a solve would start
        # bus 2 opposite its slack
        path = str(DATA_DIR / "negative_setpoint.json")
        assert main(["validate", path]) == 1
        assert capsys.readouterr().out == "bad_setpoint: bus 1 voltage setpoint -1.0 is not positive\n"
        assert main(["powerflow", path]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("bad_setpoint:")

    def test_inverted_reactive_limits_fail_validation(self, capsys):
        # IEEE-14 fed from buses 1 and 2, with bus 3's limits swapped past each other
        path = str(DATA_DIR / "inverted_q_limits.json")
        assert main(["validate", path]) == 1
        assert capsys.readouterr().out == "bad_q_limits: bus 3 reactive limits [50.0, -40.0] MVAr are inverted\n"
        assert main(["reconfigure", path, "--stable"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("bad_q_limits:")

    def test_reconfigure_refuses_invalid_input(self, tmp_path, capsys):
        case = two_bus_case(10.0, 5.0)
        broken = dataclasses.replace(
            case, branches=(dataclasses.replace(case.branches[0], to_bus=99),)
        )
        path = tmp_path / "broken.json"
        path.write_text(write_native_case(broken))
        rc = main(["reconfigure", str(path), "--stable"])
        assert rc == 1
        assert "missing_bus" in capsys.readouterr().err


def _native_payload() -> dict:
    return json.loads(write_native_case(two_bus_case(10.0, 5.0)))


def _native(tmp_path: Path, payload: dict) -> str:
    path = tmp_path / "case.json"
    path.write_text(json.dumps(payload))
    return str(path)


def _set(owner: str | None, field: str, value):
    """The two-bus native case with one field changed."""
    def args(tmp_path: Path) -> list[str]:
        payload = _native_payload()
        (payload if owner is None else payload[owner][-1])[field] = value
        return [_native(tmp_path, payload)]
    return args


def _baran_wu_33(owner: str | None, index: int | None = None, **fields):
    """The Baran & Wu 33-bus native case with fields of the case, or of one bus or branch, changed."""
    def args(tmp_path: Path) -> list[str]:
        payload = json.loads((DATA_DIR / "baran_wu_33.json").read_text())
        (payload if owner is None else payload[owner][index]).update(fields)
        return [_native(tmp_path, payload)]
    return args


def _renumbered_load(bus_id: int):
    """The two-bus native case with its load bus, and the line that ends there, renumbered."""
    def args(tmp_path: Path) -> list[str]:
        payload = _native_payload()
        payload["buses"][-1]["id"] = payload["branches"][-1]["to_bus"] = bus_id
        return [_native(tmp_path, payload)]
    return args


def _text(text: str):
    """A case file holding `text`."""
    def args(tmp_path: Path) -> list[str]:
        path = tmp_path / "case.json"
        path.write_text(text)
        return [str(path)]
    return args


def _flags(*flags: str):
    """The two-bus native case with these command-line flags."""
    def args(tmp_path: Path) -> list[str]:
        return [_native(tmp_path, _native_payload()), *flags]
    return args


def _unwritable(flag: str, name: str):
    """The two-bus native case, with `flag` naming `name` under the test's directory."""
    def args(tmp_path: Path) -> list[str]:
        (tmp_path / "taken").mkdir(exist_ok=True)
        return [_native(tmp_path, _native_payload()), flag, str(tmp_path / name)]
    return args


def _cdf(row: int, lo: int, hi: int, text: str):
    """IEEE-14, fed from buses 1 and 2, with one column field rewritten."""
    def args(tmp_path: Path) -> list[str]:
        path = tmp_path / "case.cdf"
        path.write_text(ieee14_with_field(row, lo, hi, text))
        return [str(path), "--roots", "1,2"]
    return args


class TestInputBoundary:
    """Malformed input ends with an exit code and a message, never a traceback."""

    @pytest.mark.parametrize(
        ("case_args", "code", "message"),
        [
            pytest.param(_set("buses", "p_load", "ten"), 2, "p_load", id="text-load"),
            pytest.param(_set("branches", "r", "x"), 2, "r 'x'", id="text-resistance"),
            pytest.param(_set("buses", "q_load", float("nan")), 2, "not a finite number", id="nan-load"),
            pytest.param(_set("branches", "switchable", "no"), 2, "branch 1 switchable 'no'", id="text-switchable"),
            pytest.param(_set(None, "base_mva", 0), 1, "bad_base", id="zero-base"),
            pytest.param(_set("branches", "tap_ratio", 0), 1, "bad_tap", id="zero-tap"),
            # the π-model divides by the tap's square, which 1e-300 takes to zero
            pytest.param(_set("branches", "tap_ratio", 1e-300), 1, "bad_tap", id="vanishing-tap"),
            pytest.param(_cdf(19, 76, 82, "1e-300"), 1, "bad_tap", id="cdf-vanishing-tap"),
            # ids are compiled into 64-bit integer arrays
            pytest.param(_set("branches", "id", 2**63), 1, "bad_id", id="branch-id-past-64-bits"),
            pytest.param(_renumbered_load(2**63), 1, "bad_id", id="bus-id-past-64-bits"),
            pytest.param(_text("[" * 10_000 + "]" * 10_000), 2, "invalid JSON", id="json-nested-past-recursion-limit"),
            # an id is not truncated: 37.5 would read as 37, and 36.9 as a second 36
            pytest.param(_baran_wu_33("branches", 36, id=37.5), 2, "branch id 37.5 is not a whole number",
                         id="fractional-branch-id"),
            pytest.param(_baran_wu_33("branches", 36, id=36.9), 2, "branch id 36.9 is not a whole number",
                         id="fractional-branch-id-below-another"),
            pytest.param(_baran_wu_33("branches", 3, to_bus=5.5), 2, "branch 4 to_bus 5.5 is not a whole number",
                         id="fractional-branch-end"),
            pytest.param(_set(None, "roots", [True]), 2, "case root True is not a whole number", id="boolean-root"),
            pytest.param(_baran_wu_33("branches", 3, tap_ratio=True), 2, "branch 4 tap_ratio True is not a finite",
                         id="boolean-tap"),
            # the π-model divides by r^2 + x^2, and the loads are divided by the base
            pytest.param(_baran_wu_33("branches", 3, r=1e-320, x=0), 1, "zero_impedance", id="subnormal-impedance"),
            pytest.param(_baran_wu_33(None, base_mva=1e-320), 1, "bad_base", id="subnormal-base"),
            pytest.param(_set(None, "delta_t_hours", -1), 1, "bad_interval", id="negative-interval"),
            # the objective multiplies each loss by the base and the interval
            pytest.param(_set(None, "delta_t_hours", 1e308), 1, "bad_interval", id="overflowing-interval"),
            pytest.param(_set(None, "delta_t_hours", 1e-320), 1, "bad_interval", id="subnormal-interval"),
            pytest.param(_set(None, "roots", [1, 1]), 1, "duplicate_root", id="duplicate-root"),
            pytest.param(_cdf(4, 40, 49, "nan"), 2, "bad numeric field 'nan'", id="cdf-nan-load"),
            pytest.param(_cdf(19, 19, 29, "nan"), 2, "bad numeric field 'nan'", id="cdf-nan-resistance"),
            pytest.param(_cdf(4, 0, 4, "inf"), 2, "bad numeric field 'inf'", id="cdf-infinite-bus-id"),
            pytest.param(_cdf(4, 0, 4, "nan"), 2, "bad numeric field 'nan'", id="cdf-nan-bus-id"),
            pytest.param(_flags("--model-in", "m.json"), 2, "unrecognized arguments", id="model-in-flag"),
            pytest.param(_flags("--model-out", "m.json"), 2, "unrecognized arguments", id="model-out-flag"),
            pytest.param(_flags("--format", "json"), 2, "unrecognized arguments", id="format-flag"),
            pytest.param(_flags("--tolerance", "inf"), 2, "--tolerance", id="infinite-tolerance"),
            pytest.param(_flags("--tolerance", "nan"), 2, "--tolerance", id="nan-tolerance"),
            pytest.param(_flags("--tolerance", "-1"), 2, "--tolerance", id="negative-tolerance"),
            pytest.param(_flags("--tolerance", "0"), 2, "--tolerance", id="zero-tolerance"),
            pytest.param(_flags("--max-iter", "0"), 2, "--max-iter", id="zero-iterations"),
            pytest.param(_flags("--max-iter", "-3"), 2, "--max-iter", id="negative-iterations"),
            pytest.param(_flags("--max-iter", "2.5"), 2, "--max-iter", id="fractional-iterations"),
            pytest.param(_flags("--max-passes", "-1"), 2, "unrecognized arguments", id="negative-passes"),
            pytest.param(_flags("--surrogate-prune", "0.1"), 2, "unrecognized arguments", id="prune-flag"),
            pytest.param(_flags("--delta-t", "nan"), 2, "--delta-t", id="nan-interval-flag"),
            pytest.param(_flags("--delta-t", "inf"), 2, "--delta-t", id="infinite-interval-flag"),
            pytest.param(_flags("--delta-t", "-1"), 2, "--delta-t", id="negative-interval-flag"),
            pytest.param(_flags("--delta-t", "0"), 2, "--delta-t", id="zero-interval-flag"),
            pytest.param(_flags("--delta-t", "1e308"), 1, "bad_interval", id="overflowing-interval-flag"),
            pytest.param(_flags("--delta-t", "1e-320"), 1, "bad_interval", id="subnormal-interval-flag"),
            pytest.param(_flags("--roots", "1,1"), 1, "duplicate_root", id="duplicate-root-flag"),
            pytest.param(_flags("--roots", ","), 2, "--roots", id="empty-roots-flag"),
            pytest.param(_unwritable("--out", "missing/r.json"), 2, "is not a directory", id="out-missing-directory"),
            pytest.param(_unwritable("--trace", "missing/t.json"), 2, "is not a directory", id="trace-missing-directory"),
            pytest.param(_unwritable("--out", "taken"), 2, "it is a directory", id="out-is-a-directory"),
            # its one line cannot carry its load, so the meshed solve that seeds the forest diverges
            pytest.param(lambda tmp_path: [str(DATA_DIR / "two_bus_collapse.json")], 1,
                         "error: all-closed power flow did not converge", id="diverged-all-closed-flow"),
        ],
    )
    def test_exit_code_without_traceback(self, tmp_path, capsys, monkeypatch, case_args, code, message):
        def search(*args, **kwargs):
            raise AssertionError("the search ran")

        # each case fails before the search, and prints no report
        monkeypatch.setattr(exchange, "improve", search)
        # in-process: an exception escaping main() fails the test outright
        try:
            returned = main(["reconfigure", *case_args(tmp_path), "--stable"])
        except SystemExit as exc:  # argparse's usage errors
            returned = exc.code
        out, err = capsys.readouterr()
        assert out == ""
        assert returned == code
        assert "Traceback" not in err
        assert message in err
        if code == 2:
            assert err.startswith("error:") and err.count("\n") == 1

    def test_module_entry_point(self, tmp_path):
        # `python -m dnr.cli` runs the same main() and exits with its code
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        case_args = _set("buses", "q_load", float("nan"))(tmp_path)
        proc = subprocess.run(
            [sys.executable, "-m", "dnr.cli", "reconfigure", *case_args, "--stable"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
        assert "not a finite number" in proc.stderr


class TestPowerflow:
    def test_meshed_ieee14_prints_totals(self, cdf_path, capsys):
        rc = main(["powerflow", str(cdf_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "total loss: 13.39" in out
        assert "bus voltages" in out

    def test_lossless_branches_print_no_negative_zero(self, cdf_path, capsys):
        # branches 8, 9 and 14 have no resistance: their losses come out
        # of the solve as about -1e-14 MW
        assert main(["powerflow", str(cdf_path)]) == 0
        out = capsys.readouterr().out
        assert "-0.000000" not in out
        for branch_id in (8, 9, 14):
            assert f"  {branch_id:4d}    0.000000\n" in out

    def test_radial_default_runs_per_island(self, tmp_path, capsys, five_bus_tworoot):
        path = tmp_path / "five.json"
        path.write_text(write_native_case(five_bus_tworoot))
        rc = main(["powerflow", str(path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "island 1:" in out
        assert "island 2:" in out

    def test_iteration_starved_run_fails(self, cdf_path, capsys):
        rc = main(["powerflow", str(cdf_path), "--max-iter", "1"])
        capsys.readouterr()
        assert rc == 1

    def test_a_collapsing_island_stops_before_the_cap(self, capsys):
        # the committed case's load is past what its one line can deliver;
        # a Newton step drives bus 2 through zero magnitude long before the
        # default cap of 30
        path = DATA_DIR / "two_bus_collapse.json"
        case = parse_case(path.read_text())
        line, load = case.branches[0], case.bus_by_id[2]
        base = case.base_mva
        v1 = case.bus_by_id[1].v_setpoint
        assert not two_bus_has_root(v1, load.p_load / base, load.q_load / base, line.r, line.x)
        rc = main(["powerflow", str(path)])
        first = capsys.readouterr().out.splitlines()[0]
        assert rc == 1
        assert first.startswith("island 1: 2 buses, DID NOT CONVERGE in 5 iterations")

    def test_an_unknown_suffix_is_read_from_the_text(self, tmp_path, capsys, ieee14_text):
        path = tmp_path / "ieee14.dat"  # a suffix that names no format
        path.write_text(ieee14_text)
        rc = main(["powerflow", str(path)])
        assert rc == 0
        assert "total loss:" in capsys.readouterr().out


class TestReconfigure:
    def test_ieee14_report(self, stable_report):
        report = json.loads(stable_report)
        assert report["roots"] == [1, 2]
        assert report["total_loss_mw"] < 13.436
        assert report["open_switches"] == [1, 5, 6, 7, 9, 16, 19, 20]
        assert report["objective"]["feasible"] is True
        assert report["power_flow"]["converged"] is True
        assert report["search"]["moves_accepted"] == 2
        assert "meta" not in report

    def test_the_format_is_read_from_the_text(self, tmp_path, capsys, ieee14_text, stable_report):
        # CDF text under a .json name reports as the .cdf file does
        misnamed = tmp_path / "ieee14.json"
        misnamed.write_text(ieee14_text)
        assert main(["reconfigure", str(misnamed), "--roots", "1,2", "--stable"]) == 0
        assert capsys.readouterr().out == stable_report
        # and native text under a .cdf name as under a .json one
        native = write_native_case(parse_case(ieee14_text, fmt="cdf", roots=(1, 2)))
        reports = []
        for name in ("native.json", "native.cdf"):
            (tmp_path / name).write_text(native)
            assert main(["reconfigure", str(tmp_path / name), "--stable"]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]

    def test_stable_runs_are_byte_identical(self, cdf_path, stable_report, capsys):
        # stdout and --out carry the same bytes, and reruns reproduce them
        rc = main(["reconfigure", str(cdf_path), "--roots", "1,2", "--stable"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out == stable_report

    def test_tree_deeper_than_the_recursion_limit(self, tmp_path):
        # the tie sits near the leaf so that the search stays a few evaluations
        path = tmp_path / "chain.json"
        path.write_text(write_native_case(deep_chain(tie=(1490, 1500))))
        out_path = tmp_path / "report.json"
        assert main(["reconfigure", str(path), "--stable", "--out", str(out_path)]) == 0
        report = json.loads(out_path.read_text())
        assert len(report["open_switches"]) == 1
        assert report["objective"]["feasible"] is True

    def test_unstamped_run_carries_a_timestamp(self, cdf_path, capsys):
        rc = main(["reconfigure", str(cdf_path), "--roots", "1,2"])
        report = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert "generated_at" in report["meta"]

    def test_out_and_trace_files(self, cdf_path, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        trace_path = tmp_path / "trace.json"
        rc = main([
            "reconfigure", str(cdf_path), "--roots", "1,2", "--stable",
            "--out", str(out_path), "--trace", str(trace_path),
        ])
        assert rc == 0
        assert capsys.readouterr().out == ""
        report = json.loads(out_path.read_text())
        assert report["open_switches"] == [1, 5, 6, 7, 9, 16, 19, 20]
        trace = json.loads(trace_path.read_text())
        assert trace["evaluations"] > 0
        accepted = [m for m in trace["moves"] if m["accepted"]]
        assert len(accepted) == report["search"]["moves_accepted"]
        # the memo counts are the trace's alone, so the report's bytes do not move with them
        assert (trace["config_hits"], trace["island_solves"], trace["island_hits"]) == (10, 36, 14)
        assert not {"config_hits", "island_solves", "island_hits"} & set(report["search"])

    def test_no_surrogate_matches_default_answer(self, cdf_path, stable_report, capsys):
        rc = main([
            "reconfigure", str(cdf_path), "--roots", "1,2", "--stable", "--no-surrogate",
        ])
        report = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert report["open_switches"] == json.loads(stable_report)["open_switches"]
        assert report["search"]["surrogate_hits"] == 0

    def test_delta_t_scales_the_objective(self, cdf_path, tmp_path, capsys):
        values, open_switches = {}, {}
        # 1e154 is near the top of the accepted range
        for hours in ("1.0", "2.0", "1e154"):
            out_path = tmp_path / f"report{hours}.json"
            rc = main([
                "reconfigure", str(cdf_path), "--roots", "1,2", "--stable",
                "--delta-t", hours, "--out", str(out_path),
            ])
            assert rc == 0
            report = json.loads(out_path.read_text())
            values[hours], open_switches[hours] = report["objective"]["fo_value_mwh"], report["open_switches"]
        assert values["2.0"] == pytest.approx(2.0 * values["1.0"], abs=1e-9)
        assert values["1e154"] == pytest.approx(1e154 * values["1.0"], rel=1e-12)
        assert open_switches["1e154"] == open_switches["2.0"] == open_switches["1.0"]

    @pytest.mark.parametrize("hours", ["-1", "0"])
    def test_non_positive_interval_is_refused(self, cdf_path, capsys, hours):
        # a negative interval flips the objective's sign, so the search would maximize losses
        with pytest.raises(SystemExit) as exc:
            main(["reconfigure", str(cdf_path), "--roots", "1,2", "--delta-t", hours])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert "--delta-t" in captured.err
        assert captured.out == ""

    def test_unavoidable_violation_exits_one(self, tmp_path, capsys):
        case = two_bus_case(80.0, 30.0, v_min=0.99)
        path = tmp_path / "sagging.json"
        path.write_text(write_native_case(case))
        rc = main(["reconfigure", str(path), "--stable"])
        report = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert report["objective"]["feasible"] is False


class TestConsoleScript:
    @pytest.mark.skipif(shutil.which("dnr") is None, reason="entry point not installed")
    def test_installed_entry_point(self, cdf_path):
        proc = subprocess.run(
            ["dnr", "validate", str(cdf_path)], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("ok:")
