"""The Baran & Wu 33-bus feeder against the figures the literature prints.

Baran & Wu (IEEE TPWRD 1989) give the case: 12.66 kV and 10 MVA base, one
feeder at bus 1, 32 load buses, branches 1-32 closed and ties 33-37 open.
`tests/data/baran_wu_33.json` transcribes it with r and x in pu (ohms x 10
/ 12.66^2) and a 0.9-1.1 pu band at every bus.  Every other answer check
compares the code with itself or with oracles in `conftest.py`; these
figures come from outside the repository, and each is met to its last
printed digit: kW within 0.01, pu within 1e-4.
"""
from __future__ import annotations

import pytest

from conftest import DATA_DIR
from dnr.caseio import parse_case
from dnr.exchange import reconfigure
from dnr.model import default_config
from dnr.powerflow import PowerFlowSolution, solve_all_islands


@pytest.fixture(scope="module")
def case():
    return parse_case((DATA_DIR / "baran_wu_33.json").read_text())


def _lowest_voltage(solution: PowerFlowSolution) -> tuple[int, float]:
    bus = min(solution.v_mag, key=solution.v_mag.__getitem__)
    return bus, solution.v_mag[bus]


def test_the_base_case_loses_202_67_kw_and_sags_to_0_9131_at_bus_18(case):
    config = default_config(case)
    assert config.open_ids == {33, 34, 35, 36, 37}
    solution = solve_all_islands(case, config)
    assert solution.converged
    assert abs(solution.total_loss_mw * 1000.0 - 202.67) < 0.01
    bus, v = _lowest_voltage(solution)
    assert bus == 18 and abs(v - 0.9131) < 1e-4


def test_reconfigure_reaches_the_published_optimum(case):
    result = reconfigure(case)
    assert result.config.open_ids == {7, 9, 14, 32, 37}
    assert result.objective.feasible
    assert case.delta_t_hours == 1.0  # so the MWh objective reads as kW
    assert abs(result.objective.fo_value * 1000.0 - 139.55) < 0.01
    assert abs(result.solution.total_loss_mw * 1000.0 - 139.55) < 0.01
    bus, v = _lowest_voltage(result.solution)
    assert bus == 32 and abs(v - 0.9378) < 1e-4
    assert (result.trace.evaluations, result.trace.config_hits) == (64, 7)
