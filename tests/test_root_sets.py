"""IEEE-14's answers from every set of its machine buses as roots, against recorded ones.

Buses 1, 2, 3, 6 and 8 carry IEEE-14's machines, so any nonempty subset of
them can feed the radial network: 31 root sets.  `tests/data/ieee14_root_sets.json`
holds, per set, the search's answer as it was recorded (feasible, `fo` as a
float hex string, open ids), or the message of the `InitialInfeasibleError`
that left it without one.  A change to the search may better an answer,
never worsen one.  The file is rewritten from the code as it stands by:

    PYTHONPATH=src python3 tests/test_root_sets.py
"""
from __future__ import annotations

import itertools
import json

import pytest

from conftest import DATA_DIR
from dnr.caseio import parse_case
from dnr.exchange import InitialInfeasibleError, reconfigure

RECORDED = DATA_DIR / "ieee14_root_sets.json"
MACHINE_BUSES = (1, 2, 3, 6, 8)
ROOT_SETS = [
    roots for k in range(1, len(MACHINE_BUSES) + 1) for roots in itertools.combinations(MACHINE_BUSES, k)
]


def _name(roots: tuple[int, ...]) -> str:
    return ",".join(map(str, roots))


def _answer(roots: tuple[int, ...]) -> dict:
    case = parse_case((DATA_DIR / "ieee14.cdf").read_text(), fmt="cdf", roots=roots)
    try:
        result = reconfigure(case)
    except InitialInfeasibleError as exc:
        return {"error": str(exc)}
    return {
        "feasible": result.objective.feasible,
        "fo": result.objective.fo_value.hex(),
        "open": sorted(result.config.open_ids),
    }


@pytest.fixture(scope="module")
def recorded() -> dict[str, dict]:
    return json.loads(RECORDED.read_text())


def test_the_file_lists_every_root_set(recorded):
    assert list(recorded) == [_name(roots) for roots in ROOT_SETS]


@pytest.mark.parametrize("roots", ROOT_SETS, ids=_name)
def test_no_answer_is_worse_than_recorded(roots, recorded):
    expected = recorded[_name(roots)]
    got = _answer(roots)
    if "error" in expected:
        return  # no answer was recorded: any answer, or none, is no worse
    assert "error" not in got, got["error"]
    rank = (not got["feasible"], float.fromhex(got["fo"]))
    assert rank <= (not expected["feasible"], float.fromhex(expected["fo"]))


if __name__ == "__main__":
    answers = {_name(roots): _answer(roots) for roots in ROOT_SETS}
    RECORDED.write_text(
        "{\n" + ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in answers.items()) + "\n}\n"
    )
