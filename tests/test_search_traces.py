"""The search's exact moves on fixed cases, against pinned traces.

No other test pins the order in which the search tries its exchanges.
`tests/data/search_traces.json` holds, per case, the trace's counts and one
row per tried move: [close, open, accepted, reason, fo_after as a float
hex string or null].  A change that moves any attempt has to re-pin the
file, which this module rewrites from the code as it stands:

    PYTHONPATH=src python3 tests/test_search_traces.py
"""
from __future__ import annotations

import json

import pytest

from conftest import DATA_DIR, bench_feeders
from dnr.caseio import parse_case
from dnr.exchange import SearchTrace, reconfigure
from dnr.model import NetworkCase

TRACES = DATA_DIR / "search_traces.json"
COUNTS = ("evaluations", "config_hits", "surrogate_hits")
IEEE14_ROOTS = {
    f"ieee14-roots-{'-'.join(map(str, roots))}": roots
    for roots in ((1,), (1, 2), (1, 3), (2, 6), (1, 2, 3))
}
# the generator's (seed, roots, buses, ties), as the benchmark's workloads use them
FEEDERS = {"feeder-3x200-seed1": (1, 3, 200, 12), "feeder-1x1000-seed1": (1, 1, 1000, 12)}
CASES = [*IEEE14_ROOTS, "baran-wu-33", *FEEDERS]


def _case(name: str) -> NetworkCase:
    if name in IEEE14_ROOTS:
        return parse_case((DATA_DIR / "ieee14.cdf").read_text(), fmt="cdf", roots=IEEE14_ROOTS[name])
    if name in FEEDERS:
        text, _ = bench_feeders().generate(*FEEDERS[name])
        return parse_case(text, fmt="json")
    return parse_case((DATA_DIR / "baran_wu_33.json").read_text())


def _entry(trace: SearchTrace) -> dict:
    moves = [
        [
            m.close_branch,
            m.open_branch,
            m.accepted,
            m.rejected_reason.value if m.rejected_reason else None,
            None if m.fo_after is None else m.fo_after.hex(),
        ]
        for m in trace.moves
    ]
    return {**{k: getattr(trace, k) for k in COUNTS}, "moves": moves}


def _dump(traces: dict[str, dict]) -> str:
    """The traces as JSON with one line per move, so a re-pin diffs by move."""
    blocks = []
    for name, entry in traces.items():
        counts = "".join(f'\n    "{k}": {entry[k]},' for k in COUNTS)
        rows = ",\n".join(f"      {json.dumps(row)}" for row in entry["moves"])
        blocks.append(f'  "{name}": {{{counts}\n    "moves": [\n{rows}\n    ]\n  }}')
    return "{\n" + ",\n".join(blocks) + "\n}\n"


@pytest.fixture(scope="module")
def pinned() -> dict[str, dict]:
    return json.loads(TRACES.read_text())


def test_the_file_lists_every_case_in_its_own_layout(pinned):
    assert list(pinned) == CASES
    assert TRACES.read_text() == _dump(pinned)


@pytest.mark.parametrize("name", CASES)
def test_the_search_repeats_its_pinned_moves(name, pinned):
    got = _entry(reconfigure(_case(name)).trace)
    expected = pinned[name]
    assert {k: got[k] for k in COUNTS} == {k: expected[k] for k in COUNTS}
    for i, (row, pinned_row) in enumerate(zip(got["moves"], expected["moves"])):
        assert row == pinned_row, f"move {i}"
    assert len(got["moves"]) == len(expected["moves"])


if __name__ == "__main__":
    TRACES.write_text(_dump({name: _entry(reconfigure(_case(name)).trace) for name in CASES}))
