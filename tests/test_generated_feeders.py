"""Properties of the solver and the search on the benchmark's generated feeders.

`bench/feeders.py` grows seeded radial feeders with normally-open ties and
imports nothing from `dnr`.  It is loaded read-only from its file, as
`tests/test_bench_sites.py` loads `bench/run.py`.  Each property runs on a
small single feeder and on a pair of feeders joined by ties, with bounded,
derandomized examples over the generator's seed.
"""
from __future__ import annotations

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import (
    assert_one_exchange_optimal,
    bench_feeders,
    oracle_is_radial,
    search_scores_as_fresh,
    solve_gauss_seidel,
    voltage,
)
from dnr.caseio import parse_case, write_native_case
from dnr.exchange import improve
from dnr.model import NetworkCase, all_closed_config, default_config, is_radial, islands, make_config
from dnr.powerflow import SolverOptions, solve_all_islands, solve_network
from dnr.topology import build_spanning_forest, weights_from_flow

feeders = bench_feeders()

# (roots, buses, ties) of the generated cases
SIZES = [pytest.param((1, 20, 2), id="1x20"), pytest.param((2, 30, 3), id="2x30")]
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def _generated(seed: int, size: tuple[int, int, int]) -> NetworkCase:
    try:
        text, _ = feeders.generate(seed, *size)
    except ValueError as exc:
        if "no room for" not in str(exc):
            raise
        assume(False)  # the seed's tree leaves no place for the ties
    return parse_case(text, fmt="json")


def _flow_forest(case: NetworkCase):
    """The search's start, as `dnr reconfigure` builds it."""
    meshed = solve_network(case, all_closed_config(case))
    return build_spanning_forest(case, weights_from_flow(case, meshed)).config


@pytest.mark.parametrize("size", SIZES)
@settings(max_examples=4, deadline=None, derandomize=True)
@given(seed=SEEDS)
def test_newton_matches_gauss_seidel_on_the_flow_forest(size, seed):
    case = _generated(seed, size)
    config = _flow_forest(case)
    tight = SolverOptions(tolerance=1e-10)
    newton = solve_all_islands(case, config, tight)
    assert newton.converged
    for island in islands(case, config):
        oracle = solve_gauss_seidel(case, island, tight)
        result, = oracle.islands
        assert result.converged
        assert set(result.buses) == island.buses
        for bus_id, v in zip(result.buses, oracle.v.tolist()):
            delta = abs(voltage(newton, bus_id) - v)
            assert delta <= 1e-6, f"bus {bus_id} disagrees by {delta:.2e}"


@pytest.mark.parametrize("size", SIZES)
@settings(max_examples=3, deadline=None, derandomize=True)
@given(seed=SEEDS)
def test_every_replayed_move_keeps_radiality(size, seed):
    case = _generated(seed, size)
    incumbent = _flow_forest(case)
    _, trace = improve(case, incumbent)
    assert trace.moves
    for move in trace.moves:
        candidate = incumbent.with_exchange(move.close_branch, move.open_branch)
        assert oracle_is_radial(case, candidate.closed), move
        if move.accepted:
            incumbent = candidate


@pytest.mark.parametrize(
    "size", [pytest.param((2, 30, 3), id="2x30"), pytest.param((3, 90, 6), id="3x90")]
)
@settings(max_examples=3, deadline=None, derandomize=True)
@given(seed=SEEDS)
def test_the_island_memo_changes_no_move(size, seed):
    # with several roots an exchange on one feeder leaves the others' islands
    # as they were, so most islands of a search repeat one already solved
    case = _generated(seed, size)
    start = _flow_forest(case)
    _, trace = search_scores_as_fresh(case, start)
    # nothing diverges on these feeders, so each distinct configuration meets every island
    distinct = trace.evaluations - trace.config_hits
    assert trace.island_solves + trace.island_hits == len(case.roots) * distinct
    assert trace.island_hits > 0 and trace.config_hits > 0
    # the memo lives for one search: the next solves as many islands again
    assert improve(case, start)[1].island_solves == trace.island_solves


@pytest.mark.parametrize("size", SIZES)
@settings(max_examples=3, deadline=None, derandomize=True)
@given(seed=SEEDS)
def test_improve_ends_one_exchange_optimal(size, seed):
    case = _generated(seed, size)
    final, _ = improve(case, _flow_forest(case))
    assert_one_exchange_optimal(case, final)


@pytest.mark.parametrize("size", SIZES)
@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=SEEDS, data=st.data())
def test_is_radial_agrees_with_networkx(size, seed, data):
    case = _generated(seed, size)
    # one random exchange from the as-built tree keeps its branch count, so
    # only a cycle or a split can make it non-radial (about a quarter stay
    # radial); an arbitrary closed set rarely has that count
    built = default_config(case).closed
    close_id = data.draw(st.sampled_from(sorted(case.branch_ids - built)))
    near = (built - {data.draw(st.sampled_from(sorted(built)))}) | {close_id}
    arbitrary = data.draw(st.sets(st.sampled_from(sorted(case.branch_ids))))
    for closed in (near, arbitrary):
        assert is_radial(case, make_config(case, closed)) == oracle_is_radial(case, closed), sorted(closed)


@pytest.mark.parametrize("size", SIZES)
@settings(max_examples=10, deadline=None, derandomize=True)
@given(seed=SEEDS)
def test_native_text_round_trips(size, seed):
    case = _generated(seed, size)
    assert parse_case(write_native_case(case), fmt="json") == case
