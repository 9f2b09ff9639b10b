"""Linear loss surrogate: features, fitting, ranking, warm start."""
from __future__ import annotations

import pytest

from conftest import bench_feeders, deep_chain, enumerate_radial, oracle_featurize, search_samples, two_bus_case
from dnr import exchange, surrogate
from dnr.caseio import parse_case
from dnr.exchange import RejectReason, Rejection, evaluate_candidate, improve
from dnr.model import NotRadialError, all_closed_config, default_config, make_config
from dnr.powerflow import solve_network
from dnr.surrogate import LinearModel, featurize, fit, rank_candidates, untrained_model
from dnr.topology import build_spanning_forest, weights_from_flow

# positions of the first root's terms; the constant 1 sits at 0
LOAD_P, LOAD_Q, LOAD_MOMENT, RESISTANCE = 1, 2, 3, 4


@pytest.fixture(scope="module")
def ieee14_history(ieee14_case, ieee14_forest) -> list[tuple[tuple[float, ...], float]]:
    """Features and objective of each evaluation an IEEE-14 search scores: its surrogate's fit data."""
    return search_samples(ieee14_case, ieee14_forest.config)[1]


def _scored_samples(case, need: int) -> list[tuple[tuple[float, ...], float]]:
    samples = []
    for closed in enumerate_radial(case):
        config = make_config(case, closed)
        result = evaluate_candidate(case, config)
        fo = result.report.fo_value if isinstance(result, Rejection) else result.fo_value
        if fo is not None:
            samples.append((featurize(case, config), fo))
    assert len(samples) >= need
    return samples


class TestFeaturize:
    def test_names_are_const_plus_four_per_root(self, triangle_case, ieee14_case, ieee14_forest):
        # the layout featurize documents: 1, then load_p, load_q, load_moment
        # and resistance for each root
        assert len(featurize(triangle_case, make_config(triangle_case, {1, 2}))) == 5
        features = featurize(ieee14_case, ieee14_forest.config)
        assert len(features) == 9
        assert features[0] == 1.0

    def test_six_bus_values_by_hand(self, six_bus_case):
        features = featurize(six_bus_case, make_config(six_bus_case, {1, 2, 3, 4}))
        expected = (
            1.0,
            0.5, 0.15, 0.3 * 0.02 + 0.2 * 0.05, 0.02 + 0.03,  # root 1: buses 3 and 5
            1.1, 0.40, 0.3 * 0.02 + 0.8 * 0.05, 0.02 + 0.03,  # root 2: buses 4 and 6
        )
        assert features == pytest.approx(expected, abs=1e-12)

    def test_zero_load_leaves_only_topology_terms(self):
        case = two_bus_case(0.0, 0.0)
        features = featurize(case, make_config(case, {1}))
        assert features[0] == 1.0
        assert features[LOAD_P] == 0.0
        assert features[LOAD_Q] == 0.0
        assert features[LOAD_MOMENT] == 0.0
        assert features[RESISTANCE] > 0.0

    def test_one_exchange_moves_only_path_terms(self, triangle_case):
        before = featurize(triangle_case, make_config(triangle_case, {1, 2}))
        after = featurize(triangle_case, make_config(triangle_case, {1, 3}))
        changed = [i for i, (a, b) in enumerate(zip(before, after)) if a != b]
        assert changed == [LOAD_MOMENT]
        assert after[LOAD_MOMENT] == pytest.approx(0.04)

    def test_single_root_exchange_never_touches_load_totals(self, ring6_case):
        before = featurize(ring6_case, make_config(ring6_case, {1, 2, 3, 4, 5}))
        after = featurize(ring6_case, make_config(ring6_case, {1, 2, 3, 5, 6}))
        assert after[LOAD_P] == before[LOAD_P]
        assert after[LOAD_Q] == before[LOAD_Q]
        assert after[LOAD_MOMENT] != before[LOAD_MOMENT]
        assert after[RESISTANCE] != before[RESISTANCE]

    def test_meshed_config_rejected(self, triangle_case):
        with pytest.raises(NotRadialError):
            featurize(triangle_case, all_closed_config(triangle_case))

    def test_tree_deeper_than_the_recursion_limit(self):
        case = deep_chain(tie=(1, 700))
        features = featurize(case, default_config(case))
        path_r = [0.0]  # bus k sits k-1 branches of r = 1e-4 below the root
        for _ in range(1, 1500):
            path_r.append(path_r[-1] + 1e-4)
        moment = sum(bus.p_load / 100.0 * path_r[bus.id - 1] for bus in case.buses)
        assert features[LOAD_MOMENT] == pytest.approx(moment, rel=1e-12)

    @pytest.mark.parametrize("size", [None, (3, 200, 12), (1, 1000, 12)], ids=["ieee14", "3x200", "1x1000"])
    def test_every_searched_configuration_matches_the_dict_walk_oracle(
        self, size, ieee14_case, ieee14_forest, monkeypatch
    ):
        # the search of `dnr reconfigure` on IEEE-14 and on seed 1 of two
        # benchmark feeders; every featurize call must have the oracle's bits
        if size is None:
            case, start = ieee14_case, ieee14_forest.config
        else:
            text, _ = bench_feeders().generate(1, *size)
            case = parse_case(text, fmt="json")
            meshed = solve_network(case, all_closed_config(case))
            start = build_spanning_forest(case, weights_from_flow(case, meshed)).config
        checked = []

        def compared(of_case, config):
            features = featurize(of_case, config)
            assert [x.hex() for x in features] == [x.hex() for x in oracle_featurize(of_case, config)]
            checked.append(config.closed)
            return features

        scored = []  # (closed, whether it diverged) of each evaluate_candidate call
        evaluate = exchange.evaluate_candidate

        def recorded(of_case, config, *args):
            outcome = evaluate(of_case, config, *args)
            diverged = isinstance(outcome, Rejection) and outcome.reason is RejectReason.POWER_FLOW_DIVERGED
            scored.append((config.closed, diverged))
            return outcome

        monkeypatch.setattr(exchange, "featurize", compared)
        monkeypatch.setattr(surrogate, "featurize", compared)
        monkeypatch.setattr(exchange, "evaluate_candidate", recorded)
        _, trace = improve(case, start)
        # each distinct scored configuration (every candidate but the repeats
        # and the diverged ones), and the ranked ones
        diverged = {closed for closed, failed in scored if failed}
        assert set(checked) >= {closed for closed, _ in scored} - diverged
        assert len(scored) == trace.evaluations - trace.config_hits > len(diverged)

    def test_deterministic(self, ieee14_case, ieee14_forest):
        first = featurize(ieee14_case, ieee14_forest.config)
        second = featurize(ieee14_case, ieee14_forest.config)
        assert first == second
        assert all(type(v) is float and abs(v) < 1e6 for v in first)


class TestFit:
    def test_recovers_an_exactly_linear_target(self, ring6_case):
        vectors = [
            featurize(ring6_case, make_config(ring6_case, closed))
            for closed in enumerate_radial(ring6_case)
        ]
        target = lambda fv: 3.0 + 40.0 * fv[LOAD_MOMENT] + 11.0 * fv[RESISTANCE]
        samples = [(fv, target(fv)) for fv in vectors]
        model = fit(ring6_case, samples)
        assert model.trained
        for fv, y in samples:
            # the ridge term biases tiny-magnitude features at the 1e-5 level
            assert model.predict(fv) == pytest.approx(y, abs=1e-4)

    def test_underdetermined_history_yields_sentinel(self, six_bus_case):
        samples = _scored_samples(six_bus_case, 10)[:5]  # dim is 9, one short of 10
        model = fit(six_bus_case, samples)
        assert not model.trained
        assert model == untrained_model()
        with pytest.raises(ValueError):
            model.predict(samples[0][0])

    def test_search_history_fit_is_sane(self, ieee14_case, ieee14_history):
        assert len(ieee14_history) == 25  # 38 evaluations, 13 of them diverged
        model = fit(ieee14_case, ieee14_history)
        assert model.trained
        assert len(model.coefficients) == 9
        scale = max(fo for _, fo in ieee14_history)
        for features, fo in ieee14_history:
            # a linear fit of the history stays within the history's range
            assert abs(model.predict(features) - fo) <= scale

    def test_constant_target_scores_perfectly(self, ring6_case):
        vectors = [
            featurize(ring6_case, make_config(ring6_case, closed))
            for closed in enumerate_radial(ring6_case)
        ]
        model = fit(ring6_case, [(fv, 7.25) for fv in vectors])
        assert model.trained
        for fv in vectors:
            assert model.predict(fv) == pytest.approx(7.25, abs=1e-6)


class TestRankCandidates:
    def test_prediction_is_a_dot_product(self, triangle_case):
        model = LinearModel((1.0, 0.0, 0.0, 100.0, -2.0))
        fv = featurize(triangle_case, make_config(triangle_case, {1, 2}))
        expected = sum(c * v for c, v in zip(model.coefficients, fv))
        assert model.predict(fv) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(1.0 + 100.0 * 0.02 - 2.0 * 0.02)

    def test_hand_model_orders_by_path_moment(self, triangle_case):
        model = LinearModel((0.0, 0.0, 0.0, 1.0, 0.0))
        detour = make_config(triangle_case, {1, 3})
        direct = make_config(triangle_case, {1, 2})
        features = [featurize(triangle_case, config) for config in (detour, direct)]
        assert rank_candidates(model, features) == [1, 0]

    def test_sentinel_keeps_given_order(self, six_bus_case):
        features = [featurize(six_bus_case, make_config(six_bus_case, c)) for c in enumerate_radial(six_bus_case)]
        features.reverse()
        assert rank_candidates(untrained_model(), features) == list(range(len(features)))

    def test_trained_toy_model_puts_the_true_best_first(self, triangle_case):
        per_config = []
        for closed in enumerate_radial(triangle_case):
            config = make_config(triangle_case, closed)
            result = evaluate_candidate(triangle_case, config)
            assert not isinstance(result, Rejection)
            per_config.append((config, featurize(triangle_case, config), result.fo_value))
        # revisits during a search duplicate history rows; mimic that to reach dim+1
        samples = [(fv, fo) for _, fv, fo in per_config] * 2
        model = fit(triangle_case, samples)
        assert model.trained
        ranked = rank_candidates(model, [fv for _, fv, _ in per_config])
        true_fo = [fo for _, _, fo in per_config]
        assert true_fo[ranked[0]] == pytest.approx(min(true_fo), rel=1e-9)

    def test_ranking_invariant_under_positive_affine_rescale(self, six_bus_case):
        samples = _scored_samples(six_bus_case, 10)
        base = fit(six_bus_case, samples)
        assert base.trained
        shifted = list(base.coefficients)
        shifted = [2.5 * c for c in shifted]
        shifted[0] += 7.0  # const feature is always 1, so this adds 7 to every score
        rescaled = LinearModel(tuple(shifted))
        features = [featurize(six_bus_case, make_config(six_bus_case, c)) for c in enumerate_radial(six_bus_case)]
        assert rank_candidates(base, features) == rank_candidates(rescaled, features)

    def test_stable_on_score_ties(self, twin_case):
        # the two feeders are identical, so symmetric configs score identically
        model = LinearModel((0.0,) * 9)
        features = featurize(twin_case, make_config(twin_case, {1, 2}))
        assert rank_candidates(model, [features, features]) == [0, 1]


class TestWarmStart:
    def test_pretrained_model_feeds_a_search(self, ieee14_case, ieee14_history):
        model = fit(ieee14_case, ieee14_history)
        assert model.trained
        baseline, _ = improve(ieee14_case, make_config(ieee14_case, set(
            ieee14_case.branch_by_id) - {1, 5, 6, 7, 9, 16, 19, 20}))
        seeded, _ = improve(ieee14_case, make_config(ieee14_case, set(
            ieee14_case.branch_by_id) - {1, 5, 6, 7, 9, 16, 19, 20}), model=model)
        assert seeded == baseline
