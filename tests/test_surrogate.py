"""Linear loss surrogate: features, fitting, ranking, serialization."""
from __future__ import annotations

import itertools
import json

import pytest

from conftest import enumerate_radial, two_bus_case
from dnr.exchange import Rejection, evaluate_candidate, improve
from dnr.model import NotRadialError, all_closed_config, make_config
from dnr.surrogate import (
    FeatureVector,
    LinearModel,
    feature_names,
    featurize,
    fit,
    model_from_json,
    model_to_json,
    rank_candidates,
    untrained_model,
)


def _scored_samples(case, need: int) -> list[tuple[FeatureVector, float]]:
    samples = []
    for closed in enumerate_radial(case):
        config = make_config(case, closed)
        result = evaluate_candidate(case, config)
        fo = result.report.fo_value if isinstance(result, Rejection) else result[0].fo_value
        if fo is not None:
            samples.append((featurize(case, config), fo))
    assert len(samples) >= need
    return samples


class TestFeaturize:
    def test_names_are_const_plus_four_per_root(self, six_bus_case, ieee14_case):
        assert feature_names(six_bus_case) == (
            "const",
            "load_p[1]", "load_q[1]", "load_moment[1]", "resistance[1]",
            "load_p[2]", "load_q[2]", "load_moment[2]", "resistance[2]",
        )
        assert len(feature_names(ieee14_case)) == 9

    def test_six_bus_values_by_hand(self, six_bus_case):
        fv = featurize(six_bus_case, make_config(six_bus_case, {1, 2, 3, 4}))
        assert fv.names == feature_names(six_bus_case)
        expected = {
            "const": 1.0,
            "load_p[1]": 0.5,  # buses 3 and 5
            "load_q[1]": 0.15,
            "load_moment[1]": 0.3 * 0.02 + 0.2 * 0.05,
            "resistance[1]": 0.02 + 0.03,
            "load_p[2]": 1.1,  # buses 4 and 6
            "load_q[2]": 0.40,
            "load_moment[2]": 0.3 * 0.02 + 0.8 * 0.05,
            "resistance[2]": 0.02 + 0.03,
        }
        for name, value in zip(fv.names, fv.values):
            assert value == pytest.approx(expected[name], abs=1e-12), name

    def test_zero_load_leaves_only_topology_terms(self):
        case = two_bus_case(0.0, 0.0)
        fv = featurize(case, make_config(case, {1}))
        by_name = dict(zip(fv.names, fv.values))
        assert by_name["const"] == 1.0
        assert by_name["load_p[1]"] == 0.0
        assert by_name["load_q[1]"] == 0.0
        assert by_name["load_moment[1]"] == 0.0
        assert by_name["resistance[1]"] > 0.0

    def test_one_exchange_moves_only_path_terms(self, triangle_case):
        before = featurize(triangle_case, make_config(triangle_case, {1, 2}))
        after = featurize(triangle_case, make_config(triangle_case, {1, 3}))
        changed = [
            name
            for name, a, b in zip(before.names, before.values, after.values)
            if a != b
        ]
        assert changed == ["load_moment[1]"]
        assert dict(zip(after.names, after.values))["load_moment[1]"] == pytest.approx(0.04)

    def test_single_root_exchange_never_touches_load_totals(self, ring6_case):
        before = featurize(ring6_case, make_config(ring6_case, {1, 2, 3, 4, 5}))
        after = featurize(ring6_case, make_config(ring6_case, {1, 2, 3, 5, 6}))
        by_before = dict(zip(before.names, before.values))
        by_after = dict(zip(after.names, after.values))
        assert by_after["load_p[1]"] == by_before["load_p[1]"]
        assert by_after["load_q[1]"] == by_before["load_q[1]"]
        assert by_after["load_moment[1]"] != by_before["load_moment[1]"]
        assert by_after["resistance[1]"] != by_before["resistance[1]"]

    def test_meshed_config_rejected(self, triangle_case):
        with pytest.raises(NotRadialError):
            featurize(triangle_case, all_closed_config(triangle_case))

    def test_deterministic(self, ieee14_case, ieee14_forest):
        first = featurize(ieee14_case, ieee14_forest.config)
        second = featurize(ieee14_case, ieee14_forest.config)
        assert first == second
        assert first.names is second.names  # shared, not rebuilt per call
        assert all(abs(v) < 1e6 for v in first.values)


class TestFit:
    def test_recovers_an_exactly_linear_target(self, ring6_case):
        vectors = [
            featurize(ring6_case, make_config(ring6_case, closed))
            for closed in enumerate_radial(ring6_case)
        ]
        target = lambda fv: 3.0 + 40.0 * fv.values[3] + 11.0 * fv.values[4]
        samples = [(fv, target(fv)) for fv in vectors]
        model = fit(ring6_case, samples)
        assert model.trained
        assert model.training_count == len(samples)
        for fv, y in samples:
            # the ridge term biases tiny-magnitude features at the 1e-5 level
            assert model.predict(fv) == pytest.approx(y, abs=1e-4)
        assert model.r_squared == pytest.approx(1.0, abs=1e-6)

    def test_underdetermined_history_yields_sentinel(self, six_bus_case):
        samples = _scored_samples(six_bus_case, 10)[:5]  # dim is 9, one short of 10
        model = fit(six_bus_case, samples)
        assert not model.trained
        assert model.training_count == 5
        assert model.coefficients is None
        with pytest.raises(ValueError):
            model.predict(samples[0][0])

    def test_search_history_fit_is_sane(self, ieee14_case, ieee14_search):
        _, trace = ieee14_search
        assert len(trace.samples) >= 20
        model = fit(ieee14_case, list(trace.samples))
        assert model.trained
        assert 0.0 <= model.r_squared <= 1.0
        assert model.training_count == len(trace.samples)

    def test_constant_target_scores_perfectly(self, ring6_case):
        vectors = [
            featurize(ring6_case, make_config(ring6_case, closed))
            for closed in enumerate_radial(ring6_case)
        ]
        model = fit(ring6_case, [(fv, 7.25) for fv in vectors])
        assert model.trained
        assert model.r_squared == pytest.approx(1.0)
        assert model.predict(vectors[0]) == pytest.approx(7.25, abs=1e-6)


class TestRankCandidates:
    def test_prediction_is_a_dot_product(self, triangle_case):
        names = feature_names(triangle_case)
        model = LinearModel(names, (1.0, 0.0, 0.0, 100.0, -2.0), 6, 1.0)
        fv = featurize(triangle_case, make_config(triangle_case, {1, 2}))
        expected = sum(c * v for c, v in zip(model.coefficients, fv.values))
        assert model.predict(fv) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(1.0 + 100.0 * 0.02 - 2.0 * 0.02)

    def test_hand_model_orders_by_path_moment(self, triangle_case):
        names = feature_names(triangle_case)
        model = LinearModel(names, (0.0, 0.0, 0.0, 1.0, 0.0), 6, 1.0)
        detour = make_config(triangle_case, {1, 3})
        direct = make_config(triangle_case, {1, 2})
        assert rank_candidates(model, triangle_case, [detour, direct]) == [direct, detour]

    def test_sentinel_keeps_given_order(self, six_bus_case):
        configs = [make_config(six_bus_case, c) for c in enumerate_radial(six_bus_case)]
        configs.reverse()
        ranked = rank_candidates(untrained_model(six_bus_case), six_bus_case, configs)
        assert ranked == configs

    def test_trained_toy_model_puts_the_true_best_first(self, triangle_case):
        per_config = []
        for closed in enumerate_radial(triangle_case):
            config = make_config(triangle_case, closed)
            result = evaluate_candidate(triangle_case, config)
            assert not isinstance(result, Rejection)
            per_config.append((config, featurize(triangle_case, config), result[0].fo_value))
        # revisits during a search duplicate history rows; mimic that to reach dim+1
        samples = [(fv, fo) for _, fv, fo in per_config] * 2
        model = fit(triangle_case, samples)
        assert model.trained
        ranked = rank_candidates(model, triangle_case, [c for c, _, _ in per_config])
        true_fo = {config: fo for config, _, fo in per_config}
        assert true_fo[ranked[0]] == pytest.approx(min(true_fo.values()), rel=1e-9)

    def test_ranking_invariant_under_positive_affine_rescale(self, six_bus_case):
        samples = _scored_samples(six_bus_case, 10)
        base = fit(six_bus_case, samples)
        assert base.trained
        shifted = list(base.coefficients)
        shifted = [2.5 * c for c in shifted]
        shifted[0] += 7.0  # const feature is always 1, so this adds 7 to every score
        rescaled = LinearModel(base.feature_names, tuple(shifted), base.training_count, 1.0)
        configs = [make_config(six_bus_case, c) for c in enumerate_radial(six_bus_case)]
        assert rank_candidates(base, six_bus_case, configs) == rank_candidates(
            rescaled, six_bus_case, configs
        )

    def test_stable_on_score_ties(self, twin_case):
        # the two feeders are identical, so symmetric configs score identically
        model = LinearModel(feature_names(twin_case), (0.0,) * 9, 10, 0.0)
        config = make_config(twin_case, {1, 2})
        ranked = rank_candidates(model, twin_case, [config, config])
        assert ranked == [config, config]


class TestModelJson:
    def test_round_trip(self, six_bus_case):
        model = fit(six_bus_case, _scored_samples(six_bus_case, 10))
        text = model_to_json(model)
        assert json.loads(text)["features"] == list(model.feature_names)
        assert model_from_json(text) == model

    def test_sentinel_round_trip(self, six_bus_case):
        model = untrained_model(six_bus_case)
        restored = model_from_json(model_to_json(model))
        assert restored == model
        assert not restored.trained

    def test_pretrained_model_feeds_a_search(self, six_bus_case, ieee14_case, ieee14_search):
        _, trace = ieee14_search
        model = model_from_json(model_to_json(fit(ieee14_case, list(trace.samples))))
        baseline, _ = improve(ieee14_case, make_config(ieee14_case, set(
            ieee14_case.branch_by_id) - {1, 5, 6, 7, 9, 16, 19, 20}))
        seeded, _ = improve(ieee14_case, make_config(ieee14_case, set(
            ieee14_case.branch_by_id) - {1, 5, 6, 7, 9, 16, 19, 20}), model=model)
        assert seeded == baseline
