"""Linear surrogate that scores candidate configurations without a power flow.

Features are cheap per-island aggregates of a radial configuration: served
load, a load-distance moment (bus load weighted by the resistance of its
path to the root) and the closed resistance total.  An ordinary
least-squares fit over already-evaluated candidates predicts the loss
objective, which is only ever used to order or prune the search, never to
replace a real evaluation.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model import Configuration, NetworkCase
from .topology import forest_index

RIDGE_DAMPING = 1e-8


@dataclass(frozen=True, slots=True)
class FeatureVector:
    names: tuple[str, ...]
    values: tuple[float, ...]


@dataclass(frozen=True)
class LinearModel:
    """OLS fit of the loss objective; coefficients None until trainable."""

    feature_names: tuple[str, ...]
    coefficients: tuple[float, ...] | None
    training_count: int
    r_squared: float

    @property
    def trained(self) -> bool:
        return self.coefficients is not None

    def predict(self, features: FeatureVector) -> float:
        if self.coefficients is None:
            raise ValueError("model is an untrained sentinel")
        return float(np.dot(self.coefficients, features.values))


def untrained_model(case: NetworkCase) -> LinearModel:
    return LinearModel(feature_names(case), None, 0, 0.0)


def feature_names(case: NetworkCase) -> tuple[str, ...]:
    return _names_for_roots(tuple(case.roots))


@lru_cache(maxsize=64)
def _names_for_roots(roots: tuple[int, ...]) -> tuple[str, ...]:
    # one shared tuple per root set, so retained feature vectors do not
    # each carry their own copy of the strings
    names = ["const"]
    for root in roots:
        names += [
            f"load_p[{root}]",
            f"load_q[{root}]",
            f"load_moment[{root}]",
            f"resistance[{root}]",
        ]
    return tuple(names)


def featurize(case: NetworkCase, config: Configuration) -> FeatureVector:
    """Fixed-dimension description of a radial configuration."""
    index = forest_index(case, config)
    base = case.base_mva
    per_root: dict[int, list[float]] = {root: [0.0, 0.0, 0.0, 0.0] for root in case.roots}
    path_r: dict[int, float] = {}

    def resistance_to_root(bus: int) -> float:
        if bus not in path_r:
            parent = index.parent_bus[bus]
            if parent is None:
                path_r[bus] = 0.0
            else:
                branch = case.branch_by_id[index.parent_branch[bus]]
                path_r[bus] = resistance_to_root(parent) + branch.r
        return path_r[bus]

    for bus in case.buses:
        agg = per_root[index.root_of[bus.id]]
        p, q = bus.p_load / base, bus.q_load / base
        agg[0] += p
        agg[1] += q
        agg[2] += p * resistance_to_root(bus.id)
    for branch_id in config.closed:
        branch = case.branch_by_id[branch_id]
        per_root[index.root_of[branch.from_bus]][3] += branch.r

    values = [1.0]
    for root in case.roots:
        values.extend(per_root[root])
    return FeatureVector(feature_names(case), tuple(values))


def fit(case: NetworkCase, samples: list[tuple[FeatureVector, float]]) -> LinearModel:
    """Least squares over (features, objective) pairs.

    Fewer samples than coefficients would be underdetermined, so the
    sentinel model comes back instead; the normal equations carry a tiny
    ridge term against collinear features.
    """
    names = feature_names(case)
    dim = len(names)
    if len(samples) < dim + 1:
        return LinearModel(names, None, len(samples), 0.0)
    x = np.array([fv.values for fv, _ in samples])
    y = np.array([fo for _, fo in samples])
    gram = x.T @ x + RIDGE_DAMPING * np.eye(dim)
    coef = np.linalg.solve(gram, x.T @ y)
    residuals = y - x @ coef
    ss_res = float(residuals @ residuals)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot < 1e-30:
        # zero-variance target: perfect iff residuals vanish next to its energy
        r_squared = 1.0 if ss_res <= 1e-9 * max(float(y @ y), 1.0) else 0.0
    else:
        r_squared = min(1.0, max(0.0, 1.0 - ss_res / ss_tot))
    return LinearModel(names, tuple(float(c) for c in coef), len(samples), r_squared)


def rank_candidates(
    model: LinearModel, case: NetworkCase, configs: list[Configuration]
) -> list[Configuration]:
    """Stable sort by predicted objective; the sentinel keeps the given order."""
    if not model.trained:
        return list(configs)
    scored = [model.predict(featurize(case, config)) for config in configs]
    order = sorted(range(len(configs)), key=lambda i: (scored[i], i))
    return [configs[i] for i in order]


def model_to_json(model: LinearModel) -> str:
    payload = {
        "features": list(model.feature_names),
        "coefficients": list(model.coefficients) if model.trained else None,
        "training_count": model.training_count,
        "r_squared": model.r_squared,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def model_from_json(text: str) -> LinearModel:
    payload = json.loads(text)
    coefficients = payload["coefficients"]
    return LinearModel(
        tuple(payload["features"]),
        tuple(coefficients) if coefficients is not None else None,
        int(payload["training_count"]),
        float(payload["r_squared"]),
    )
