"""Linear surrogate that scores candidate configurations without a power flow.

Features are cheap per-island aggregates of a radial configuration: served
load, a load-distance moment (bus load weighted by the resistance of its
path to the root) and the closed resistance total.  An ordinary
least-squares fit over already-evaluated candidates predicts the loss
objective, which is only ever used to order the search, never to
replace a real evaluation.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Configuration, NetworkCase, _compiled_case, _find
from .topology import forest_index

RIDGE_DAMPING = 1e-8


@dataclass(frozen=True)
class LinearModel:
    """OLS fit of the loss objective; coefficients None until trainable."""

    coefficients: tuple[float, ...] | None

    @property
    def trained(self) -> bool:
        return self.coefficients is not None

    def predict(self, features: tuple[float, ...]) -> float:
        if self.coefficients is None:
            raise ValueError("model is an untrained sentinel")
        return float(np.dot(self.coefficients, features))


def untrained_model() -> LinearModel:
    return LinearModel(None)


def featurize(case: NetworkCase, config: Configuration) -> tuple[float, ...]:
    """Fixed-dimension description of a radial configuration.

    The layout is `1`, then `load_p, load_q, load_moment, resistance` for
    each root in `case.roots` order.
    """
    index = forest_index(case, config)
    compiled = _compiled_case(case)
    # np.add.at adds one entry at a time, in order: each sum has the bits of
    # a scalar loop over the buses in case order and over the closed
    # branches in the order the set iterates
    sums = np.zeros((4, len(case.roots)))
    root = index.root[compiled.case_order]
    np.add.at(sums[0], root, compiled.load_p)
    np.add.at(sums[1], root, compiled.load_q)
    np.add.at(sums[2], root, compiled.load_p * index.path_r[compiled.case_order])
    closed = _find(compiled.branch_ids, np.fromiter(config.closed, np.int64, len(config.closed)))
    np.add.at(sums[3], index.root[compiled.ends[closed, 0]], compiled.resistance[closed])
    return (1.0, *sums.T.ravel().tolist())


def fit(case: NetworkCase, samples: list[tuple[tuple[float, ...], float]]) -> LinearModel:
    """Least squares over (features, objective) pairs.

    Fewer samples than coefficients would be underdetermined, so the
    sentinel model comes back instead; the normal equations carry a tiny
    ridge term against collinear features.
    """
    dim = 1 + 4 * len(case.roots)
    if len(samples) < dim + 1:
        return untrained_model()
    x = np.array([features for features, _ in samples])
    y = np.array([fo for _, fo in samples])
    gram = x.T @ x + RIDGE_DAMPING * np.eye(dim)
    coef = np.linalg.solve(gram, x.T @ y)
    return LinearModel(tuple(float(c) for c in coef))


def rank_candidates(model: LinearModel, features: list[tuple[float, ...]]) -> list[int]:
    """Positions in `features`, stably sorted by predicted objective; the sentinel keeps the given order."""
    if not model.trained:
        return list(range(len(features)))
    predicted = [model.predict(row) for row in features]
    return sorted(range(len(features)), key=lambda i: (predicted[i], i))
