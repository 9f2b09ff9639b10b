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

from .model import Configuration, NetworkCase
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
    base = case.base_mva
    per_root: dict[int, list[float]] = {root: [0.0, 0.0, 0.0, 0.0] for root in case.roots}
    # resistance of each bus's path to its root, parents before children
    path_r: dict[int, float] = {}
    for bus in index.order:
        parent = index.parent_bus[bus]
        if parent is None:
            path_r[bus] = 0.0
        else:
            path_r[bus] = path_r[parent] + case.branch_by_id[index.parent_branch[bus]].r

    for bus in case.buses:
        agg = per_root[index.root_of[bus.id]]
        p, q = bus.p_load / base, bus.q_load / base
        agg[0] += p
        agg[1] += q
        agg[2] += p * path_r[bus.id]
    for branch_id in config.closed:
        branch = case.branch_by_id[branch_id]
        per_root[index.root_of[branch.from_bus]][3] += branch.r

    values = [1.0]
    for root in case.roots:
        values.extend(per_root[root])
    return tuple(values)


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


def rank_candidates(
    model: LinearModel, case: NetworkCase, configs: list[Configuration]
) -> list[Configuration]:
    """Stable sort by predicted objective; the sentinel keeps the given order."""
    if not model.trained:
        return list(configs)
    scored = [model.predict(featurize(case, config)) for config in configs]
    order = sorted(range(len(configs)), key=lambda i: (scored[i], i))
    return [configs[i] for i in order]
