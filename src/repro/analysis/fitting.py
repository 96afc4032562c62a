"""Least-squares fits of measured costs to the paper's closed forms.

The benchmarks assert *shape*; this module quantifies it.  The key fit is
Theorem 1's two-term form::

    CC(b) ~= alpha * (f/b) * log^2 N  +  beta * log^2 N

fitted over a ``b`` sweep with non-negative coefficients, reporting R².
Generic power-law fitting (``y = a * x^k``) backs the N- and f-scaling
experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class FitResult:
    """Coefficients plus goodness-of-fit for one model."""

    model: str
    coefficients: Tuple[float, ...]
    r_squared: float
    predictions: Tuple[float, ...]

    def predict_label(self) -> str:
        coef = ", ".join(f"{c:.3g}" for c in self.coefficients)
        return f"{self.model} [{coef}] R^2={self.r_squared:.3f}"


def _r_squared(ys: np.ndarray, preds: np.ndarray) -> float:
    residual = float(np.sum((ys - preds) ** 2))
    total = float(np.sum((ys - np.mean(ys)) ** 2))
    if total == 0:
        return 1.0 if residual == 0 else 0.0
    return 1.0 - residual / total


def fit_linear_basis(
    ys: Sequence[float], basis: Sequence[Sequence[float]], model: str
) -> FitResult:
    """Non-negative least squares over an explicit basis matrix.

    ``basis[j][i]`` is basis function ``j`` evaluated at sample ``i``.
    Non-negativity is enforced by projected refitting: coefficients that
    come out negative are clamped to zero and the fit is redone without
    them (adequate for our 2-term models).
    """
    y = np.asarray(ys, dtype=float)
    b_mat = np.asarray(basis, dtype=float).T  # samples x terms
    active = list(range(b_mat.shape[1]))
    coeffs = np.zeros(b_mat.shape[1])
    for _ in range(b_mat.shape[1] + 1):
        if not active:
            break
        sub = b_mat[:, active]
        sol, *_ = np.linalg.lstsq(sub, y, rcond=None)
        if np.all(sol >= 0):
            for idx, value in zip(active, sol):
                coeffs[idx] = value
            break
        worst = active[int(np.argmin(sol))]
        active.remove(worst)
    preds = b_mat @ coeffs
    return FitResult(
        model=model,
        coefficients=tuple(float(c) for c in coeffs),
        r_squared=_r_squared(y, preds),
        predictions=tuple(float(p) for p in preds),
    )


def fit_theorem1_b_sweep(
    bs: Sequence[int], ccs: Sequence[float], n: int, f: int
) -> FitResult:
    """Fit ``CC = alpha * (f/b) log^2 N + beta * log^2 N`` over a b sweep."""
    log2n = math.log2(max(2, n)) ** 2
    basis = [
        [f / b * log2n for b in bs],
        [log2n for _ in bs],
    ]
    return fit_linear_basis(ccs, basis, model="alpha*(f/b)log^2N + beta*log^2N")


def fit_power_law(xs: Sequence[float], ys: Sequence[float]) -> FitResult:
    """Fit ``y = a * x^k`` by log-log linear regression."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("power-law fit needs positive samples")
    k, log_a = np.polyfit(np.log(x), np.log(y), 1)
    preds = np.exp(log_a) * x**k
    return FitResult(
        model="a*x^k",
        coefficients=(float(np.exp(log_a)), float(k)),
        r_squared=_r_squared(y, preds),
        predictions=tuple(float(p) for p in preds),
    )
