"""The forecasters' weights: naive reuse (Taylor order 0), Taylor, spectral.

A forecaster turns the features recorded at actual denoiser passes into a
prediction at a future timestep.  Every forecaster here is linear in those
features, with weights fixed by the cached times and its hyperparameters
alone, so these functions compute the weights from the times and never see
a feature.  The Taylor forecaster extrapolates a local polynomial built from
divided differences of the most recent entries; at order 0 it is naive
reuse, a copy of the newest entry.  The spectral forecaster fits global
Chebyshev coefficients by ridge regression and evaluates the fitted series.
"""

from __future__ import annotations

import math

import numpy as np

from .basis import project_time, recurrence_row
from .ridge import RidgeFactor, RidgeFitError, leading_triangle


def taylor_weights(times, t: float, order: int) -> np.ndarray:
    """The order-P forecast at t as order+1 weights over the features at the newest P+1 times.

    Divided differences over the most recent P+1 entries estimate the scaled
    derivatives at the anchor t_k; the prediction is the Taylor form

        h(t) ~ sum_p dd_p * (t - t_k)**p,   dd_p = f[t_{k-p}, ..., t_k].

    The table is run on the (P+1) identity, so each weight takes the same
    float operations as the table run on the features would for that entry.
    On uniformly spaced times this reduces to the classical forward-difference
    expansion; order 0 is exactly naive reuse, the weight [1.0].
    """
    order = int(order)
    if len(times) < order + 1:
        raise ValueError(f"order-{order} forecast needs {order + 1} cached entries, have {len(times)}")
    times = np.asarray(times[len(times) - order - 1:], dtype=float)

    # Divided-difference table, keeping only the diagonal that ends at the
    # newest point: table[p] = f[t_{k-p}, ..., t_k] after p sweeps.
    table = np.eye(order + 1)
    coeffs = [table[-1].copy()]
    for p in range(1, order + 1):
        table = (table[1:] - table[:-1]) / (times[p:] - times[:-p])[:, None]
        coeffs.append(table[-1].copy())

    dt = float(t) - times[-1]
    weights = np.zeros(order + 1)
    for p in range(order, -1, -1):
        weights = weights * dt + coeffs[p]
    return weights


def spectral_triangle(factor: RidgeFactor, degree: int) -> list[list[float]]:
    """The columns R[:i+1, i] of the fit's leading triangle for the degree, as floats.

    At lambda = 0 an exact solve needs degree+1 points, so a fit to fewer is
    solved at degree n_points-1 (the interpolant); with lambda > 0 the full
    degree is always solvable.  leading_triangle checks that the fit is
    solvable at that width.
    """
    if factor.lam == 0.0:
        degree = min(degree, factor.n_points - 1)
    cols = leading_triangle(factor, degree + 1).T.tolist()
    return [col[: i + 1] for i, col in enumerate(cols)]


def spectral_weights(triangle: list[list[float]], t: float) -> np.ndarray:
    """The w with R^T w = phi(2t-1) on the fit's triangle: the forecast at t is w @ Q^T H.

    C solves R C = Q^T H, so phi @ C = w @ Q^T H without forming C.  Both
    are backward-stable solves with the same R, so the forecast is as
    accurate as phi @ C.  This is one forward substitution on the
    (degree+1)-wide triangle, in floats; w depends on the cached times
    alone, never on the features.
    """
    w: list[float] = []
    for col, p in zip(triangle, recurrence_row(len(triangle) - 1, project_time(t))):
        for r, x in zip(col, w):  # stops at the end of w, before the diagonal
            p -= r * x
        w.append(p / col[-1])
    if not all(map(math.isfinite, w)):
        raise RidgeFitError("ridge forecast produced non-finite weights")
    return np.array(w)
