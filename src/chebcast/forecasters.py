"""The forecasters' weights: naive reuse (Taylor order 0), Taylor, spectral.

A forecaster turns the features recorded at actual denoiser passes into a
prediction at a future timestep.  Every forecaster here is linear in those
features, with weights fixed by the cached times and its hyperparameters
alone, so these functions compute the weights from the times and never see
a feature.  Each call weighs a whole stretch of forecasts at once, one row
of weights a forecast, and a row is bitwise the one a call for that
forecast alone gives.  The Taylor forecaster extrapolates a local
polynomial built from divided differences of the most recent entries; at
order 0 it is naive reuse, a copy of the newest entry.  The spectral
forecaster fits global Chebyshev coefficients by ridge regression and
evaluates the fitted series, solved on the fit's triangle of R.
"""

from __future__ import annotations

import numpy as np


def taylor_weights(times, ts, order: int) -> np.ndarray:
    """The order-P forecasts at the times ts, one row of order+1 weights over the newest P+1 times each.

    Divided differences over the most recent P+1 entries estimate the scaled
    derivatives at the anchor t_k; the prediction is the Taylor form

        h(t) ~ sum_p dd_p * (t - t_k)**p,   dd_p = f[t_{k-p}, ..., t_k].

    The table is run on the (P+1) identity, so each weight takes the same
    float operations as the table run on the features would for that entry,
    and Horner's rule runs on the column of t - t_k.  On uniformly spaced
    times this reduces to the classical forward-difference expansion;
    order 0 is exactly naive reuse, the weight [1.0].
    """
    order = int(order)
    if len(times) < order + 1:
        raise ValueError(f"order-{order} forecast needs {order + 1} cached entries, have {len(times)}")
    times = np.asarray(times[len(times) - order - 1:], dtype=float)

    # Divided-difference table, keeping only the diagonal that ends at the
    # newest point: table[p] = f[t_{k-p}, ..., t_k] after p sweeps.
    table = np.eye(order + 1)
    coeffs = [table[-1]]
    for p in range(1, order + 1):  # each sweep makes a new table, so coeffs may keep views of the old
        table = (table[1:] - table[:-1]) / (times[p:] - times[:-p])[:, None]
        coeffs.append(table[-1])

    dt = np.subtract(ts, times[-1])[:, None]
    weights = 0.0 * dt + coeffs[order]  # Horner's rule from zero weights
    for p in range(order - 1, -1, -1):
        weights *= dt
        weights += coeffs[p]
    return weights


def spectral_weights(triangle: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """The rows w with R^T w = phi on the fit's triangle: the forecast at a row's time is w @ Q^T H.

    phi holds one basis row a forecast, of which the first len(triangle)
    columns are read.  C solves R C = Q^T H, so phi @ C = w @ Q^T H
    without forming C.  Both are backward-stable solves with the same R, so
    the forecast is as accurate as phi @ C.  This is one forward
    substitution on the triangle, a column of w at a time across the rows;
    w depends on the cached times alone, never on the features.
    """
    w = np.array(np.asarray(phi)[:, : len(triangle)], dtype=float)
    for i in range(w.shape[1]):
        w[:, i] /= triangle[i, i]
        # each later column takes its term in w[:, i] now, in the order R^T's row lists them
        w[:, i + 1:] -= w[:, i, None] * triangle[i, i + 1:]
    return w
