"""The ridge fit of a Chebyshev series, carried as a QR factor; its coefficients are never formed.

The coefficients C of the fit minimize ||Phi C - H||_F^2 + lambda ||C||_F^2,
the least-squares problem [sqrt(lambda) I; Phi] C ~ [0; H].  This module
keeps the R of the QR factorization of that stacked matrix, which depends
on the design alone; rotate_features carries any features' rows of
Q^T [0; H] through its folds.  It factors the stacked matrix, never the
normal equations, so the condition number is not squared and no
stabilizing diagonal is ever added.  Rows observed later are folded in by
one small QR (Golub & Van Loan, Matrix Computations, sec. 6.5) instead of
refactoring every row seen so far.  The fitted series at the basis row phi
is w @ Q^T H with R^T w = phi (chebcast.forecasters.spectral_weights),
solved on the triangle of R that leading_triangle caps and checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_LAMBDA = 0.1


class RidgeFitError(RuntimeError):
    """The ridge problem has no unique solution (no points, or a rank-deficient design, at lambda = 0)."""


@dataclass(frozen=True, eq=False)
class RidgeFactor:
    """Triangular factor of the stacked design [sqrt(lam) I; Phi].

    r is its (M+1) x (M+1) upper-triangular R, and n_points the number of
    design rows folded in.  The ridge coefficients of features H solve
    R C = Q^T H.  q is the orthonormal factor of the fold that made this
    factor (None for the empty one): rotate_features carries any features'
    Q^T H through the same fold.
    """

    r: np.ndarray
    lam: float
    n_points: int
    q: np.ndarray | None = None

    @classmethod
    def empty(cls, lam: float, n_coef: int) -> RidgeFactor:
        """The factor of the prior rows sqrt(lam) I alone."""
        return cls(math.sqrt(lam) * np.eye(n_coef), lam, 0)


def fold_rows(factor: RidgeFactor, rows: np.ndarray) -> RidgeFactor:
    """The factor after appending the design rows to its problem: one Householder QR of the small stack [R; rows]."""
    q, r = np.linalg.qr(np.concatenate([factor.r, rows]))
    return RidgeFactor(r, factor.lam, factor.n_points + rows.shape[0], q)


def rotate_features(q: np.ndarray, stacked: np.ndarray) -> np.ndarray:
    """q^T stacked: the rows of Q^T H after a fold with orthonormal factor q of the rows of H.

    stacked is [qth; H], the rows of Q^T H before the fold over the features'
    rows at the folded design rows.  It may be a stack (..., rows, F) of
    several features' operands; each slice of the result is then its own
    2-D product, bitwise the call on that slice alone as long as the slice
    is C-contiguous.  A sampling run makes this product through each
    stretch's planned transpose of q, in place over its carried Q^T H
    (chebcast.plan.Stretch).
    """
    return np.matmul(q.T, stacked)


def leading_triangle(factor: RidgeFactor, degree: int) -> np.ndarray:
    """The leading block of R that solves the fit at the degree, checked to be solvable.

    QR of the first columns of a matrix is the leading block of its R, so
    this is the factor of the fit with the first basis functions only.  At
    lambda = 0 an exact solve needs degree+1 points, so a fit to fewer is
    solved at degree n_points-1 (the interpolant), and no points or a
    rank-deficient |R| diagonal is a RidgeFitError; with lambda > 0 the
    full degree is always solvable.
    """
    if factor.lam != 0.0:
        return factor.r[: degree + 1, : degree + 1]
    if factor.n_points == 0:
        raise RidgeFitError("cannot solve at lambda=0 with no points")
    n_coef = min(degree, factor.n_points - 1) + 1
    r = factor.r[:n_coef, :n_coef]
    diag = np.abs(np.diag(r))
    if not diag.min() > max(factor.n_points, n_coef) * np.finfo(float).eps * diag.max():
        shown = ", ".join(f"{d:.3g}" for d in diag)  # on one line, so a CLI error stays one line
        raise RidgeFitError(f"design is rank-deficient at lambda=0 (|R| diagonal {shown})")
    return r


def min_singular(phi: np.ndarray) -> float:
    """Smallest singular value of the design matrix (0 with fewer rows than columns)."""
    if phi.shape[0] < phi.shape[1]:
        return 0.0
    return float(np.linalg.svd(phi, compute_uv=False)[-1])
