"""Closed-form ridge regression on a Chebyshev design matrix.

The design matrix stacks basis rows at the projected cached timesteps; the
coefficient matrix minimizes

    ||Phi C - H||_F^2 + lambda ||C||_F^2,

which is the least-squares problem [sqrt(lambda) I; Phi] C ~ [0; H].  It is
solved through the QR factorization of that stacked matrix, never through
the normal equations, so the condition number is not squared and no
stabilizing diagonal is ever added.  The factor R and the matching rows of
Q^T [0; H] are kept, so rows observed later are folded into them one small
QR at a time (Golub & Van Loan, Matrix Computations, sec. 6.5) instead of
refactoring every row seen so far.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .basis import basis_matrix

DEFAULT_LAMBDA = 0.1


class RidgeFitError(RuntimeError):
    """The ridge problem has no unique solution (rank-deficient design at lambda = 0)."""


@dataclass(frozen=True)
class DesignMatrix:
    """K x (M+1) stack of Chebyshev basis rows at strictly increasing taus."""

    rows: np.ndarray

    @property
    def n_points(self) -> int:
        return self.rows.shape[0]

    @property
    def degree(self) -> int:
        return self.rows.shape[1] - 1


@dataclass(frozen=True, eq=False)
class RidgeFactor:
    """Triangular factor of the stacked problem [sqrt(lam) I; Phi] C ~ [0; H].

    r is the (M+1) x (M+1) upper-triangular R of the stacked design, qth the
    matching (M+1) x F rows of Q^T [0; H], and n_points the number of design
    rows folded in.  The ridge coefficients solve R C = Q^T H.
    """

    r: np.ndarray
    qth: np.ndarray
    lam: float
    n_points: int

    @classmethod
    def empty(cls, lam: float, n_coef: int, n_channels: int) -> RidgeFactor:
        """The factor of the prior rows sqrt(lam) I alone, with zero features."""
        return cls(math.sqrt(lam) * np.eye(n_coef), np.zeros((n_coef, n_channels)), lam, 0)


@dataclass(frozen=True)
class CoefficientMatrix:
    """(M+1) x F fitted coefficients; factor is the QR state they were solved from."""

    coeffs: np.ndarray
    factor: RidgeFactor | None = field(default=None, compare=False, repr=False)

    @property
    def degree(self) -> int:
        return self.coeffs.shape[0] - 1


def build_design(cached_taus, degree: int) -> DesignMatrix:
    """Assemble the design matrix from projected cached timesteps.

    The taus must be strictly increasing and inside [-1, 1]; duplicates would
    make interpolation fits singular for no good reason, so they are rejected.
    """
    taus = np.asarray(cached_taus, dtype=float)
    if taus.ndim != 1 or taus.size == 0:
        raise ValueError("cached taus must be a non-empty 1-D sequence")
    if (taus[1:] <= taus[:-1]).any():
        raise ValueError("cached taus must be strictly increasing")
    return DesignMatrix(rows=basis_matrix(degree, taus))


def _as_feature_matrix(values, n_points: int) -> np.ndarray:
    H = np.asarray(values, dtype=float)
    if H.ndim == 1:
        H = H[:, None]
    if H.ndim != 2 or H.shape[0] != n_points:
        raise ValueError(
            f"feature matrix must have one row per design row ({n_points}), got shape {H.shape}"
        )
    return H


def fold_rows(factor: RidgeFactor, rows: np.ndarray, H: np.ndarray) -> RidgeFactor:
    """The factor after appending the design rows | features H to its problem.

    One Householder QR of the small (M+1+K) x (M+1) stack [R; rows]; its
    orthonormal Q^T then maps [Q^T H; H] to the new Q^T H in one product, so
    the cost in the channel count F is a single (M+1) x (M+1+K) x F matmul.
    """
    q, r = np.linalg.qr(np.concatenate([factor.r, rows]))
    qth = q.T @ np.concatenate([factor.qth, H])
    return RidgeFactor(r, qth, factor.lam, factor.n_points + rows.shape[0])


def solve_leading(factor: RidgeFactor, n_coef: int) -> np.ndarray:
    """Back substitution on the leading n_coef x n_coef block of R.

    QR of the first columns of a matrix is the leading block of its R, so
    this is the fit with the first n_coef basis functions only.
    """
    r = factor.r[:n_coef, :n_coef]
    qth = factor.qth[:n_coef]
    if factor.lam == 0.0:
        if factor.n_points < n_coef:
            raise RidgeFitError(
                f"cannot solve at lambda=0 with {factor.n_points} points and {n_coef} coefficients"
            )
        diag = np.abs(np.diag(r))
        if not diag.min() > max(factor.n_points, n_coef) * np.finfo(float).eps * diag.max():
            raise RidgeFitError(f"design is rank-deficient at lambda=0 (|R| diagonal {diag})")
    coeffs = np.empty_like(qth)
    for i in range(n_coef - 1, -1, -1):
        coeffs[i] = (qth[i] - r[i, i + 1:] @ coeffs[i + 1:]) / r[i, i]
    if not np.isfinite(coeffs).all():
        raise RidgeFitError("ridge solve produced non-finite coefficients")
    return coeffs


def solve_ridge(
    phi: DesignMatrix,
    features,
    lam: float = DEFAULT_LAMBDA,
    prior: RidgeFactor | None = None,
    degree: int | None = None,
) -> CoefficientMatrix:
    """Solve the ridge problem for the coefficient matrix by QR.

    Without prior the factor starts at R = sqrt(lam) I, Q^T H = 0 and every
    row of phi is folded in.  With prior, the factor returned earlier for the
    same lambda, degree and channel count, only the rows of phi are folded
    in, and the result is the fit to the prior rows and these together.

    degree (default: the design's) solves for the leading degree+1
    coefficients only.  At lambda = 0 that needs at least degree+1 points in
    general position; a short cache or a rank-deficient design is a
    RidgeFitError, never a silent fallback.
    """
    lam = float(lam)
    if lam < 0.0:
        raise ValueError(f"regularization strength must be >= 0, got {lam}")
    H = _as_feature_matrix(features, phi.n_points)
    n_coef = phi.degree + 1
    degree = phi.degree if degree is None else int(degree)
    if not 0 <= degree <= phi.degree:
        raise ValueError(f"solve degree must lie in [0, {phi.degree}], got {degree}")
    if prior is None:
        prior = RidgeFactor.empty(lam, n_coef, H.shape[1])
    elif prior.lam != lam or prior.qth.shape != (n_coef, H.shape[1]):
        raise ValueError(
            f"prior factor (lambda={prior.lam}, shape {prior.qth.shape}) does not match "
            f"lambda={lam} with {n_coef} coefficients and {H.shape[1]} channels"
        )
    factor = fold_rows(prior, phi.rows, H)
    return CoefficientMatrix(coeffs=solve_leading(factor, degree + 1), factor=factor)


def min_singular(phi: DesignMatrix) -> float:
    """Smallest singular value of the design matrix (0 with fewer rows than columns)."""
    if phi.n_points < phi.degree + 1:
        return 0.0
    return float(np.linalg.svd(phi.rows, compute_uv=False)[-1])


def ridge_objective(phi: DesignMatrix, features, coeffs: CoefficientMatrix, lam: float) -> float:
    """||Phi C - H||_F^2 + lambda * ||C||_F^2."""
    lam = float(lam)
    if lam < 0.0:
        raise ValueError(f"regularization strength must be >= 0, got {lam}")
    H = _as_feature_matrix(features, phi.n_points)
    C = coeffs.coeffs
    if C.shape != (phi.degree + 1, H.shape[1]):
        raise ValueError(
            f"coefficient shape {C.shape} does not match design degree {phi.degree} "
            f"and {H.shape[1]} channels"
        )
    resid = phi.rows @ C - H
    return float(np.sum(resid * resid) + lam * np.sum(C * C))
