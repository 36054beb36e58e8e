"""The ridge fit of a Chebyshev series, carried as a QR factor; its coefficients are never formed.

The coefficients C of the fit minimize ||Phi C - H||_F^2 + lambda ||C||_F^2,
the least-squares problem [sqrt(lambda) I; Phi] C ~ [0; H].  This module
keeps the R of the QR factorization of that stacked matrix and the
matching rows of Q^T [0; H].  It factors the stacked matrix, never the
normal equations, so the condition number is not squared and no
stabilizing diagonal is ever added.  Rows observed later are folded in by
one small QR (Golub & Van Loan, Matrix Computations, sec. 6.5) instead of
refactoring every row seen so far.  The fitted series at the basis row phi
is w @ Q^T H with R^T w = phi (chebcast.forecasters.spectral_weights),
solved on the leading block of R that leading_triangle checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_LAMBDA = 0.1


class RidgeFitError(RuntimeError):
    """The ridge problem has no unique solution (rank-deficient design at lambda = 0)."""


@dataclass(frozen=True, eq=False)
class RidgeFactor:
    """Triangular factor of the stacked problem [sqrt(lam) I; Phi] C ~ [0; H].

    r is the (M+1) x (M+1) upper-triangular R of the stacked design, qth the
    matching (M+1) x F rows of Q^T [0; H], and n_points the number of design
    rows folded in.  The ridge coefficients solve R C = Q^T H.  q is the
    orthonormal factor of the fold that made this factor (None for the
    empty one): it depends on the design alone, so it carries any features'
    qth through the same fold with rotate_features.
    """

    r: np.ndarray
    qth: np.ndarray
    lam: float
    n_points: int
    q: np.ndarray | None = None

    @classmethod
    def empty(cls, lam: float, n_coef: int, n_channels: int) -> RidgeFactor:
        """The factor of the prior rows sqrt(lam) I alone, with zero features."""
        return cls(math.sqrt(lam) * np.eye(n_coef), np.zeros((n_coef, n_channels)), lam, 0)


def fold_rows(factor: RidgeFactor, rows: np.ndarray, H: np.ndarray) -> RidgeFactor:
    """The factor after appending the design rows | features H to its problem.

    One Householder QR of the small (M+1+K) x (M+1) stack [R; rows]; its
    orthonormal Q^T then maps [Q^T H; H] to the new Q^T H in one product, so
    the cost in the channel count F is a single (M+1) x (M+1+K) x F matmul.
    """
    q, r = np.linalg.qr(np.concatenate([factor.r, rows]))
    return RidgeFactor(r, rotate_features(q, factor.qth, H), factor.lam, factor.n_points + rows.shape[0], q)


def rotate_features(q: np.ndarray, qth: np.ndarray, H: np.ndarray) -> np.ndarray:
    """q^T [qth; H]: the rows of Q^T H after a fold with orthonormal factor q of the rows of H.

    qth and H may be stacks (..., rows, F) of several features' operands;
    each slice of the result is then its own 2-D product.
    """
    return np.matmul(q.T, np.concatenate([qth, H], axis=-2))


def leading_triangle(factor: RidgeFactor, n_coef: int) -> np.ndarray:
    """The leading n_coef x n_coef block of R, checked to be solvable.

    QR of the first columns of a matrix is the leading block of its R, so
    this is the factor of the fit with the first n_coef basis functions
    only.  At lambda = 0, fewer than n_coef points or a rank-deficient |R|
    diagonal is a RidgeFitError.
    """
    r = factor.r[:n_coef, :n_coef]
    if factor.lam == 0.0:
        if factor.n_points < n_coef:
            raise RidgeFitError(
                f"cannot solve at lambda=0 with {factor.n_points} points and {n_coef} coefficients"
            )
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
