"""Chebyshev polynomials of the first kind and the diffusion-time projection.

All evaluation goes through the three-term recurrence

    T_0(tau) = 1,  T_1(tau) = tau,  T_m(tau) = 2*tau*T_{m-1}(tau) - T_{m-2}(tau)

on tau in [-1, 1].  The trigonometric form T_m(cos(theta)) = cos(m*theta) is
reserved for tests; production code never round-trips through arccos.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Round-off slack for tau at the interval boundary: project_time(1.0) and
# chains of float ops may land a hair outside [-1, 1].
TAU_SLACK = 1e-12


def _check_degree(m: int) -> int:
    m = int(m)
    if m < 0:
        raise ValueError(f"polynomial degree must be >= 0, got {m}")
    return m


def project_time(t: float) -> float:
    """Map a diffusion timestep t in [0, 1] to tau = 2t - 1 in [-1, 1]."""
    t = float(t)
    if not 0.0 <= t <= 1.0:  # NaN compares false
        raise ValueError(f"timestep must lie in [0, 1], got {t}")
    return 2.0 * t - 1.0


def eval_cheb(m: int, tau: float) -> float:
    """Evaluate T_m(tau) by the three-term recurrence: the last entry of basis_row."""
    return float(basis_row(m, tau)[m])


def basis_row(degree: int, tau: float) -> np.ndarray:
    """Row vector [T_0(tau), ..., T_degree(tau)], length degree + 1."""
    tau = float(tau)
    if not abs(tau) <= 1.0 + TAU_SLACK:  # NaN compares false, so it is outside
        raise ValueError(f"projected time must lie in [-1, 1], got {tau}")
    return recurrence_row(_check_degree(degree), min(1.0, max(-1.0, tau)))


def recurrence_row(degree: int, tau: float) -> np.ndarray:
    """basis_row without its checks, for an int degree >= 0 and a float tau in [-1, 1]."""
    row = [1.0, tau]
    for _ in range(2, degree + 1):
        row.append(2.0 * tau * row[-1] - row[-2])
    return np.array(row[: degree + 1])


def basis_matrix(degree: int, taus) -> np.ndarray:
    """Stack of basis rows, shape (len(taus), degree + 1).

    Vectorized over taus; same recurrence as basis_row applied columnwise.
    """
    degree = _check_degree(degree)
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    inside = np.abs(taus) <= 1.0 + TAU_SLACK  # NaN compares false, so it is outside
    if not inside.all():
        raise ValueError(f"projected time must lie in [-1, 1], got {float(taus[~inside][0])}")
    taus = taus.clip(-1.0, 1.0)
    out = np.empty((taus.size, degree + 1))
    out[:, 0] = 1.0
    if degree >= 1:
        out[:, 1] = taus
    for m in range(2, degree + 1):
        out[:, m] = 2.0 * taus * out[:, m - 1] - out[:, m - 2]
    return out


@dataclass(frozen=True)
class EllipseBound:
    """Analyticity data for a function on the Bernstein ellipse.

    rho is the ellipse parameter (sum of semi-axes, > 1) and sup_bound is a
    bound on |f| over the ellipse.  Together they control the geometric decay
    of Chebyshev coefficients and the uniform truncation error.
    """

    rho: float
    sup_bound: float

    def __post_init__(self):
        if not (self.rho > 1.0):
            raise ValueError(f"ellipse parameter must be > 1, got {self.rho}")
        if not (self.sup_bound > 0.0):
            raise ValueError(f"sup bound must be > 0, got {self.sup_bound}")


def truncation_bound(ellipse: EllipseBound, degree: int) -> float:
    """Uniform bound 2*B/(rho-1) * rho**(-degree) on the degree-M truncation error."""
    degree = _check_degree(degree)
    return 2.0 * ellipse.sup_bound / (ellipse.rho - 1.0) * ellipse.rho ** (-degree)
