"""Chebyshev polynomials of the first kind and the diffusion-time projection.

All evaluation goes through the three-term recurrence

    T_0(tau) = 1,  T_1(tau) = tau,  T_m(tau) = 2*tau*T_{m-1}(tau) - T_{m-2}(tau)

on tau in [-1, 1].  The trigonometric form T_m(cos(theta)) = cos(m*theta) is
reserved for tests; production code never round-trips through arccos.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Round-off slack for tau at the interval boundary: project_time(1.0) and
# chains of float ops may land a hair outside [-1, 1].
TAU_SLACK = 1e-12


def _is_number(value, types=(int, float, np.integer, np.floating)) -> bool:
    """The one rule for a number: one of types; never a bool, a string or any other object."""
    return not isinstance(value, bool) and isinstance(value, types)


def _is_integer(value, types=(int, np.integer)) -> bool:
    """The one rule for an integer: a number of types, or a float with no fractional part; never a bool."""
    return _is_number(value, types) or (isinstance(value, float) and value.is_integer())


def _count(value, what: str, least: int = 0) -> int:
    """value as an int >= least; a bool, a number with a fractional part or a non-number is an error, not truncated."""
    if not _is_integer(value) or value < least:
        raise ValueError(f"{what} must be an integer >= {least}, got {value!r}")
    return int(value)


def _real(value, what: str, least: float | None = None) -> float:
    """value as a float; refused if no number or an int past the float range, and, given least, NaN, inf or less."""
    if not _is_number(value):
        raise ValueError(f"{what} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # only an int raises it, and its digits may be too many to print
        raise ValueError(f"{what} must lie in the float range, got an integer of {value.bit_length()} bits") from None
    if least is not None and not (math.isfinite(number) and number >= least):
        raise ValueError(f"{what} must be finite and >= {least:g}, got {value}")
    return number


def _finite(values, what: str) -> None:
    """Refuse a non-number, a NaN or an infinity among values (a number or an array of them), naming what they are."""
    array = np.asarray(values)
    if array.dtype.kind not in "iuf":  # a bool, a string or any other object would be converted or fail to compare
        raise ValueError(f"{what} must be numbers, got {values!r}")
    finite = np.isfinite(array)
    if not finite.all():
        raise ValueError(f"{what} must be finite, got {float(array[~finite].flat[0])}")


def project_time(t: float) -> float:
    """Map a diffusion timestep t in [0, 1] to tau = 2t - 1 in [-1, 1]."""
    t = float(t)
    if not 0.0 <= t <= 1.0:  # NaN compares false
        raise ValueError(f"timestep must lie in [0, 1], got {t}")
    return 2.0 * t - 1.0


def basis_row(degree: int, tau: float) -> np.ndarray:
    """Row vector [T_0(tau), ..., T_degree(tau)], length degree + 1: the one row of basis_matrix."""
    return basis_matrix(degree, float(tau))[0]


def basis_matrix(degree: int, taus) -> np.ndarray:
    """Stack of basis rows, shape (len(taus), degree + 1).

    Vectorized over taus: the recurrence runs columnwise, so the first
    columns are bitwise the matrix of a lower degree.
    """
    degree = _count(degree, "polynomial degree")
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
        if not (1.0 < _real(self.rho, "ellipse parameter") < math.inf):
            raise ValueError(f"ellipse parameter must be finite and > 1, got {self.rho}")
        if not (0.0 < _real(self.sup_bound, "sup bound") < math.inf):
            raise ValueError(f"sup bound must be finite and > 0, got {self.sup_bound}")


def truncation_bound(ellipse: EllipseBound, degree: int) -> float:
    """Uniform bound 2*B/(rho-1) * rho**(-degree) on the degree-M truncation error."""
    degree = _count(degree, "polynomial degree")
    return 2.0 * ellipse.sup_bound / (ellipse.rho - 1.0) * ellipse.rho ** (-degree)
