"""Numerical evaluation and verification of the forecasting error bounds.

Three bounds are implemented and checked against measurements:

* the worst-case error of an ideal order-P local Taylor predictor over the
  smoothness class with bounded (P+1)-th derivative, together with the
  polynomial witness that attains it exactly;
* the geometric truncation bound for Chebyshev approximants of functions
  analytic on a Bernstein ellipse;
* the forecast error bound of the spectral ridge predictor, whose value
  depends on the fit (degree, point count, smallest singular value, ridge
  strength) and on the channel's analyticity data -- but not on how far
  ahead the forecast is.

Empirical sup norms are measured on dense uniform grids, the stated
measurement convention throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import EllipseBound, project_time, truncation_bound
from .forecasters import FeatureCache, SpectralConfig, spectral_fit, spectral_forecast
from .ridge import build_design, min_singular, solve_ridge

DENSE_GRID = 10_000


def taylor_worst_case(deriv_bound: float, order: int, step: float) -> float:
    """Worst-case error L / (P+1)! * step**(P+1) of the ideal order-P predictor."""
    if deriv_bound <= 0.0:
        raise ValueError(f"derivative bound must be > 0, got {deriv_bound}")
    if step <= 0.0:
        raise ValueError(f"forecast step must be > 0, got {step}")
    order = int(order)
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    return deriv_bound / math.factorial(order + 1) * step ** (order + 1)


@dataclass(frozen=True)
class AttainmentReport:
    bound: float
    attained: float
    rel_gap: float
    passed: bool


def verify_taylor_attainment(
    order: int, step: float, deriv_bound: float, anchor: float = 0.3, rel_tol: float = 1e-12
) -> AttainmentReport:
    """Check that the monomial witness attains the worst-case Taylor bound.

    The witness g(tau) = L/(P+1)! * (tau - anchor)**(P+1) has all derivatives
    through order P equal to zero at the anchor, so the ideal predictor is
    identically zero and the error at anchor+step is |g(anchor+step)|.
    """
    bound = taylor_worst_case(deriv_bound, order, step)

    def witness(tau: float) -> float:
        return deriv_bound / math.factorial(order + 1) * (tau - anchor) ** (order + 1)

    predictor = 0.0
    attained = abs(witness(anchor + step) - predictor)
    rel_gap = abs(attained - bound) / bound
    return AttainmentReport(bound=bound, attained=attained, rel_gap=rel_gap, passed=rel_gap <= rel_tol)


def cheb_interpolant_values(f, degree: int, grid: np.ndarray) -> np.ndarray:
    """Values on `grid` of the degree-M interpolant of f at Chebyshev nodes."""
    k = np.arange(degree + 1)
    nodes = np.sort(np.cos((2 * k + 1) * np.pi / (2 * (degree + 1))))
    phi = build_design(nodes, degree)
    coeffs = solve_ridge(phi, np.asarray([f(tau) for tau in nodes])[:, None], 0.0)
    return (build_design(grid, degree).rows @ coeffs.coeffs)[:, 0]


@dataclass(frozen=True)
class DecayReport:
    degrees: tuple[int, ...]
    sup_errors: tuple[float, ...]
    bounds: tuple[float, ...]
    decay_rate: float
    contained: bool
    rate_ok: bool

    @property
    def passed(self) -> bool:
        return self.contained and self.rate_ok


def verify_cheb_decay(
    f,
    ellipse: EllipseBound,
    degrees,
    safety: float = 2.0,
    min_rate_fraction: float = 0.9,
    grid_size: int = DENSE_GRID,
) -> DecayReport:
    """Measure interpolation sup-errors against the geometric truncation bound.

    For each degree the sup error over a dense grid must stay below
    safety * 2B/(rho-1) * rho**-M (the safety factor absorbs the gap between
    node interpolation and the true truncation), and the fitted log-error
    slope must be at least min_rate_fraction * log(rho).
    """
    grid = np.linspace(-1.0, 1.0, grid_size)
    f_grid = np.asarray([f(tau) for tau in grid])
    degrees = tuple(int(m) for m in degrees)
    errors, bnds = [], []
    for m in degrees:
        approx = cheb_interpolant_values(f, m, grid)
        errors.append(float(np.max(np.abs(f_grid - approx))))
        bnds.append(truncation_bound(ellipse, m))
    contained = bool(all(e <= safety * b for e, b in zip(errors, bnds)))
    # Degrees at the round-off floor would flatten the fitted slope, so they
    # are excluded; if everything is at the floor the decay is immediate.
    usable = [(m, e) for m, e in zip(degrees, errors) if e > 1e-14]
    if len(usable) >= 2:
        slope = float(np.polyfit([m for m, _ in usable], [np.log(e) for _, e in usable], 1)[0])
        decay_rate = -slope
    else:
        decay_rate = float("inf")
    rate_ok = bool(decay_rate >= min_rate_fraction * np.log(ellipse.rho))
    return DecayReport(
        degrees=degrees,
        sup_errors=tuple(errors),
        bounds=tuple(bnds),
        decay_rate=decay_rate,
        contained=contained,
        rate_ok=rate_ok,
    )


def spectral_bound(
    eps_m: float,
    degree: int,
    n_points: int,
    sigma_min: float,
    lam: float,
    ellipse: EllipseBound,
) -> float:
    """Forecast-time-independent error bound of the spectral ridge predictor.

    eps_m is the (bound on the) degree-M truncation error of the channel,
    sigma_min the smallest singular value of the fitted design matrix.  The
    expression takes no forecast-time argument: the bound does not grow with
    the forecast gap.
    """
    if eps_m < 0.0 or sigma_min < 0.0 or lam < 0.0:
        raise ValueError("eps_m, sigma_min and lam must all be >= 0")
    m1 = int(degree) + 1
    denom = sigma_min**2 + lam
    if denom == 0.0:
        raise ValueError("sigma_min and lam cannot both be zero")
    coeff_norm = 2.0 * ellipse.sup_bound / np.sqrt(1.0 - ellipse.rho**-2)
    return float(eps_m * (1.0 + m1 * n_points / denom) + lam * np.sqrt(m1) / denom * coeff_norm)


@dataclass(frozen=True)
class SpectralBoundReport:
    gaps: tuple[float, ...]
    errors: tuple[float, ...]
    bound: float
    contained: bool
    error_ratio: float          # max/min empirical error across gaps
    taylor_bound_ratio: float   # growth of the order-P local bound across gaps
    sigma_min: float
    eps_m: float


def verify_spectral_bound(
    channel,
    ellipse: EllipseBound,
    gaps,
    degree: int = 4,
    lam: float = 0.1,
    n_nodes: int = 8,
    fit_end: float = 0.4,
    taylor_order: int = 1,
) -> SpectralBoundReport:
    """Fit one channel on Chebyshev-spaced nodes and probe forecast gaps.

    The channel is sampled at n_nodes Chebyshev points inside [0, fit_end];
    forecasts are issued at t = fit_end + gap for each gap.  Every empirical
    error must fall below the spectral bound evaluated from the actual fit,
    and the report carries the max/min error ratio next to the growth the
    local Taylor bound would have had over the same gaps.
    """
    k = np.arange(n_nodes)
    nodes = np.sort(fit_end / 2.0 + fit_end / 2.0 * np.cos((2 * k + 1) * np.pi / (2 * n_nodes)))
    cache = FeatureCache()
    for t in nodes:
        cache.insert(t, [channel(t)])
    state = spectral_fit(cache, SpectralConfig(degree=degree, lam=lam))
    phi = build_design([project_time(t) for t in nodes], degree)
    sigma = min_singular(phi)
    eps_m = truncation_bound(ellipse, degree)
    bound = spectral_bound(eps_m, degree, n_nodes, sigma, lam, ellipse)

    t_anchor = float(nodes[-1])
    gaps = tuple(float(g) for g in gaps)
    errors = []
    for gap in gaps:
        t_query = t_anchor + gap
        pred = spectral_forecast(state, t_query)[0]
        errors.append(float(abs(channel(t_query) - pred)))
    contained = bool(all(err <= bound for err in errors))
    # An exact fit (a polynomial channel at lambda = 0) can forecast some gap
    # with zero error, where the ratio has no finite value.
    error_ratio = float(max(errors) / min(errors)) if min(errors) > 0.0 else math.inf
    taylor_ratio = taylor_worst_case(1.0, taylor_order, max(gaps)) / taylor_worst_case(
        1.0, taylor_order, min(gaps)
    )
    return SpectralBoundReport(
        gaps=gaps,
        errors=tuple(errors),
        bound=bound,
        contained=contained,
        error_ratio=error_ratio,
        taylor_bound_ratio=taylor_ratio,
        sigma_min=sigma,
        eps_m=eps_m,
    )
