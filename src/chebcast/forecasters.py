"""Feature cache and the forecasters: naive reuse (Taylor order 0), Taylor, spectral.

A forecaster turns the cache of (timestep, feature vector) pairs recorded at
actual denoiser passes into a prediction at a future timestep.  The Taylor
forecaster extrapolates a local polynomial built from divided differences of
the most recent entries; at order 0 it is naive reuse, a copy of the newest
entry.  The spectral forecaster fits global Chebyshev coefficients by ridge
regression and evaluates the fitted series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .basis import basis_matrix, basis_row, project_time, recurrence_row
from .ridge import DEFAULT_LAMBDA, RidgeFactor, RidgeFitError, fold_rows, leading_triangle, solve_leading

DEFAULT_DEGREE = 4


class FeatureCache:
    """Ordered store of (t, h) pairs with strictly increasing timesteps.

    capacity=None keeps every entry; capacity=W keeps a sliding window of the
    W most recent entries (oldest evicted first).
    """

    def __init__(self, capacity: int | None = None):
        if capacity is not None and capacity < 1:
            raise ValueError(f"cache window must be >= 1, got {capacity}")
        self.capacity = capacity
        self._times: list[float] = []
        self._features: list[np.ndarray] = []

    def __len__(self) -> int:
        return len(self._times)

    @property
    def feature_dim(self) -> int | None:
        return None if not self._features else self._features[0].size

    def insert(self, t: float, h) -> None:
        t = float(t)
        if self._times and t <= self._times[-1]:
            raise ValueError(
                f"cache timesteps must be strictly increasing: {t} after {self._times[-1]}"
            )
        h = np.array(h, dtype=float).ravel()
        if not np.isfinite(h).all():
            raise ValueError(f"feature at t={t:g} has non-finite entries")
        if self._features and h.size != self._features[0].size:
            raise ValueError(
                f"feature length {h.size} does not match cached length {self._features[0].size}"
            )
        self._times.append(t)
        self._features.append(h)
        if self.capacity is not None and len(self._times) > self.capacity:
            del self._times[0]
            del self._features[0]

    def times(self, last: int | None = None) -> np.ndarray:
        """Cached timesteps, oldest first; only the newest `last` when given."""
        return np.asarray(self._times[self._first(last):], dtype=float)

    def feature_stack(self, last: int | None = None) -> np.ndarray:
        """Cached features as rows, oldest first; only the newest `last` when given."""
        if not self._features:
            raise ValueError("cache is empty")
        return np.array(self._features[self._first(last):])

    def _first(self, last: int | None) -> int:
        if last is None:
            return 0
        if not 1 <= last <= len(self._times):
            raise ValueError(f"cannot read the newest {last} of {len(self._times)} entries")
        return len(self._times) - last

    def latest(self) -> tuple[float, np.ndarray]:
        if not self._times:
            raise ValueError("cache is empty")
        return self._times[-1], self._features[-1]

    def copy(self) -> "FeatureCache":
        dup = FeatureCache(capacity=self.capacity)
        dup._times = list(self._times)
        dup._features = [h.copy() for h in self._features]
        return dup


def naive_forecast(cache: FeatureCache, t: float) -> np.ndarray:
    """Copy of the most recently cached feature vector."""
    _, h = cache.latest()
    return h.copy()


def taylor_forecast(cache: FeatureCache, t: float, order: int) -> np.ndarray:
    """Order-P local extrapolation anchored at the newest cached timestep.

    Divided differences over the most recent P+1 entries estimate the scaled
    derivatives at the anchor t_k; the prediction is the Taylor form

        h(t) ~ sum_p dd_p * (t - t_k)**p,   dd_p = f[t_{k-p}, ..., t_k].

    On uniformly spaced caches this reduces to the classical forward-difference
    expansion; order 0 is exactly naive reuse.
    """
    order = int(order)
    if order < 0:
        raise ValueError(f"expansion order must be >= 0, got {order}")
    if len(cache) < order + 1:
        raise ValueError(
            f"order-{order} forecast needs {order + 1} cached entries, have {len(cache)}"
        )
    if order == 0:
        return naive_forecast(cache, t)

    times = cache.times(order + 1)
    values = cache.feature_stack(order + 1)
    t_anchor = times[-1]

    # Divided-difference table, keeping only the diagonal that ends at the
    # newest point: table[p] = f[t_{k-p}, ..., t_k] after p sweeps.
    table = values.copy()
    coeffs = [table[-1].copy()]
    for p in range(1, order + 1):
        table = (table[1:] - table[:-1]) / (times[p:] - times[:-p])[:, None]
        coeffs.append(table[-1].copy())

    dt = float(t) - t_anchor
    pred = np.zeros_like(values[-1])
    for p in range(order, -1, -1):
        pred = pred * dt + coeffs[p]
    return pred


@dataclass(frozen=True)
class SpectralConfig:
    """Basis degree and ridge strength for the spectral forecaster."""

    degree: int = DEFAULT_DEGREE
    lam: float = DEFAULT_LAMBDA

    def __post_init__(self):
        degree, lam = self.degree, float(self.lam)
        integral = isinstance(degree, (int, np.integer)) or (
            isinstance(degree, float) and degree.is_integer()
        )
        if isinstance(degree, bool) or not integral or degree < 0:
            raise ValueError(f"basis degree must be an integer >= 0, got {degree!r}")
        if not (math.isfinite(lam) and lam >= 0.0):
            raise ValueError(f"regularization strength must be finite and >= 0, got {lam}")
        object.__setattr__(self, "degree", int(degree))
        object.__setattr__(self, "lam", lam)


@dataclass(frozen=True)
class SpectralState:
    """A fit to the cache: the QR factor of every cached entry up to fitted_at.

    The next fit to the same cache folds its new entries into factor.  A
    forecast reads only triangle; coeffs is solved only when it is read.
    """

    factor: RidgeFactor
    degree: int
    fitted_at: float

    @cached_property
    def coeffs(self) -> np.ndarray:
        """The (degree+1) x F coefficient matrix."""
        return solve_leading(self.factor, self.degree + 1)

    @cached_property
    def triangle(self) -> tuple[list[list[float]], np.ndarray]:
        """The leading triangle's columns R[:i+1, i] as floats, and the rows of Q^T H it solves for."""
        n = self.degree + 1
        cols = leading_triangle(self.factor, n).T.tolist()
        return [col[: i + 1] for i, col in enumerate(cols)], self.factor.qth[:n]


def spectral_fit(
    cache: FeatureCache, config: SpectralConfig, prior: SpectralState | None = None
) -> SpectralState:
    """Fit Chebyshev coefficients to the whole cache by ridge regression.

    prior, an earlier fit to this cache, lets only the entries inserted since
    be folded into its factor; after a window eviction, or without prior, the
    whole cache is fitted.  At lambda = 0 an exact solve needs degree+1
    points, so a shorter cache is fitted at degree len(cache)-1 (the
    interpolant); with lambda > 0 the full degree is always solvable.  The
    solve itself waits until the state's coeffs are first read.
    """
    n = len(cache)
    new, factor = n, None
    if prior is not None and 0 < prior.factor.n_points < n:
        # Entries are only appended or evicted from the front, so the prior fit
        # covers the oldest of its n_points entries iff the newest is still at fitted_at.
        if cache.times(n - prior.factor.n_points + 1)[0] == prior.fitted_at:
            new, factor = n - prior.factor.n_points, prior.factor
    t, h = cache.latest()  # raises on an empty cache
    if new == 1:  # the streaming case: one row, no stacking
        rows, H = basis_row(config.degree, 2.0 * t - 1.0)[None], h[None]
    else:  # project_time, vectorized; basis_matrix checks the range
        rows, H = basis_matrix(config.degree, 2.0 * cache.times(new) - 1.0), cache.feature_stack(new)
    if factor is None:
        factor = RidgeFactor.empty(config.lam, config.degree + 1, H.shape[1])
    degree = config.degree if config.lam > 0.0 else min(config.degree, n - 1)
    return SpectralState(factor=fold_rows(factor, rows, H), degree=degree, fitted_at=t)


def spectral_weights(state: SpectralState, t: float) -> np.ndarray:
    """The w with R^T w = phi(2t-1) on the fit's triangle: the forecast at t is w @ Q^T H.

    One forward substitution on the (degree+1)-wide triangle, in floats.  w
    depends on the cached times alone, never on the features.
    """
    cols, _ = state.triangle
    w: list[float] = []
    for col, p in zip(cols, recurrence_row(state.degree, project_time(t))):
        for r, x in zip(col, w):  # stops at the end of w, before the diagonal
            p -= r * x
        w.append(p / col[-1])
    if not all(map(math.isfinite, w)):
        raise RidgeFitError("ridge forecast produced non-finite weights")
    return np.array(w)


def spectral_forecast(state: SpectralState, t: float) -> np.ndarray:
    """Evaluate the fitted series at timestep t: phi(2t-1) @ C, without forming C.

    C solves R C = Q^T H, so phi @ C = w @ Q^T H with R^T w = phi (see
    spectral_weights), then a single product with the F-wide Q^T H.  Both
    are backward-stable solves with the same R, so the forecast is as
    accurate as phi @ C.
    """
    return spectral_weights(state, t).dot(state.triangle[1])


class TaylorForecaster:
    """Local divided-difference extrapolation of configurable order; order 0 is naive reuse."""

    def __init__(self, order: int = 1, window: int | None = None):
        if order < 0:
            raise ValueError(f"expansion order must be >= 0, got {order}")
        self.order = int(order)
        self.cache = FeatureCache(capacity=window)
        self.fit_count = 0

    def observe(self, t: float, h) -> None:
        self.cache.insert(t, h)

    def predict(self, t: float) -> np.ndarray:
        if self.order == 0:  # as taylor_forecast does, minus the checks __init__ already made
            return naive_forecast(self.cache, t)
        return taylor_forecast(self.cache, t, self.order)


class SpectralForecaster:
    """Global Chebyshev ridge forecaster.

    observe only checks the time and caches the entry.  The first read of
    state after it folds every entry observed since into the previous fit's
    QR factor at once (see spectral_fit, which also caps the degree at
    lambda = 0), so a fit costs as many rows as were observed since, however
    deep the cache is.  fit_count counts the observed entries.
    """

    def __init__(self, config: SpectralConfig | None = None, window: int | None = None):
        self.config = config if config is not None else SpectralConfig()
        self.cache = FeatureCache(capacity=window)
        self.fit_count = 0
        self._state: SpectralState | None = None
        self._stale = False

    def observe(self, t: float, h) -> None:
        project_time(t)  # a time outside [0, 1] never reaches the cache
        self.cache.insert(t, h)
        self._stale = True
        self.fit_count += 1

    @property
    def state(self) -> SpectralState | None:
        """The fit to the whole cache, or None before the first observe."""
        if self._stale:
            self._state = spectral_fit(self.cache, self.config, self._state)
            self._stale = False
        return self._state

    def predict(self, t: float) -> np.ndarray:
        return spectral_forecast(self._fitted(), t)

    def weights(self, t: float) -> np.ndarray:
        """The w with predict(t) = w @ the leading len(w) rows of state.factor.qth."""
        return spectral_weights(self._fitted(), t)

    def _fitted(self) -> SpectralState:
        state = self.state
        if state is None:
            raise ValueError("spectral forecaster has no fitted state")
        return state
