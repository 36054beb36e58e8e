"""Feature cache and the three forecasters: naive reuse, Taylor, spectral.

A forecaster turns the cache of (timestep, feature vector) pairs recorded at
actual denoiser passes into a prediction at a future timestep.  Naive reuse
copies the newest entry; the Taylor forecaster extrapolates a local
polynomial built from divided differences of the most recent entries; the
spectral forecaster fits global Chebyshev coefficients by ridge regression
and evaluates the fitted series.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import basis_matrix, basis_row, project_time
from .ridge import DEFAULT_LAMBDA, CoefficientMatrix, DesignMatrix, solve_ridge

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
        if int(self.degree) < 0:
            raise ValueError(f"basis degree must be >= 0, got {self.degree}")
        if float(self.lam) < 0.0:
            raise ValueError(f"regularization strength must be >= 0, got {self.lam}")


@dataclass(frozen=True)
class SpectralState:
    """Fitted coefficients carried between sampler steps.

    coeffs.factor is the QR state of the fit, which the next fit to the same
    cache extends instead of refactoring every cached entry.
    """

    coeffs: CoefficientMatrix
    fitted_at: float
    n_points: int


def spectral_fit(
    cache: FeatureCache, config: SpectralConfig, prior: SpectralState | None = None
) -> SpectralState:
    """Fit Chebyshev coefficients to the whole cache by ridge regression.

    prior, an earlier fit to this cache, lets only the entries inserted since
    be folded into its factor; after a window eviction, or without prior, the
    whole cache is fitted.  At lambda = 0 an exact solve needs degree+1
    points, so a shorter cache is fitted at degree len(cache)-1 (the
    interpolant); with lambda > 0 the full degree is always solvable.
    """
    n = len(cache)
    if n == 0:
        raise ValueError("cannot fit spectral coefficients on an empty cache")
    new = n
    if prior is not None and prior.coeffs.factor is not None and 0 < prior.n_points < n:
        # Entries are only appended or evicted from the front, so the prior
        # fit covers the oldest prior.n_points entries iff the last of them
        # is still the one it was fitted at.
        if cache.times(n - prior.n_points + 1)[0] == prior.fitted_at:
            new = n - prior.n_points
    factor = prior.coeffs.factor if new < n else None
    times = cache.times(new)
    taus = 2.0 * times - 1.0  # project_time, vectorized; basis_matrix checks the range
    phi = DesignMatrix(rows=basis_matrix(config.degree, taus), cached_taus=taus)
    degree = config.degree if config.lam > 0.0 else min(config.degree, n - 1)
    coeffs = solve_ridge(phi, cache.feature_stack(new), config.lam, prior=factor, degree=degree)
    return SpectralState(coeffs=coeffs, fitted_at=float(times[-1]), n_points=n)


def spectral_forecast(state: SpectralState, t: float) -> np.ndarray:
    """Evaluate the fitted series at timestep t: phi(2t-1) @ C."""
    if state is None:
        raise ValueError("spectral forecaster has no fitted state")
    row = basis_row(state.coeffs.degree, project_time(t))
    return row @ state.coeffs.coeffs


class NaiveForecaster:
    """Reuse-latest forecaster behind the common observe/predict contract."""

    name = "naive"

    def __init__(self, window: int | None = None):
        self.cache = FeatureCache(capacity=window)
        self.fit_count = 0

    def observe(self, t: float, h) -> None:
        self.cache.insert(t, h)

    def predict(self, t: float) -> np.ndarray:
        return naive_forecast(self.cache, t)


class TaylorForecaster:
    """Local divided-difference extrapolation of configurable order."""

    name = "taylor"

    def __init__(self, order: int = 1, window: int | None = None):
        if order < 0:
            raise ValueError(f"expansion order must be >= 0, got {order}")
        self.order = int(order)
        self.cache = FeatureCache(capacity=window)
        self.fit_count = 0

    def observe(self, t: float, h) -> None:
        self.cache.insert(t, h)

    def predict(self, t: float) -> np.ndarray:
        return taylor_forecast(self.cache, t, self.order)


class SpectralForecaster:
    """Global Chebyshev ridge forecaster; refits after every observation.

    Each refit folds the new entry into the previous fit's QR factor, so an
    observation costs the same however deep the cache is.  At lambda = 0 the
    fit degree is capped at len(cache)-1 until the cache is deep enough (see
    spectral_fit).
    """

    name = "spectral"

    def __init__(self, config: SpectralConfig | None = None, window: int | None = None):
        self.config = config if config is not None else SpectralConfig()
        self.cache = FeatureCache(capacity=window)
        self.state: SpectralState | None = None
        self.fit_count = 0

    def observe(self, t: float, h) -> None:
        self.cache.insert(t, h)
        self.state = spectral_fit(self.cache, self.config, self.state)
        self.fit_count += 1

    def predict(self, t: float) -> np.ndarray:
        if self.state is None:
            raise ValueError("spectral forecaster has no fitted state")
        return spectral_forecast(self.state, t)
