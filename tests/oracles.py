"""Independent oracles used to pin expected values, and the stateful forecasting reference.

The brute-force oracles deliberately avoid the library's own solve paths:
linear systems go through hand-rolled Gaussian elimination, eigenvalues
through inertia-count bisection, and conditional expectations through
Monte-Carlo moment estimates.  solve_leading is the reference back
substitution for the ridge coefficients, which the library never forms;
ridge_fit, ridge_forecast and ridge_coefficients are the one fixture for a
fit made through the library's fold and forward substitution, with the
features' Q^T H carried beside the factor as a run carries it.

The stateful forecasters below (FeatureCache, TaylorForecaster,
SpectralForecaster and the functions they call) are the observe/predict
form of the three forecasters, kept as the reference the planned sampler is
checked against bitwise.  They share the library's basis and ridge layers,
and reference_plan plans a schedule by running them on unit feature
vectors.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from chebcast.basis import basis_matrix, basis_row, project_time
from chebcast.forecasters import spectral_weights
from chebcast.ridge import DEFAULT_LAMBDA, RidgeFactor, RidgeFitError, fold_rows, leading_triangle, rotate_features
from chebcast.plan import ForecastPlan, Stretch


def gauss_solve(a, b):
    """Solve a @ x = b by Gaussian elimination with partial pivoting."""
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    if b.ndim == 1:
        b = b[:, None]
    n = a.shape[0]
    aug = np.hstack([a, b])
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(aug[col:, col])))
        if abs(aug[pivot, col]) == 0.0:
            raise ZeroDivisionError("singular system")
        aug[[col, pivot]] = aug[[pivot, col]]
        aug[col] /= aug[col, col]
        for row in range(n):
            if row != col:
                aug[row] -= aug[row, col] * aug[col]
    return aug[:, n:]


def brute_ridge(rows, features, lam):
    """Ridge coefficients by explicit normal-equation elimination."""
    rows = np.asarray(rows, dtype=float)
    H = np.asarray(features, dtype=float)
    if H.ndim == 1:
        H = H[:, None]
    normal = rows.T @ rows + lam * np.eye(rows.shape[1])
    return gauss_solve(normal, rows.T @ H)


def solve_leading(qth, triangle):
    """The coefficients of the fit on the leading triangle of R, by back substitution on Q^T H's leading rows."""
    n_coef = len(triangle)
    coeffs = np.empty_like(qth[:n_coef])
    for i in range(n_coef - 1, -1, -1):
        coeffs[i] = (qth[i] - triangle[i, i + 1:] @ coeffs[i + 1:]) / triangle[i, i]
    if not np.isfinite(coeffs).all():
        raise RidgeFitError("ridge solve produced non-finite coefficients")
    return coeffs


def ridge_fit(taus, features, degree, lam):
    """The fit to features at the projected times taus: its Q^T H and triangle, as a plan and a run make them."""
    H = np.array(features, dtype=float)
    factor = fold_rows(RidgeFactor.empty(lam, degree + 1), basis_matrix(degree, taus))
    qth = rotate_features(factor.q, np.concatenate([np.zeros((degree + 1, H.shape[1])), H]))
    return qth, leading_triangle(factor, degree)


def ridge_forecast(qth, triangle, taus):
    """The fitted series at the projected times taus, one row each: w @ Q^T H with R^T w = phi(tau)."""
    return spectral_weights(triangle, basis_matrix(len(qth) - 1, taus)) @ qth[: len(triangle)]


def ridge_coefficients(qth, triangle):
    """The fit's coefficients C through the forecast path: row i is w @ Q^T H with R^T w = e_i."""
    return spectral_weights(triangle, np.eye(len(triangle))) @ qth[: len(triangle)]


def ridge_objective(phi, features, coeffs, lam):
    """||Phi C - H||_F^2 + lambda * ||C||_F^2."""
    H = np.asarray(features, dtype=float)
    if H.ndim == 1:
        H = H[:, None]
    C = np.asarray(coeffs, dtype=float)
    resid = phi @ C - H
    return float(np.sum(resid * resid) + lam * np.sum(C * C))


def _count_eigs_below(sym, x):
    """Number of eigenvalues of sym below x, from the LDL pivot signs."""
    a = np.array(sym, dtype=float) - x * np.eye(sym.shape[0])
    n = a.shape[0]
    count = 0
    for k in range(n):
        pivot = a[k, k]
        if pivot == 0.0:
            pivot = 1e-300
        if pivot < 0.0:
            count += 1
        for i in range(k + 1, n):
            factor = a[i, k] / pivot
            a[i, k:] -= factor * a[k, k:]
    return count


def smallest_eig_bisect(sym, tol=1e-12, max_iter=200):
    """Smallest eigenvalue of a symmetric matrix by inertia bisection."""
    sym = np.asarray(sym, dtype=float)
    bound = float(np.max(np.sum(np.abs(sym), axis=1)))  # Gershgorin
    lo, hi = -bound - 1.0, bound + 1.0
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if _count_eigs_below(sym, mid) >= 1:
            hi = mid
        else:
            lo = mid
        if hi - lo < tol * max(1.0, bound):
            break
    return 0.5 * (lo + hi)


def taylor_uniform_prediction(values, stride, steps_ahead, order):
    """Backward-difference Taylor form on a uniformly spaced history.

    values[-1] is the anchor; stride is the spacing of the history; the
    prediction extrapolates steps_ahead * stride past the anchor.
    """
    values = np.asarray(values, dtype=float)
    pred = values[-1].copy()
    diff = values.copy()
    fact = 1.0
    for p in range(1, order + 1):
        diff = diff[1:] - diff[:-1]
        fact *= p
        pred = pred + diff[-1] / fact * steps_ahead**p
    return pred


def mc_velocity_single_gaussian(mean, variance, x, t, n_samples=10**6, seed=0):
    """Monte-Carlo moment oracle for the single-Gaussian flow velocity.

    Simulates (noise, data) pairs, then applies per-dimension Gaussian
    conditioning with the estimated moments instead of the closed form.
    """
    mean = np.asarray(mean, dtype=float)
    std = np.sqrt(np.asarray(variance, dtype=float))
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((n_samples, mean.size))
    data = mean + std * rng.standard_normal((n_samples, mean.size))
    x_t = (1.0 - t) * noise + t * data
    dot = data - noise
    out = np.empty(mean.size)
    for d in range(mean.size):
        cov = np.cov(dot[:, d], x_t[:, d])[0, 1]
        var = np.var(x_t[:, d])
        out[d] = dot[:, d].mean() + cov / var * (x[d] - x_t[:, d].mean())
    return out


# --- the stateful forecasters ----------------------------------------------

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
    """A fit to the cache: the QR factor of every cached entry up to fitted_at, and the cache's Q^T H.

    The next fit to the same cache folds its new entries into factor and
    carries qth through that fold.  A forecast reads only triangle; coeffs
    is solved only when it is read.
    """

    factor: RidgeFactor
    qth: np.ndarray
    degree: int
    fitted_at: float

    @cached_property
    def coeffs(self) -> np.ndarray:
        """The (degree+1) x F coefficient matrix."""
        return solve_leading(*self.triangle)

    @cached_property
    def triangle(self) -> tuple[np.ndarray, np.ndarray]:
        """The rows of Q^T H that the leading triangle of R solves for, and that triangle."""
        triangle = leading_triangle(self.factor, self.degree)
        return self.qth[: len(triangle)], triangle


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
    new, factor, qth = n, None, None
    if prior is not None and 0 < prior.factor.n_points < n:
        # Entries are only appended or evicted from the front, so the prior fit
        # covers the oldest of its n_points entries iff the newest is still at fitted_at.
        if cache.times(n - prior.factor.n_points + 1)[0] == prior.fitted_at:
            new, factor, qth = n - prior.factor.n_points, prior.factor, prior.qth
    t = cache.latest()[0]  # raises on an empty cache
    # project_time, vectorized; basis_matrix checks the range
    rows, H = basis_matrix(config.degree, 2.0 * cache.times(new) - 1.0), cache.feature_stack(new)
    if factor is None:
        factor, qth = RidgeFactor.empty(config.lam, config.degree + 1), np.zeros((config.degree + 1, H.shape[1]))
    degree = config.degree if config.lam > 0.0 else min(config.degree, n - 1)
    factor = fold_rows(factor, rows)
    qth = rotate_features(factor.q, np.concatenate([qth, H]))
    return SpectralState(factor=factor, qth=qth, degree=degree, fitted_at=t)


def forecast_weights(triangle: np.ndarray, t: float) -> np.ndarray:
    """The w with R^T w = phi(2t-1): spectral_weights for the one forecast at t, checked as a plan checks it."""
    w = spectral_weights(triangle, basis_row(len(triangle) - 1, project_time(t))[None])[0]
    if not np.isfinite(w).all():
        raise RidgeFitError("forecast weights are non-finite")
    return w


def spectral_forecast(state: SpectralState, t: float) -> np.ndarray:
    """Evaluate the fitted series at timestep t: phi(2t-1) @ C, without forming C.

    C solves R C = Q^T H, so phi @ C = w @ Q^T H with R^T w = phi (see
    chebcast.forecasters.spectral_weights), then a single product with the
    F-wide Q^T H.
    """
    qth, triangle = state.triangle
    return forecast_weights(triangle, t).dot(qth)


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
        """The w with predict(t) = w @ the leading len(w) rows of state.qth."""
        return forecast_weights(self._fitted().triangle[1], t)

    def _fitted(self) -> SpectralState:
        state = self.state
        if state is None:
            raise ValueError("spectral forecaster has no fitted state")
        return state


# --- the planning reference ----------------------------------------------


def _make_forecaster(choice):
    if choice.kind in ("naive", "taylor"):
        order = choice.order if choice.kind == "taylor" else 0  # naive reuse is Taylor order 0
        return TaylorForecaster(order=order, window=choice.window)
    if choice.kind == "spectrum":
        return SpectralForecaster(SpectralConfig(choice.degree, choice.lam), window=choice.window)
    return None


def _stretch(rows, hi, stop, factor):
    """The stretch of the weight rows that ends before step stop, trimmed to its nonzero columns [lo, hi).

    factor, the spectral fit the rows were solved on, makes a stretch over
    the passes its fold took in.
    """
    if factor is not None:
        folded = factor.q.shape[0] - factor.q.shape[1]
        return Stretch(stop - len(rows), stop, hi - folded, hi, np.array(rows), factor.q, factor.n_points == folded)
    weights = np.array(rows)[:, :hi]
    used = np.flatnonzero(weights.any(axis=0))
    lo = int(used[0]) if used.size else hi
    return Stretch(stop - len(rows), stop, lo, hi, np.ascontiguousarray(weights[:, lo:]))


def forecast_refused(kind, step, t, err):
    """The error a config with a forecast that cannot be made is refused with, naming the step and time."""
    return ValueError(f"the {kind} forecast at step {step} (t={t:g}) cannot be made: {err}")


def reference_plan(schedule, choice):
    """Run the choice's stateful forecaster once along the schedule on unit feature vectors.

    Each forecaster is linear in its cached features, so observing the unit
    vector e_k at the k-th pass makes each prediction that step's weight
    row.  The spectral forecaster observes empty features instead: its fits'
    folds and forecast weights w depend on the times alone.  This is the
    plan chebcast.plan.plan_forecasts computes from the times; it holds
    NFE unit vectors of length NFE.  A forecast the forecaster cannot make
    refuses the schedule, as forecast_refused.  The pass store is laid out
    from the stretches' reads alone, through the plan's own laid_out; the
    layout is pinned apart, by replaying it on pass indices.
    """
    n = schedule.n_steps
    dt = 1.0 / n
    times = np.arange(n) * dt
    increments = (times + dt) - times
    increments[-1] = 1.0 - times[-1]
    forecaster = _make_forecaster(choice)
    if forecaster is None:
        return ForecastPlan.laid_out(times, increments, ("actual",) * n, [], 0)

    nfe = schedule.nfe
    spectral = isinstance(forecaster, SpectralForecaster)
    flags, stretches, rows, k = [], [], [], 0
    for j, t in enumerate(times.tolist()):
        if schedule.is_full_pass(j + 1):
            if rows:
                stretches.append(_stretch(rows, k, j, forecaster.state.factor if spectral else None))
                rows = []
            unit = np.zeros(0 if spectral else nfe)  # a spectral fit needs no features, only their times
            if not spectral:
                unit[k] = 1.0
            forecaster.observe(t, unit)
            k += 1
            flags.append("actual")
            continue
        try:
            row = forecaster.weights(t) if spectral else forecaster.predict(t)
            if not np.isfinite(row).all():
                raise RidgeFitError("forecast weights are non-finite")
        except (ValueError, RidgeFitError) as err:  # a cache too short for the order, or no unique fit
            raise forecast_refused(choice.kind, j + 1, t, err) from err
        rows.append(row)
        flags.append("forecast")
    if rows:
        stretches.append(_stretch(rows, k, len(flags), forecaster.state.factor if spectral else None))
    n_coef = choice.degree + 1 if spectral else 0
    return ForecastPlan.laid_out(times, increments, tuple(flags), stretches, n_coef)
