"""Analytic synthetic denoisers and the step-skipping ODE sampler.

Three denoiser families act as ground-truth oracles at desk scale:

* gaussian_mixture_flow -- the exact velocity field of a rectified-flow path
  x_t = (1-t)*noise + t*data with data drawn from a Gaussian mixture.  The
  drift has a closed form (posterior-weighted affine per-component fields),
  so a full-pass run is an exact reference up to solver discretization.
* function_family -- feature channels are named analytic functions of t,
  independent of the state; useful for exactness and bound checks.
* block_stack -- a stack of smooth residual blocks (fixed random rotation
  plus a tanh nonlinearity) over a polynomial base feature, for comparing
  last-block against per-block caching.  Per-block caching forecasts every
  block's residual y_b - y_(b-1) through one shared fit and adds back the
  base, which needs no network pass.

In every family the score fed to the solver is the last-block feature
itself, and one sampler run is strictly sequential.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_right
from dataclasses import dataclass, field, fields
from functools import lru_cache

import numpy as np

from .basis import _count, _real, basis_matrix
from .forecasters import spectral_weights, taylor_weights
from .ridge import DEFAULT_LAMBDA, RidgeFactor, RidgeFitError, fold_rows, leading_triangle
from .schedule import ActivationSchedule, ScheduleParams, adaptive_schedule, uniform_schedule

FORECASTER_KINDS = ("oracle", "naive", "taylor", "spectrum")
CACHE_SCOPES = ("last_block", "per_block")


class SamplerError(RuntimeError):
    """A non-finite feature at an actual pass of a sampling run, annotated with the run's kind and the step."""


def _finite(values, what: str) -> None:
    """Refuse a non-number, a NaN or an infinity among values (a number or an array of them), naming what they are."""
    array = np.asarray(values)
    if array.dtype.kind not in "iuf":  # a bool, a string or any other object would be converted or fail to compare
        raise ValueError(f"{what} must be numbers, got {values!r}")
    finite = np.isfinite(array)
    if not finite.all():
        raise ValueError(f"{what} must be finite, got {float(array[~finite].flat[0])}")


# ---------------------------------------------------------------------------
# Denoiser specs
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GaussianMixtureFlow:
    """Rectified-flow velocity oracle for a diagonal Gaussian mixture target."""

    weights: tuple[float, ...]
    means: np.ndarray      # (n_components, dim)
    variances: np.ndarray  # (n_components, dim), strictly positive
    seed: int = 0
    _log_weights: np.ndarray = field(init=False, repr=False, compare=False)

    kind = "gaussian_mixture_flow"

    def __post_init__(self):
        for values, what in ((self.weights, "mixture weights"), (self.means, "mixture means"),
                             (self.variances, "mixture variances")):
            _finite(values, what)  # before the conversions to float, which would take a string for a number
        means = np.atleast_2d(np.asarray(self.means, dtype=float))
        variances = np.asarray(self.variances, dtype=float)
        if variances.ndim == 1:
            variances = np.repeat(variances[:, None], means.shape[1], axis=1)
        variances = np.atleast_2d(variances)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "variances", variances)
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        object.__setattr__(self, "seed", _count(self.seed, "seed"))
        w = np.asarray(self.weights)
        if w.ndim != 1 or w.size != means.shape[0] or variances.shape != means.shape:
            raise ValueError("weights, means and variances must agree on component count")
        if np.any(w < 0.0) or abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("mixture weights must be non-negative and sum to 1")
        if np.any(variances <= 0.0):
            raise ValueError("mixture variances must be strictly positive")
        # A zero weight becomes -inf, so its component gets zero responsibility.
        with np.errstate(divide="ignore"):
            object.__setattr__(self, "_log_weights", np.log(w))

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def velocity(self, x: np.ndarray, t: float) -> np.ndarray:
        """Marginal flow velocity E[data - noise | x_t = x], in closed form.

        Per component the interpolant marginal is N(t*mu, ((1-t)^2 + t^2 s^2) I)
        diagonally, the conditional velocity is affine in x, and components are
        combined by their posterior responsibilities at (x, t).
        """
        x = np.asarray(x, dtype=float)
        s2 = (1.0 - t) ** 2 + t * t * self.variances          # (C, D)
        centered = x[None, :] - t * self.means                # (C, D)
        log_resp = self._log_weights - 0.5 * np.sum(
            centered * centered / s2 + np.log(2.0 * np.pi * s2), axis=1
        )
        log_resp -= log_resp.max()
        resp = np.exp(log_resp)
        resp /= resp.sum()
        v_comp = self.means + (t * self.variances - (1.0 - t)) * centered / s2
        return resp @ v_comp


class _FiniteParams:
    """A channel whose every parameter is refused at construction if NaN or infinite."""

    def __post_init__(self):
        for f in fields(self):
            _finite(getattr(self, f.name), f"channel {f.name}")


@dataclass(frozen=True)
class PolynomialChannel(_FiniteParams):
    coefficients: tuple[float, ...]  # ascending powers of t

    def __call__(self, t: float) -> float:
        acc = 0.0
        for c in reversed(self.coefficients):
            acc = acc * t + c
        return acc


@dataclass(frozen=True)
class SineChannel(_FiniteParams):
    amplitude: float = 1.0
    frequency: float = 1.0  # cycles over t in [0, 1]
    phase: float = 0.0

    def __call__(self, t: float) -> float:
        return self.amplitude * np.sin(2.0 * np.pi * self.frequency * t + self.phase)


@dataclass(frozen=True)
class ExponentialChannel(_FiniteParams):
    scale: float = 1.0
    rate: float = 1.0

    def __call__(self, t: float) -> float:
        return self.scale * np.exp(self.rate * t)


Channel = PolynomialChannel | SineChannel | ExponentialChannel


@dataclass(frozen=True)
class FunctionFamily:
    """Feature channels are analytic functions of t; the state is ignored."""

    channels: tuple[Channel, ...]
    seed: int = 0

    kind = "function_family"

    def __post_init__(self):
        object.__setattr__(self, "channels", tuple(self.channels))
        object.__setattr__(self, "seed", _count(self.seed, "seed"))
        if not self.channels:
            raise ValueError("function family needs at least one channel")

    @property
    def dim(self) -> int:
        return len(self.channels)

    def features(self, t: float) -> np.ndarray:
        return np.asarray([ch(t) for ch in self.channels], dtype=float)


@dataclass(frozen=True, eq=False)
class BlockStack:
    """Smooth residual blocks over a cubic-polynomial base feature.

    Block b maps y -> y + gain * tanh(R_b @ y) with a rotation R_b fixed at
    construction from the seed, so the stack output is a deterministic smooth
    function of t.  mixing="identity" replaces every R_b with the identity.
    """

    n_blocks: int = 4
    width: int = 32
    gain: float = 0.5
    mixing: str = "rotation"
    seed: int = 0
    _rotations: tuple = field(init=False, repr=False, compare=False)
    _base_coeffs: np.ndarray = field(init=False, repr=False, compare=False)

    kind = "block_stack"

    def __post_init__(self):
        object.__setattr__(self, "n_blocks", _count(self.n_blocks, "block count", least=1))
        object.__setattr__(self, "width", _count(self.width, "feature width", least=1))
        gain = _real(self.gain, "nonlinearity gain")  # a bool too: it dumps as true, which a config refuses
        if not (math.isfinite(gain) and gain >= 0.0):
            raise ValueError(f"nonlinearity gain must be finite and >= 0, got {self.gain}")
        object.__setattr__(self, "seed", _count(self.seed, "seed"))
        if self.mixing not in ("rotation", "identity"):
            raise ValueError(f"mixing must be 'rotation' or 'identity', got {self.mixing!r}")
        rng = np.random.default_rng(self.seed)
        # Cubic base per channel, mildly damped high coefficients.
        coeffs = rng.normal(size=(self.width, 4)) * np.array([0.8, 0.8, 0.4, 0.2])
        rotations = []
        for _ in range(self.n_blocks):
            if self.mixing == "identity":
                rotations.append(np.eye(self.width))
            else:
                q, r = np.linalg.qr(rng.normal(size=(self.width, self.width)))
                rotations.append(q * np.sign(np.diag(r)))
        object.__setattr__(self, "_rotations", tuple(rotations))
        object.__setattr__(self, "_base_coeffs", coeffs)

    @property
    def dim(self) -> int:
        return self.width

    def base_feature(self, t: float) -> np.ndarray:
        powers = np.array([1.0, t, t * t, t * t * t])
        return self._base_coeffs @ powers

    def base_features(self, ts: np.ndarray, out: np.ndarray) -> np.ndarray:
        """base_feature(t) for every t of ts, written into the rows of out, a (len(ts), width) array.

        One stacked product makes them all: numpy hands each (width, 4) @
        (4, 1) slice to the same matrix-vector product as base_feature, so
        each row is bitwise its base_feature.  The powers are rows of one
        C-contiguous array for that; over a transposed one it is not.
        """
        powers = np.empty((len(ts), 4))
        powers[:, 0] = 1.0
        powers[:, 1] = ts
        np.multiply(ts, ts, out=powers[:, 2])
        np.multiply(powers[:, 2], ts, out=powers[:, 3])
        np.matmul(self._base_coeffs, powers[:, :, None], out=out[:, :, None])
        return out

    def stage_outputs(self, t: float, base: np.ndarray | None = None) -> np.ndarray:
        """The (n_blocks + 1, width) array of rows y_0, y_1, ..., y_B: y_0 the base feature, y_B the output.

        base, when given, is y_0 made already: bitwise base_feature(t), as
        each row of base_features is.
        """
        stages = np.empty((self.n_blocks + 1, self.width))
        y = stages[0] = self.base_feature(t) if base is None else base
        for b, rot in enumerate(self._rotations, start=1):
            y = stages[b] = y + self.gain * np.tanh(rot @ y)
        return stages

    def features(self, t: float) -> np.ndarray:
        return self.stage_outputs(t)[-1]


DenoiserSpec = GaussianMixtureFlow | FunctionFamily | BlockStack


def evaluate_denoiser(spec: DenoiserSpec, x: np.ndarray, t: float) -> np.ndarray:
    """One actual pass: the feature vector h.

    The score map on the last-block feature is the identity in every family,
    so h is also the score fed to the solver; for the mixture flow h is the
    closed-form velocity.
    """
    if not (0.0 <= t <= 1.0):
        raise ValueError(f"timestep must lie in [0, 1], got {t}")
    if isinstance(spec, GaussianMixtureFlow):
        x = np.asarray(x, dtype=float)
        if x.shape != (spec.dim,):
            raise ValueError(f"state must have shape ({spec.dim},), got {x.shape}")
        h = spec.velocity(x, t)
    else:
        h = spec.features(t)
    return h


# ---------------------------------------------------------------------------
# Sampler
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ForecasterChoice:
    """Which forecaster replaces skipped passes, plus its hyperparameters."""

    kind: str
    order: int = 1
    degree: int = 4
    lam: float = DEFAULT_LAMBDA
    window: int | None = None
    cache_scope: str = "last_block"

    def __post_init__(self):
        if self.kind not in FORECASTER_KINDS:
            raise ValueError(f"forecaster kind must be one of {FORECASTER_KINDS}, got {self.kind!r}")
        if self.cache_scope not in CACHE_SCOPES:
            raise ValueError(f"cache scope must be one of {CACHE_SCOPES}, got {self.cache_scope!r}")
        if self.cache_scope == "per_block" and self.kind != "spectrum":
            raise ValueError("per-block caching is only implemented for the spectral forecaster")
        order, degree = _count(self.order, "taylor order"), _count(self.degree, "basis degree")
        lam = _real(self.lam, "regularization strength")
        if not (math.isfinite(lam) and lam >= 0.0):
            raise ValueError(f"regularization strength must be finite and >= 0, got {lam}")
        window = None if self.window is None else _count(self.window, "cache window", least=1)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "window", window)


@dataclass(frozen=True, eq=False)
class Stretch:
    """Skipped steps start..stop-1 (0-based): their features are weights @ passes[lo:hi].

    A run reads passes lo..hi-1 in place, in the pass rows of its store
    (ForecastPlan): at their first hi - lo rows, directly under every
    block's Q^T H.  A Taylor or naive stretch weighs the newest order+1
    passes.  A spectral stretch (fold set) instead folds passes[lo:hi] into
    the fit's Q^T H with fold, the orthonormal factor of the fit's QR
    update, starting from zeros when fresh and else from the previous
    spectral stretch's Q^T H.  Each of its features is its row of weights,
    the forecast's w, times the leading rows of that Q^T H: w @ Q^T H for
    each step and block, as the spectral forecast is defined, though a run
    makes them all in one stacked product.

    The stretch also carries the operands a run takes, so that a run
    derives none of them: reads, the store rows it reads (n_coef + hi - lo),
    and, as views of its own arrays or of its plan's, the fold's transpose
    fold_t and w, the weights in the (stop - start, 1, 1, m) shape of the
    stacked forecast, for a spectral stretch, and increments, the Euler
    increments of step start - 1, the pass before it, and of its own steps,
    as a column, which ForecastPlan.laid_out sets: a run takes that pass's
    Euler step in the stretch's running sum.
    """

    start: int
    stop: int
    lo: int
    hi: int
    weights: np.ndarray  # (stop - start, hi - lo), or (stop - start, m <= n_coef) with a fold
    fold: np.ndarray | None = None  # (n_coef + hi - lo, n_coef)
    fresh: bool = False
    reads: int = field(init=False)
    fold_t: np.ndarray | None = field(init=False)
    w: np.ndarray | None = field(init=False)
    increments: np.ndarray | None = field(init=False, default=None)  # (stop - start + 1, 1), from step start - 1

    def __post_init__(self):
        spectral = self.fold is not None
        object.__setattr__(self, "reads", self.fold.shape[0] if spectral else self.hi - self.lo)
        object.__setattr__(self, "fold_t", self.fold.T if spectral else None)
        object.__setattr__(self, "w", self.weights[:, None, None, :] if spectral else None)


Moves = tuple[tuple[slice, slice], ...]  # (source, destination) row slices of the pass store, copied in order


def _lay_out(stretches: list[Stretch], nfe: int, n_coef: int) -> tuple[tuple[int, ...], dict[int, Moves], int]:
    """The store row of each pass, the moves after each stretch that makes any, and the store's pass rows.

    A pass is written where the first stretch to read it reads it; one that
    no stretch reads, at the first pass row, which no pass a stretch reads
    holds when it is written.  After a stretch, the passes it read that a
    later stretch reads again move.  They slide down under the next stretch
    if it reads them: Taylor's newest order passes, and a window's passes
    after its first eviction.  Else they are parked, in pass order, in the
    rows after the most any stretch reads, until a stretch reads them: a
    window's passes before its first eviction, all folded afresh then.  A
    plan whose passes are each read once (spectral without a window) makes
    no moves.
    """
    last = [-1] * nfe  # the last stretch to read each pass, ascending over each stretch's passes
    for i, s in enumerate(stretches):
        last[s.lo:s.hi] = [i] * (s.hi - s.lo)
    rows = [n_coef] * nfe
    park = n_coef + max([1] + [s.hi - s.lo for s in stretches])  # the first row of the parked passes
    end, parked, written, moves = park, None, 0, {}  # parked: the first parked pass, or None
    for i, s in enumerate(stretches):
        new = max(s.lo, written)  # the passes written since the last stretch that this one reads
        rows[new:s.hi] = range(new + n_coef - s.lo, s.hi + n_coef - s.lo)
        written = s.hi
        after = stretches[i + 1].lo if i + 1 < len(stretches) else nfe  # the first pass the next stretch reads
        kept = bisect_right(last, i, s.lo, s.hi)  # the first pass a later stretch reads again
        copies = []
        if kept < s.hi:
            if parked is None and kept < after:
                parked = kept
            # parked after the others, or slid down under the next stretch, which reads them
            at = park + kept - parked if parked is not None and parked < after else n_coef + kept - after
            copies.append((slice(n_coef + kept - s.lo, n_coef + s.hi - s.lo), slice(at, at + s.hi - kept)))
            end = max(end, at + s.hi - kept)
        if parked is not None and parked >= after:  # the next stretch reads the parked passes too
            copies.append((slice(park, park + s.lo - parked), slice(n_coef + parked - after, n_coef + s.lo - after)))
            parked = None
        if copies:
            moves[s.start] = tuple(copies)
    return tuple(rows), moves, end - n_coef


@dataclass(frozen=True, eq=False)
class ForecastPlan:
    """Every forecast of one schedule and forecaster, as weights over the cached passes.

    Each forecaster is linear in its cached features, with weights fixed by
    the step times and its hyperparameters alone, so the plan is computed
    from the times: for each stretch, taylor_weights for its Taylor or
    naive forecasts, or the spectral fit's fold and its forecasts' w, which
    need no features at all.  A plan is always complete: plan_forecasts
    refuses a schedule with a forecast it cannot make.

    The plan also lays out the run's pass store, one (n_blocks, n_coef +
    n_rows, width) array: every block's Q^T H in its first n_coef rows (none
    but for the spectral kind), then the pass rows.  The k-th pass
    (0-based) is written once, at row pass_rows[k], and each stretch reads
    its passes in place (see Stretch).  After the stretch that starts at
    step j, a run copies the row slices moves[j], in order: they carry the
    passes a later stretch reads again to where it reads them (_lay_out).
    Each stretch carries the operands a run takes with it, as views of its
    own arrays and of the plan's increments, so a run derives none; the
    passes read their times from step_times, Python floats made once here.
    """

    times: np.ndarray       # (N,) t_j = (j-1)/N
    increments: np.ndarray  # (N,) Euler step lengths: (t_j + 1/N) - t_j, and 1 - t_N at the last step
    step_times: tuple[float, ...]  # (N,) the times as Python floats, each bitwise its entry of times
    flags: tuple[str, ...]
    stretches: dict[int, Stretch]  # keyed by their first step
    n_coef: int  # rows of Q^T H above the passes: degree + 1 for the spectral kind, else 0
    pass_rows: tuple[int, ...]  # (NFE,) the store row each pass is written at
    moves: dict[int, Moves]  # keyed by the first step of the stretch they follow, if it moves any pass
    n_rows: int  # pass rows of the store: the most a stretch reads, then any parked passes; at least 1
    lengths: tuple[int, ...]  # the distinct stretch lengths, ascending
    widths: tuple[int, ...]  # the distinct leading rows m of Q^T H that a spectral stretch's w weighs, ascending

    @classmethod
    def laid_out(cls, times, increments, flags, stretches: list[Stretch], n_coef: int) -> ForecastPlan:
        """The plan of these stretches, in step order, with the pass store laid out for them (_lay_out).

        Each stretch takes its column of the increments here, a view of them
        from the pass before it (every stretch follows a pass) to its last
        step, and the plan the distinct shapes of its stretches' operands,
        for which a run makes the views of its own arrays that stretches
        share.  The step times are made Python floats here, once a plan,
        where a run would make them on every call.
        """
        pass_rows, moves, n_rows = _lay_out(stretches, flags.count("actual"), n_coef)
        for s in stretches:
            object.__setattr__(s, "increments", increments[s.start - 1:s.stop, None])
        lengths = sorted({s.stop - s.start for s in stretches})
        widths = sorted({s.weights.shape[1] for s in stretches if s.fold is not None})
        return cls(times, increments, tuple(times.tolist()), flags, {s.start: s for s in stretches}, n_coef,
                   pass_rows, moves, n_rows, tuple(lengths), tuple(widths))


def plan_forecasts(schedule: ActivationSchedule, choice: ForecasterChoice) -> ForecastPlan:
    """Compute the weights of every forecast of the schedule from the step times, a stretch at a time.

    A Taylor or naive stretch is one taylor_weights call over the newest
    order+1 passes.  A spectral stretch first folds the basis rows of the
    passes new since the last stretch into the fit (the whole window
    afresh after an eviction), then takes its forecasts' w from one
    spectral_weights call on the fit's leading triangle; the basis rows
    come from one basis_matrix over all the step times, and a run carries
    the passes through those folds itself.  The oracle kind marks every
    step actual regardless of the schedule.  A forecast that cannot be made
    (a cache too short for the order, or no unique fit) raises ValueError,
    naming its step and time.
    """
    n = schedule.n_steps
    dt = 1.0 / n
    times = np.arange(n) * dt
    increments = (times + dt) - times
    increments[-1] = 1.0 - times[-1]
    if choice.kind == "oracle":
        return ForecastPlan.laid_out(times, increments, ("actual",) * n, [], 0)
    spectral = choice.kind == "spectrum"
    order = choice.order if choice.kind == "taylor" else 0  # naive reuse is Taylor order 0
    window = choice.window or n
    passes = schedule.full_pass_indices  # 1-based, so each is also the 0-based step after it
    flags = ["forecast"] * n
    for j in passes:
        flags[j - 1] = "actual"
    steps = np.array(passes) - 1
    if spectral:  # project_time, vectorized; basis_matrix checks the range
        phi = basis_matrix(choice.degree, 2.0 * times - 1.0)
        pass_phi, fit = phi[steps], None
    else:
        pass_times = times[steps]
    stretches = []
    for k, (start, stop) in enumerate(zip(passes, [j - 1 for j in passes[1:]] + [n]), start=1):
        if start == stop:
            continue
        try:
            if spectral:
                if fit is None or k > window:  # fold the whole window afresh, from the prior rows alone
                    fit = RidgeFactor.empty(choice.lam, choice.degree + 1)
                new = min(k, window) - fit.n_points
                fit = fold_rows(fit, pass_phi[k - new:k])
                weights = spectral_weights(leading_triangle(fit, choice.degree), phi[start:stop])
                stretch = Stretch(start, stop, k - new, k, weights, fit.q, fit.n_points == new)
            else:
                weights = taylor_weights(pass_times[max(0, k - min(window, order + 1)):k], times[start:stop], order)
                stretch = Stretch(start, stop, k - order - 1, k, weights)
            if not np.isfinite(weights).all():
                start += int(np.isfinite(weights).all(axis=1).argmin())  # the first forecast that cannot be made
                raise RidgeFitError("forecast weights are non-finite")
        except (ValueError, RidgeFitError) as err:  # a cache too short for the order, or no unique fit
            raise ValueError(f"the {choice.kind} forecast at step {start + 1} (t={times[start]:g}) "
                             f"cannot be made: {err}") from err
        stretches.append(stretch)
    return ForecastPlan.laid_out(times, increments, tuple(flags), stretches, choice.degree + 1 if spectral else 0)


@dataclass(frozen=True)
class SolverConfig:
    """A schedule and a forecaster choice, with every forecast planned once at construction.

    The plan holds, for each stretch of skipped steps, the weights that turn
    the cached passes into its features (for the spectral forecaster, the
    fit's fold and each forecast's w); it derives from the two fields alone,
    so it takes no part in equality, hashing or repr.  A forecast the plan
    cannot make refuses the config here, before any pass (see plan_forecasts).
    """

    schedule: ActivationSchedule
    forecaster: ForecasterChoice
    plan: ForecastPlan = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "plan", plan_forecasts(self.schedule, self.forecaster))

    @property
    def n_steps(self) -> int:
        return self.schedule.n_steps


@dataclass(frozen=True, eq=False)
class TrajectoryRecord:
    """Everything one sampling run produced, step by step."""

    times: np.ndarray       # (N,) evaluation time of each step
    states: np.ndarray      # (N, D) state after each step
    features: np.ndarray    # (N, F) feature used at each step
    flags: tuple[str, ...]  # "actual" | "forecast"
    # Actual passes the spectral fit takes in, each one row of a fit: the
    # schedule's NFE (0 for the other kinds).  Their QR folds are made when
    # the config is planned, never during a run.  Per-block caching counts
    # n_blocks per pass: every block's residual is carried through the one
    # shared fold, since all share one design and lambda.
    fit_count: int
    wall_time: float

    @property
    def n_steps(self) -> int:
        return self.states.shape[0]

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


def sample_initial_latent(dim: int, seed: int) -> np.ndarray:
    """Seeded standard-normal initial state."""
    dim, seed = _count(dim, "latent dimension", least=1), _count(seed, "seed")
    return np.random.default_rng(seed).standard_normal(dim)


def run_sampler(spec: DenoiserSpec, config: SolverConfig, x0: np.ndarray) -> TrajectoryRecord:
    """Iterate the schedule over t in [0, 1), forecasting on skipped steps.

    Step j (1-based) evaluates the drift at t_j = (j-1)/N and advances the
    state to t_j + 1/N.  The run walks config.plan: an actual step evaluates
    the denoiser, at the step time the plan holds as a Python float, writes
    its feature once into the pass store, at the row the plan laid out for it,
    and takes the Euler step, unless a stretch follows it; a stretch of
    skipped steps is one product of its planned weights with its passes, read
    in place from the store.  Its states, and the state of the pass before it,
    are one running sum of its planned Euler increments times their features,
    made in place in the states from the state before that pass: the stepwise
    run's multiplies and adds, in its order.  A one-step stretch adds twice, a
    longer one accumulates from the row above the pass (after the first pass,
    from no row: it adds the initial latent first).  After it, the stretch's
    planned slice moves carry the passes a later stretch reads again.  A
    spectral stretch writes only into arrays made once a run, and makes no
    numpy call a step: one stacked product through the planned fold of its
    passes under every block's carried Q^T H writes the new Q^T H over the old
    (numpy buffers that overlap), and one stacked product forecasts every step
    and block as w @ Q^T H.  Each slice of either is its own 2-D product over
    a C-contiguous operand, so the run matches observe/predict bitwise.  The
    plan carries each stretch's operands (see Stretch), and the views of the
    run's own arrays that stretches share are made once, before the loop, so a
    stretch costs its numpy calls and derives no view of its own.  The oracle
    kind's plan makes every step an actual pass, the reference trajectory for
    RMSE comparisons.  A non-finite initial latent is a ValueError; a
    non-finite feature at any actual pass, the oracle's included, raises
    SamplerError naming the run's kind, the step and its time.

    Last-block caching writes each pass's output feature h into its store
    row.  Per-block caching (block_stack only) writes every block's residual
    y_b - y_(b-1) there instead, and forecasts base(t) plus their
    forecasts: every step's base feature is written into the features once,
    before the loop, where an actual pass starts its stages from it and a
    stretch adds its blocks' forecasts to its rows one block at a time, in
    block order.  Every block shares one design and lambda, so one plan
    serves them all, and the base feature needs no network pass.
    """
    started = time.perf_counter()
    plan = config.plan
    _finite(x0, "initial latent")
    x = np.asarray(x0, dtype=float).copy()
    if x.shape != (spec.dim,):
        raise ValueError(f"initial latent must have shape ({spec.dim},), got {x.shape}")
    per_block = config.forecaster.cache_scope == "per_block"
    if per_block and not isinstance(spec, BlockStack):
        raise ValueError("per-block caching requires a block_stack denoiser")
    n_blocks = spec.n_blocks if per_block else 1

    n = config.n_steps
    times, increments = plan.step_times, plan.increments
    stretches, pass_rows, moves, n_coef = plan.stretches, plan.pass_rows, plan.moves, plan.n_coef
    states = np.empty((n, spec.dim))
    features = np.empty((n, spec.dim))
    # every block's [Q^T H; passes], a C-contiguous slice each; numpy buffers the fold's overlap with it
    store = np.empty((n_blocks, n_coef + plan.n_rows, spec.dim))
    qth, store_rows = store[:, :n_coef], store.swapaxes(0, 1)  # store_rows[r]: row r of every block
    # the views stretches share, made once: the leading m rows of every block's Q^T H for each m a w weighs,
    # and the forecasts' outputs, per step and block for per-block caching, else the features as (N, 1, 1, dim)
    leading = {m: qth[None, :, :m] for m in plan.widths}
    if per_block:
        terms = np.empty((max(plan.lengths, default=0), n_blocks, 1, spec.dim))  # a stretch's every step and block
        term_rows = {n: (terms[:n], [terms[:n, b, 0] for b in range(n_blocks)]) for n in plan.lengths}
        spec.base_features(plan.times, out=features)  # each step's row starts from its base feature
    else:
        forecasts = features[:, None, None]
    k = j = 0
    stretch = None  # step 1 is always a pass
    while j < n:
        if stretch is None:
            t = times[j]
            target = store_rows[pass_rows[k]]
            if per_block:
                stages = spec.stage_outputs(t, base=features[j])
                np.subtract(stages[1:], stages[:-1], out=target)  # y_b - y_(b-1), one row a block
                features[j] = stages[-1]
                del stages  # not held through the next pass or fold, which set the run's memory peak
            else:
                features[j] = target[0] = evaluate_denoiser(spec, x, t)  # the score is the feature itself
            if not np.isfinite(target).all():
                raise SamplerError(f"{config.forecaster.kind} run: observe failed at step {j + 1} (t={t:g}): "
                                   f"feature at t={t:g} has non-finite entries")
            k += 1
            j += 1
            stretch = stretches.get(j)
            if stretch is None:  # else the stretch after this pass takes its Euler step
                x = x + increments[j - 1] * features[j - 1]
                states[j - 1] = x
            continue
        stop = stretch.stop
        H = features[j:stop]
        if stretch.fold is None:  # Taylor or naive reuse, whose cache is always last-block
            np.dot(stretch.weights, store[0, : stretch.reads], out=H)
        else:
            if stretch.fresh:
                qth[...] = 0.0
            # every block's fold, one 2-D product each, as rotate_features makes it
            np.matmul(stretch.fold_t, store[:, : stretch.reads], out=qth)
            # one vector-matrix product a step and block, as each block's forecaster would predict
            w = stretch.w
            if per_block:  # H already holds each step's base feature
                block_terms, blocks = term_rows[stop - j]
                np.matmul(w, leading[w.shape[3]], out=block_terms)
                for block in blocks:  # each block's forecast added in block order, as the forecasters sum
                    H += block
            else:
                np.matmul(w, leading[w.shape[3]], out=forecasts[j:stop])
        if moves:
            for source, destination in moves.get(j, ()):
                store[:, destination] = store[:, source]
        # the Euler steps of the pass before the stretch and of its steps, each added to the state in turn, as
        # the stepwise run adds them, from x, the state before that pass
        steps = np.multiply(stretch.increments, features[j - 1:stop], out=states[j - 1:stop])
        if stop - j == 1:  # two adds; an accumulate along the rows is slower on wide ones
            steps[0] += x
            steps[1] += steps[0]
        elif j > 1:  # x is the row above, so the sum starts from it
            np.add.accumulate(states[j - 2:stop], axis=0, out=states[j - 2:stop])
        else:  # the pass is step 1: x is the initial latent, in no row
            steps[0] += x
            np.add.accumulate(steps, axis=0, out=steps)
        x = states[stop - 1]
        j = stop
        stretch = None  # a pass or the end follows every stretch

    return TrajectoryRecord(
        times=plan.times.copy(),
        states=states,
        features=features,
        flags=plan.flags,
        fit_count=config.schedule.nfe * n_blocks if config.forecaster.kind == "spectrum" else 0,
        wall_time=time.perf_counter() - started,
    )


@lru_cache(maxsize=16)
def _oracle_config(n_steps: int) -> SolverConfig:
    return SolverConfig(schedule=uniform_schedule(n_steps, 1, 1), forecaster=ForecasterChoice(kind="oracle"))


def oracle_run(spec: DenoiserSpec, n_steps: int, x0: np.ndarray) -> TrajectoryRecord:
    """Full-NFE reference run (every step is an actual pass), on a config built once per step count."""
    # checked before the cache, where True and 1.0 would find the config of 1
    return run_sampler(spec, _oracle_config(_count(n_steps, "n_steps", least=1)), x0)


def rmse_vs_oracle(run: TrajectoryRecord, oracle: TrajectoryRecord, checkpoints) -> list[float]:
    """Root-mean-square state difference at the given 1-based step indices."""
    if run.states.shape != oracle.states.shape:
        raise ValueError(
            f"trajectory shapes differ: {run.states.shape} vs {oracle.states.shape}"
        )
    out = []
    for step in checkpoints:
        step = _count(step, "checkpoint", least=1)
        if step > run.n_steps:
            raise ValueError(f"checkpoint {step} outside [1, {run.n_steps}]")
        diff = run.states[step - 1] - oracle.states[step - 1]
        out.append(float(np.sqrt(np.mean(diff * diff))))
    return out


def trajectory_to_csv(record: TrajectoryRecord, path, header: dict, oracle: TrajectoryRecord | None = None) -> None:
    """Write one run as CSV with a plain-text provenance header.

    Floats use shortest round-trip formatting so identical runs produce
    byte-identical files; wall time never enters the file.
    """
    lines = [f"# {key}={value}" for key, value in header.items()]
    columns = "step,time,flag"
    if oracle is not None:
        columns += ",rmse_to_oracle"
        rmse = rmse_vs_oracle(record, oracle, range(1, record.n_steps + 1))
    lines.append(columns)
    for i in range(record.n_steps):
        row = f"{i + 1},{float(record.times[i])!r},{record.flags[i]}"
        if oracle is not None:
            row += f",{float(rmse[i])!r}"
        lines.append(row)
    text = "\n".join(lines) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# Desk-scale benchmark suite
# ---------------------------------------------------------------------------

BENCHMARK_SEEDS = (7051, 7093, 7040, 7032, 7071)


def benchmark_mixture() -> GaussianMixtureFlow:
    """Canonical 3-component mixture in 8 dimensions for ordering experiments.

    Means and per-dimension variances are drawn once from a fixed generator;
    the wide log-spread of variances makes the velocity curves the richest
    this family produces, and the seeds above were selected for it.
    """
    rng = np.random.default_rng(1)
    means = rng.normal(0.0, 2.0, size=(3, 8))
    variances = np.exp(rng.uniform(np.log(0.02), np.log(3.0), size=(3, 8)))
    return GaussianMixtureFlow(weights=(0.5, 0.3, 0.2), means=means, variances=variances, seed=1)


SWEEP_AXES = ("lambda", "degree", "alpha")


@dataclass(frozen=True)
class SweepRow:
    axis_value: float
    mean_rmse: float
    nfe: int
    wall_seconds: float


def _benchmark_schedule(alpha: float, n_steps: int) -> ActivationSchedule:
    """NFE-matched schedules: alpha > 0 adaptive, alpha = 0 uniform interval 8."""
    if alpha == 0.0:
        return uniform_schedule(n_steps, 8, 5)
    return adaptive_schedule(ScheduleParams(n_steps=n_steps, interval=2, warmup=5, alpha=alpha))


def sweep_report(axis: str, values, n_steps: int = 50, seeds=BENCHMARK_SEEDS, spec=None) -> list[SweepRow]:
    """Run the mixture benchmark across one hyperparameter axis.

    axis "lambda" and "degree" vary the spectral forecaster on the adaptive
    alpha=3.0 schedule; axis "alpha" varies the schedule itself at matched
    NFE.  Each row reports the across-seed mean of the final-state RMSE
    against the per-seed oracle run.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"sweep axis must be one of {SWEEP_AXES}, got {axis!r}")
    if spec is None:
        spec = benchmark_mixture()
    oracles = {
        seed: oracle_run(spec, n_steps, sample_initial_latent(spec.dim, seed)) for seed in seeds
    }
    rows = []
    for value in values:
        started = time.perf_counter()
        if axis == "lambda":
            schedule = _benchmark_schedule(3.0, n_steps)
            choice = ForecasterChoice(kind="spectrum", lam=float(value))
        elif axis == "degree":
            schedule = _benchmark_schedule(3.0, n_steps)
            choice = ForecasterChoice(kind="spectrum", degree=value)  # refuses a fractional degree
        else:
            schedule = _benchmark_schedule(float(value), n_steps)
            choice = ForecasterChoice(kind="spectrum")
        config = SolverConfig(schedule=schedule, forecaster=choice)
        finals = []
        for seed in seeds:
            run = run_sampler(spec, config, sample_initial_latent(spec.dim, seed))
            finals.append(rmse_vs_oracle(run, oracles[seed], [n_steps])[0])
        rows.append(
            SweepRow(
                axis_value=float(value),
                mean_rmse=float(np.mean(finals)),
                nfe=schedule.nfe,
                wall_seconds=time.perf_counter() - started,
            )
        )
    return rows
