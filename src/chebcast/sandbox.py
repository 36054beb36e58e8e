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
  last-block against per-block caching.  Per-block caching forecasts the
  summed block residuals h - base(t) and adds back the base, which needs no
  network pass.

In every family the score fed to the solver is the last-block feature
itself, and one sampler run is strictly sequential.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .forecasters import FeatureCache, SpectralConfig, SpectralForecaster, TaylorForecaster
from .schedule import ActivationSchedule, ScheduleParams, adaptive_schedule, uniform_schedule

FORECASTER_KINDS = ("oracle", "naive", "taylor", "spectrum")
CACHE_SCOPES = ("last_block", "per_block")


class SamplerError(RuntimeError):
    """Forecaster failure inside a sampling run, annotated with the step index."""


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
        means = np.atleast_2d(np.asarray(self.means, dtype=float))
        variances = np.asarray(self.variances, dtype=float)
        if variances.ndim == 1:
            variances = np.repeat(variances[:, None], means.shape[1], axis=1)
        variances = np.atleast_2d(variances)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "variances", variances)
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
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

    @property
    def feature_dim(self) -> int:
        return self.dim

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


@dataclass(frozen=True)
class PolynomialChannel:
    coefficients: tuple[float, ...]  # ascending powers of t

    def __call__(self, t: float) -> float:
        acc = 0.0
        for c in reversed(self.coefficients):
            acc = acc * t + c
        return acc


@dataclass(frozen=True)
class SineChannel:
    amplitude: float = 1.0
    frequency: float = 1.0  # cycles over t in [0, 1]
    phase: float = 0.0

    def __call__(self, t: float) -> float:
        return self.amplitude * np.sin(2.0 * np.pi * self.frequency * t + self.phase)


@dataclass(frozen=True)
class ExponentialChannel:
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
        if not self.channels:
            raise ValueError("function family needs at least one channel")

    @property
    def dim(self) -> int:
        return len(self.channels)

    @property
    def feature_dim(self) -> int:
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
        if self.n_blocks < 1:
            raise ValueError(f"block count must be >= 1, got {self.n_blocks}")
        if self.width < 1:
            raise ValueError(f"feature width must be >= 1, got {self.width}")
        if self.gain < 0.0:
            raise ValueError(f"nonlinearity gain must be >= 0, got {self.gain}")
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

    @property
    def feature_dim(self) -> int:
        return self.width

    def base_feature(self, t: float) -> np.ndarray:
        powers = np.array([1.0, t, t * t, t * t * t])
        return self._base_coeffs @ powers

    def stage_outputs(self, t: float) -> list[np.ndarray]:
        """[y_0, y_1, ..., y_B] with y_0 the base feature and y_B the output."""
        y = self.base_feature(t)
        stages = [y]
        for rot in self._rotations:
            mixed = rot @ y
            y = y + self.gain * np.tanh(mixed)
            stages.append(y)
        return stages

    def features(self, t: float) -> np.ndarray:
        return self.stage_outputs(t)[-1]


DenoiserSpec = GaussianMixtureFlow | FunctionFamily | BlockStack


def evaluate_denoiser(spec: DenoiserSpec, x: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
    """One actual pass: returns (feature vector h, score eps).

    The score map on the last-block feature is the identity in every family,
    so eps is h itself; for the mixture flow h is the closed-form velocity.
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
    return h, h


def euler_step(x: np.ndarray, eps: np.ndarray, t_from: float, t_to: float) -> np.ndarray:
    """Explicit Euler update x + (t_to - t_from) * eps of the flow ODE."""
    if not (0.0 <= t_from < t_to <= 1.0):
        raise ValueError(f"need 0 <= t_from < t_to <= 1, got [{t_from}, {t_to}]")
    x = np.asarray(x, dtype=float)
    eps = np.asarray(eps, dtype=float)
    if x.shape != eps.shape:
        raise ValueError(f"state shape {x.shape} does not match score shape {eps.shape}")
    return x + (t_to - t_from) * eps


# ---------------------------------------------------------------------------
# Sampler
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ForecasterChoice:
    """Which forecaster replaces skipped passes, plus its hyperparameters."""

    kind: str
    order: int = 1
    degree: int = 4
    lam: float = 0.1
    window: int | None = None
    cache_scope: str = "last_block"

    def __post_init__(self):
        if self.kind not in FORECASTER_KINDS:
            raise ValueError(f"forecaster kind must be one of {FORECASTER_KINDS}, got {self.kind!r}")
        if self.cache_scope not in CACHE_SCOPES:
            raise ValueError(f"cache scope must be one of {CACHE_SCOPES}, got {self.cache_scope!r}")
        if self.cache_scope == "per_block" and self.kind != "spectrum":
            raise ValueError("per-block caching is only implemented for the spectral forecaster")
        if self.order < 0:
            raise ValueError(f"taylor order must be >= 0, got {self.order}")
        SpectralConfig(degree=self.degree, lam=self.lam)  # rejects degree < 0 and lam < 0
        FeatureCache(capacity=self.window)  # rejects window < 1


@dataclass(frozen=True)
class SolverConfig:
    schedule: ActivationSchedule
    forecaster: ForecasterChoice

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
    # Coefficient fits: one per actual pass.  Per-block caching counts
    # n_blocks per pass: its one fit of h - base(t) equals the sum of the
    # n_blocks per-block residual fits, since all share one design and lambda.
    fit_count: int
    wall_time: float

    @property
    def n_steps(self) -> int:
        return self.states.shape[0]

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


def _make_forecaster(choice: ForecasterChoice):
    if choice.kind in ("naive", "taylor"):
        order = choice.order if choice.kind == "taylor" else 0  # naive reuse is Taylor order 0
        return TaylorForecaster(order=order, window=choice.window)
    if choice.kind == "spectrum":
        return SpectralForecaster(SpectralConfig(choice.degree, choice.lam), window=choice.window)
    return None


def sample_initial_latent(dim: int, seed: int) -> np.ndarray:
    """Seeded standard-normal initial state."""
    return np.random.default_rng(seed).standard_normal(dim)


def run_sampler(spec: DenoiserSpec, config: SolverConfig, x0: np.ndarray) -> TrajectoryRecord:
    """Iterate the schedule over t in [0, 1), forecasting on skipped steps.

    Step j (1-based) evaluates the drift at t_j = (j-1)/N and advances the
    state to t_j + 1/N; full-pass steps also insert the feature into the cache
    and refit the forecaster state, per the online fit-then-forecast loop.
    The oracle kind performs a full pass at every step regardless of the
    schedule and is the reference trajectory for RMSE comparisons.

    Last-block caching observes the output feature h.  Per-block caching
    (block_stack only) observes h - base(t) and forecasts base(t) plus that
    residual: ridge coefficients are linear in the targets and every block
    shares one design and lambda, so one fit to the summed block residuals
    y_B - y_0 equals the sum of the per-block fits, and the base feature
    needs no network pass.
    """
    started = time.perf_counter()
    schedule = config.schedule
    n = schedule.n_steps
    dt = 1.0 / n
    x = np.asarray(x0, dtype=float).copy()
    if x.shape != (spec.dim,):
        raise ValueError(f"initial latent must have shape ({spec.dim},), got {x.shape}")

    choice = config.forecaster
    forecaster = _make_forecaster(choice)
    full_pass = schedule.full_pass_set if choice.kind != "oracle" else frozenset(range(1, n + 1))
    base, n_blocks = None, 1
    if choice.cache_scope == "per_block":
        if not isinstance(spec, BlockStack):
            raise ValueError("per-block caching requires a block_stack denoiser")
        base, n_blocks = spec.base_feature, spec.n_blocks

    times = np.empty(n)
    states = np.empty((n, spec.dim))
    features = np.empty((n, spec.feature_dim))
    flags = []
    for j in range(1, n + 1):
        t = (j - 1) * dt
        if j in full_pass:
            h, _ = evaluate_denoiser(spec, x, t)  # the score eps is h itself
            if forecaster is not None:
                try:
                    forecaster.observe(t, h if base is None else h - base(t))
                except ValueError as err:  # a bad feature or time; the fit is solved at predict
                    raise SamplerError(f"observe failed at step {j} (t={t:g}): {err}") from err
            flags.append("actual")
        else:
            try:
                h = forecaster.predict(t) if base is None else base(t) + forecaster.predict(t)
            except Exception as err:
                raise SamplerError(f"forecast failed at step {j} (t={t:g}): {err}") from err
            flags.append("forecast")
        x = euler_step(x, h, t, t + dt if j < n else 1.0)
        times[j - 1] = t
        states[j - 1] = x
        features[j - 1] = h

    return TrajectoryRecord(
        times=times,
        states=states,
        features=features,
        flags=tuple(flags),
        fit_count=getattr(forecaster, "fit_count", 0) * n_blocks,
        wall_time=time.perf_counter() - started,
    )


def oracle_run(spec: DenoiserSpec, n_steps: int, x0: np.ndarray) -> TrajectoryRecord:
    """Full-NFE reference run (every step is an actual pass)."""
    config = SolverConfig(
        schedule=uniform_schedule(n_steps, 1, 1),
        forecaster=ForecasterChoice(kind="oracle"),
    )
    return run_sampler(spec, config, x0)


def rmse_vs_oracle(run: TrajectoryRecord, oracle: TrajectoryRecord, checkpoints) -> list[float]:
    """Root-mean-square state difference at the given 1-based step indices."""
    if run.states.shape != oracle.states.shape:
        raise ValueError(
            f"trajectory shapes differ: {run.states.shape} vs {oracle.states.shape}"
        )
    out = []
    for step in checkpoints:
        step = int(step)
        if not (1 <= step <= run.n_steps):
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
BENCHMARK_CHECKPOINTS = (10, 20, 30, 40, 50)


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
            choice = ForecasterChoice(kind="spectrum", degree=int(value))
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
