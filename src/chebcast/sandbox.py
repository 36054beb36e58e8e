"""The step-skipping ODE sampler, and the desk-scale experiments made with it.

run_sampler walks a planned SolverConfig (chebcast.plan) over one of the
analytic denoisers (chebcast.denoisers): an actual step evaluates the
denoiser, and a stretch of skipped steps takes its features from the plan's
weights over the cached passes.  One sampler run is strictly sequential.
The full-NFE oracle run, the RMSE against it, the CSV writer, the mixture
benchmark and its sweeps build on it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .basis import _count, _finite
from .denoisers import BlockStack, DenoiserSpec, GaussianMixtureFlow, evaluate_denoiser
from .plan import ForecasterChoice, SolverConfig
from .schedule import ActivationSchedule, ScheduleParams, adaptive_schedule, uniform_schedule


class SamplerError(RuntimeError):
    """A non-finite feature at an actual pass of a sampling run, annotated with the run's kind and the step."""


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
    state to t_j + 1/N.  The run is one loop over the plan's passes, each
    with the stretch after it: a pass evaluates the denoiser, at its time as
    the plan holds it (a Python float), writes its feature once into the
    pass store, at the row the plan laid out for it, and takes the Euler
    step, unless a stretch follows it; a stretch of skipped steps is one
    product of its planned weights with its passes, read in place from the
    store.  Its states, and the state of the pass before it, are one running
    sum of its planned Euler increments times their features, made in place
    in the states: the first adds x, the state before the pass, and the rest
    follow in one accumulate (two adds for a one-step stretch), the stepwise
    run's multiplies and adds, in its order.  After it, the stretch's planned
    slice moves carry the passes a later stretch reads again.  A stretch
    writes only into arrays made once a run, and makes no numpy call a step:
    a spectral one's stacked product through its planned fold writes every
    block's new Q^T H over the old (numpy buffers that overlap), and one
    stacked product, for every kind, forecasts every step and block as w @
    the block's leading store rows (Q^T H, or the passes for Taylor and naive
    reuse).  Each slice of either is its own 2-D product over a C-contiguous
    operand, so the run matches observe/predict bitwise (Taylor to rounding).  The
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
    block order.  Any kind's weights depend on the step times alone, so one
    plan serves every block, and the base feature needs no network pass.
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
    increments, n_coef = plan.increments, plan.n_coef
    states = np.empty((n, spec.dim))
    features = np.empty((n, spec.dim))
    # every block's [Q^T H; passes], a C-contiguous slice each; numpy buffers the fold's overlap with it
    store = np.empty((n_blocks, n_coef + plan.n_rows, spec.dim))
    qth, store_rows = store[:, :n_coef], store.swapaxes(0, 1)  # store_rows[r]: row r of every block
    # the views stretches share, made once: every block's leading m store rows (Q^T H, else passes) for each m a w
    # weighs, and the forecasts' outputs, per step and block for per-block caching, else the features as (N, 1, 1, dim)
    leading = {m: store[None, :, :m] for m in plan.widths}
    if per_block:
        terms = np.empty((max(plan.lengths, default=0), n_blocks, 1, spec.dim))  # a stretch's every step and block
        term_rows = {n: (terms[:n], [terms[:n, b, 0] for b in range(n_blocks)]) for n in plan.lengths}
        spec.base_features(plan.times, out=features)  # each step's row starts from its base feature
    else:
        forecasts = features[:, None, None]
    for j, t, row, stretch in plan.passes:
        target = store_rows[row]
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
        if stretch is None:  # else the stretch after this pass takes its Euler step
            x = x + increments[j] * features[j]
            states[j] = x
            continue
        stop = stretch.stop
        if stretch.fold is not None:  # a spectral stretch first folds its passes into the Q^T H it weighs
            if stretch.fresh:
                qth[...] = 0.0
            # every block's fold, one 2-D product each, as rotate_features makes it
            np.matmul(stretch.fold_t, store[:, : stretch.reads], out=qth)
        # one vector-matrix product a step and block, as each block's forecaster would predict
        w = stretch.w
        if per_block:  # the features already hold each step's base feature
            block_terms, blocks = term_rows[stop - j - 1]
            np.matmul(w, leading[w.shape[3]], out=block_terms)
            H = features[j + 1:stop]
            for block in blocks:  # each block's forecast added in block order, as the forecasters sum
                H += block
        else:
            np.matmul(w, leading[w.shape[3]], out=forecasts[j + 1:stop])
        for source, destination in stretch.moves:
            store[:, destination] = store[:, source]
        # the Euler steps of the pass and of the stretch's steps, each added to the state in turn, as the
        # stepwise run adds them, from x, the state before the pass
        steps = np.multiply(stretch.increments, features[j:stop], out=states[j:stop])
        steps[0] += x
        if stop - j == 2:  # a one-step stretch: one more add; an accumulate along the rows is slower on wide ones
            steps[1] += steps[0]
        else:
            np.add.accumulate(steps, axis=0, out=steps)
        x = states[stop - 1]

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
