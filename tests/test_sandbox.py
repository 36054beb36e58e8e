"""Tests for the analytic denoisers and the step-skipping sampler."""

import warnings

import numpy as np
import pytest

from chebcast import (
    BlockStack,
    ForecasterChoice,
    FunctionFamily,
    GaussianMixtureFlow,
    PolynomialChannel,
    SamplerError,
    SolverConfig,
    euler_step,
    evaluate_denoiser,
    oracle_run,
    rmse_vs_oracle,
    run_sampler,
    sample_initial_latent,
    trajectory_to_csv,
    uniform_schedule,
)
from chebcast.forecasters import SpectralConfig, SpectralForecaster
from chebcast.schedule import ScheduleParams, adaptive_schedule

from oracles import mc_velocity_single_gaussian


def single_gaussian(mean, variance, dim):
    return GaussianMixtureFlow(
        weights=(1.0,),
        means=np.full((1, dim), mean),
        variances=np.full((1, dim), variance),
    )


def polynomial_family(rng, n_channels=6, degree=3):
    channels = tuple(
        PolynomialChannel(tuple(rng.normal(size=degree + 1))) for _ in range(n_channels)
    )
    return FunctionFamily(channels=channels)


# --- denoisers --------------------------------------------------------------


def test_single_component_velocity_matches_mc_oracle():
    spec = GaussianMixtureFlow(
        weights=(1.0,), means=np.array([[1.5, -0.5]]), variances=np.array([[0.64, 0.25]])
    )
    x = np.array([0.8, 0.2])
    closed = spec.velocity(x, 0.6)
    mc = mc_velocity_single_gaussian(spec.means[0], spec.variances[0], x, 0.6, seed=42)
    np.testing.assert_allclose(closed, mc, atol=1e-2)


def test_velocity_at_start_pulls_to_weighted_mean():
    spec = GaussianMixtureFlow(
        weights=(0.75, 0.25),
        means=np.array([[2.0, 0.0], [-2.0, 4.0]]),
        variances=np.full((2, 2), 0.5),
    )
    x = np.array([0.3, -0.7])
    expected = 0.75 * spec.means[0] + 0.25 * spec.means[1] - x
    np.testing.assert_allclose(spec.velocity(x, 0.0), expected, atol=1e-12)


def test_mixture_weight_validation():
    with pytest.raises(ValueError, match="sum to 1"):
        GaussianMixtureFlow(weights=(0.6, 0.6), means=np.zeros((2, 2)), variances=np.ones((2, 2)))
    with pytest.raises(ValueError, match="positive"):
        GaussianMixtureFlow(weights=(1.0,), means=np.zeros((1, 2)), variances=np.zeros((1, 2)))


def test_zero_weight_component_gets_no_responsibility_and_no_warning():
    means = np.array([[2.0, 0.0], [-1.0, 3.0]])
    variances = np.array([[0.5, 0.5], [0.8, 0.3]])
    spec = GaussianMixtureFlow(weights=(0.0, 1.0), means=means, variances=variances)
    alone = GaussianMixtureFlow(weights=(1.0,), means=means[1:], variances=variances[1:])
    x = np.array([0.4, -0.9])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in (0.0, 0.3, 1.0):
            np.testing.assert_array_equal(spec.velocity(x, t), alone.velocity(x, t))


def test_function_family_evaluation():
    spec = FunctionFamily(channels=(PolynomialChannel((0.0, 0.0, 1.0)),))
    h, eps = evaluate_denoiser(spec, np.zeros(1), 0.5)
    assert h[0] == pytest.approx(0.25)
    np.testing.assert_array_equal(h, eps)


def test_identity_block_stack_returns_base():
    spec = BlockStack(n_blocks=1, width=8, gain=0.0, mixing="identity", seed=3)
    t = 0.37
    np.testing.assert_allclose(spec.features(t), spec.base_feature(t), atol=1e-15)


def test_block_stack_stages_telescope():
    spec = BlockStack(n_blocks=4, width=8, gain=0.8, seed=5)
    stages = spec.stage_outputs(0.3)
    total = stages[0] + sum(stages[b + 1] - stages[b] for b in range(4))
    np.testing.assert_allclose(total, stages[-1], atol=1e-12)


def test_denoiser_rejects_bad_inputs():
    spec = single_gaussian(0.0, 1.0, 3)
    with pytest.raises(ValueError, match="timestep"):
        evaluate_denoiser(spec, np.zeros(3), 1.5)
    with pytest.raises(ValueError, match="shape"):
        evaluate_denoiser(spec, np.zeros(2), 0.5)


# --- euler ------------------------------------------------------------------


def test_euler_zero_drift():
    x = np.array([1.0, -2.0])
    np.testing.assert_array_equal(euler_step(x, np.zeros(2), 0.0, 0.5), x)


def test_euler_constant_drift_partition_independent():
    x = np.array([0.5, 1.5, -1.0])
    c = np.array([0.3, -0.2, 1.1])
    for n in (1, 7, 50):
        cur = x
        edges = np.linspace(0.0, 1.0, n + 1)
        for a, b in zip(edges, edges[1:]):
            cur = euler_step(cur, c, a, b)
        np.testing.assert_allclose(cur, x + c, atol=1e-12)


def test_euler_rejects_non_increasing_time():
    with pytest.raises(ValueError, match="t_from < t_to"):
        euler_step(np.zeros(1), np.zeros(1), 0.5, 0.5)


def test_fine_euler_reaches_analytic_endpoint():
    spec = single_gaussian(1.5, 0.64, 4)
    x0 = sample_initial_latent(4, 3)
    record = oracle_run(spec, 2000, x0)
    analytic = spec.means[0] + np.sqrt(spec.variances[0]) * x0
    assert np.max(np.abs(record.final_state - analytic)) <= 1e-2


# --- sampler ----------------------------------------------------------------


def test_all_pass_schedule_matches_oracle_bitwise():
    rng = np.random.default_rng(0)
    spec = polynomial_family(rng)
    x0 = sample_initial_latent(spec.dim, 5)
    oracle = oracle_run(spec, 50, x0)
    all_pass = uniform_schedule(50, 1, 1)
    for kind in ("naive", "taylor", "spectrum"):
        run = run_sampler(spec, SolverConfig(all_pass, ForecasterChoice(kind=kind)), x0)
        assert np.array_equal(run.states, oracle.states)
        assert np.array_equal(run.features, oracle.features)


def test_polynomial_channels_reproduced_exactly():
    rng = np.random.default_rng(1)
    spec = polynomial_family(rng, degree=3)
    x0 = sample_initial_latent(spec.dim, 7)
    oracle = oracle_run(spec, 50, x0)
    schedule = uniform_schedule(50, 8, 5)
    run = run_sampler(
        spec, SolverConfig(schedule, ForecasterChoice(kind="spectrum", degree=3, lam=0.0)), x0
    )
    assert np.max(np.abs(run.final_state - oracle.final_state)) <= 1e-8


def test_sampler_determinism():
    spec = single_gaussian(0.5, 0.8, 4)
    config = SolverConfig(
        adaptive_schedule(ScheduleParams(50, 2, 5, 3.0)), ForecasterChoice(kind="spectrum")
    )
    x0 = sample_initial_latent(4, 11)
    a = run_sampler(spec, config, x0)
    b = run_sampler(spec, config, x0)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.features, b.features)
    assert a.flags == b.flags


def test_flags_follow_schedule():
    spec = single_gaussian(0.0, 1.0, 2)
    schedule = uniform_schedule(20, 4, 3)
    run = run_sampler(spec, SolverConfig(schedule, ForecasterChoice(kind="naive")), np.zeros(2))
    for j in range(1, 21):
        expected = "actual" if j in schedule.full_pass_indices else "forecast"
        assert run.flags[j - 1] == expected


def test_forecaster_error_carries_step_index():
    spec = single_gaussian(0.0, 1.0, 2)
    schedule = uniform_schedule(20, 6, 1)  # first forecast at step 2, cache depth 1
    config = SolverConfig(schedule, ForecasterChoice(kind="taylor", order=3))
    with pytest.raises(SamplerError, match="step 2"):
        run_sampler(spec, config, np.zeros(2))


class _NanAfter(BlockStack):
    """Block stack whose output turns NaN from t = 0.3 on."""

    def stage_outputs(self, t):
        stages = super().stage_outputs(t)
        if t >= 0.3:
            stages[-1] = np.full_like(stages[-1], np.nan)
        return stages


@pytest.mark.parametrize("scope", ["last_block", "per_block"])
def test_non_finite_feature_fails_at_its_step(scope):
    spec = _NanAfter(n_blocks=2, width=3)
    config = SolverConfig(uniform_schedule(20, 2, 1), ForecasterChoice(kind="spectrum", cache_scope=scope))
    # t = (j-1)/20 >= 0.3 first at step 7, an actual pass of the interval-2 schedule
    with pytest.raises(SamplerError, match=r"observe failed at step 7 \(t=0.3\).*non-finite"):
        run_sampler(spec, config, np.zeros(3))


def test_rmse_identical_runs_is_zero():
    spec = single_gaussian(0.2, 1.1, 3)
    x0 = sample_initial_latent(3, 1)
    oracle = oracle_run(spec, 30, x0)
    assert rmse_vs_oracle(oracle, oracle, [10, 20, 30]) == [0.0, 0.0, 0.0]


def test_rmse_constant_offset():
    from chebcast import TrajectoryRecord

    spec = single_gaussian(0.2, 1.1, 3)
    x0 = sample_initial_latent(3, 2)
    oracle = oracle_run(spec, 30, x0)
    shifted = TrajectoryRecord(
        times=oracle.times,
        states=oracle.states + 0.25,
        features=oracle.features,
        flags=oracle.flags,
        fit_count=oracle.fit_count,
        wall_time=0.0,
    )
    for value in rmse_vs_oracle(shifted, oracle, [5, 15, 30]):
        assert value == pytest.approx(0.25, abs=1e-12)


def test_last_block_caching_close_to_per_block_with_fewer_fits():
    # Frozen factor 1.2 confirmed by runs over several stack seeds; per-block
    # does exactly n_blocks refits per actual pass versus one.
    schedule = uniform_schedule(50, 8, 5)
    for stack_seed in (0, 1, 2):
        spec = BlockStack(n_blocks=4, width=32, gain=2.5, seed=stack_seed)
        x0 = sample_initial_latent(spec.dim, 42 + stack_seed)
        oracle = oracle_run(spec, 50, x0)
        last = run_sampler(spec, SolverConfig(schedule, ForecasterChoice(kind="spectrum")), x0)
        per = run_sampler(
            spec,
            SolverConfig(schedule, ForecasterChoice(kind="spectrum", cache_scope="per_block")),
            x0,
        )
        assert last.fit_count == schedule.nfe
        assert per.fit_count == 4 * schedule.nfe
        rmse_last = rmse_vs_oracle(last, oracle, [50])[0]
        rmse_per = rmse_vs_oracle(per, oracle, [50])[0]
        assert rmse_last <= 1.2 * rmse_per


def per_block_reference(spec, config, x0):
    """Per-block caching with one independent spectral forecaster per block."""
    choice = config.forecaster
    spectral = SpectralConfig(degree=choice.degree, lam=choice.lam)
    per_block = [SpectralForecaster(spectral, window=choice.window) for _ in range(spec.n_blocks)]
    n = config.n_steps
    dt = 1.0 / n
    x = np.asarray(x0, dtype=float)
    states, features = [], []
    for j in range(1, n + 1):
        t = (j - 1) * dt
        if config.schedule.is_full_pass(j):
            stages = spec.stage_outputs(t)
            for b, fc in enumerate(per_block):
                fc.observe(t, stages[b + 1] - stages[b])
            h = stages[-1]
        else:
            h = spec.base_feature(t)
            for fc in per_block:
                h = h + fc.predict(t)
        x = euler_step(x, h, t, t + dt if j < n else 1.0)
        states.append(x)
        features.append(h)
    return np.array(states), np.array(features), sum(fc.fit_count for fc in per_block)


def assert_relative_close(actual, expected, rtol):
    assert np.max(np.abs(actual - expected)) <= rtol * np.max(np.abs(expected))


@pytest.mark.parametrize(
    "schedule, choice",
    [
        # default spectral settings
        (uniform_schedule(50, 4, 3), ForecasterChoice(kind="spectrum", cache_scope="per_block")),
        # a window of 5 evicted from the 6th of 13 passes on
        (uniform_schedule(50, 4, 1), ForecasterChoice(kind="spectrum", window=5, cache_scope="per_block")),
        # lambda = 0: the forecasts at steps 2-3, ..., 11-12 fit fewer than degree + 1 points
        (
            uniform_schedule(40, 3, 1),
            ForecasterChoice(kind="spectrum", degree=4, lam=0.0, cache_scope="per_block"),
        ),
    ],
    ids=["default", "window-evicted", "lambda0-degree-cap"],
)
def test_stacked_per_block_matches_independent_forecasters(schedule, choice):
    spec = BlockStack(n_blocks=3, width=16, gain=1.5, seed=4)
    x0 = sample_initial_latent(spec.dim, 8)
    run = run_sampler(spec, SolverConfig(schedule, choice), x0)
    states, features, fit_count = per_block_reference(spec, SolverConfig(schedule, choice), x0)
    assert_relative_close(run.features, features, 1e-12)
    assert_relative_close(run.states, states, 1e-12)
    assert run.fit_count == fit_count == spec.n_blocks * schedule.nfe
    assert "forecast" in run.flags


class _NanOnce(BlockStack):
    """Block stack whose last block's residual is NaN at t = 0.4 only."""

    def stage_outputs(self, t):
        stages = super().stage_outputs(t)
        if t == 0.4:
            stages[-1] = stages[-1].copy()
            stages[-1][0] = np.nan
        return stages


def test_per_block_nan_residual_fails_at_its_step():
    spec = _NanOnce(n_blocks=3, width=4)
    config = SolverConfig(uniform_schedule(20, 2, 1), ForecasterChoice(kind="spectrum", cache_scope="per_block"))
    # t = 0.4 is step 9, an actual pass of the interval-2 schedule
    with pytest.raises(SamplerError, match=r"observe failed at step 9 \(t=0.4\).*non-finite"):
        run_sampler(spec, config, np.zeros(4))


def test_per_block_requires_block_stack():
    spec = single_gaussian(0.0, 1.0, 2)
    config = SolverConfig(
        uniform_schedule(10, 2, 1), ForecasterChoice(kind="spectrum", cache_scope="per_block")
    )
    with pytest.raises(ValueError, match="block_stack"):
        run_sampler(spec, config, np.zeros(2))


def test_trajectory_csv_format(tmp_path):
    spec = single_gaussian(0.3, 0.9, 2)
    x0 = sample_initial_latent(2, 9)
    oracle = oracle_run(spec, 10, x0)
    run = run_sampler(
        spec, SolverConfig(uniform_schedule(10, 4, 2), ForecasterChoice(kind="naive")), x0
    )
    path = tmp_path / "run.csv"
    trajectory_to_csv(run, path, {"spec": spec.kind, "seed": 9}, oracle=oracle)
    lines = path.read_text().splitlines()
    assert lines[0] == "# spec=gaussian_mixture_flow"
    assert lines[1] == "# seed=9"
    assert lines[2] == "step,time,flag,rmse_to_oracle"
    assert lines[3] == "1,0.0,actual,0.0"
    assert len(lines) == 3 + 10


def test_rmse_shape_mismatch_rejected():
    a = oracle_run(single_gaussian(0.0, 1.0, 2), 10, np.zeros(2))
    b = oracle_run(single_gaussian(0.0, 1.0, 3), 10, np.zeros(3))
    with pytest.raises(ValueError, match="shapes"):
        rmse_vs_oracle(a, b, [5])
    with pytest.raises(ValueError, match="checkpoint"):
        rmse_vs_oracle(a, a, [0])


def test_trajectory_csv_without_oracle(tmp_path):
    run = oracle_run(single_gaussian(0.1, 1.0, 2), 5, np.zeros(2))
    path = tmp_path / "plain.csv"
    trajectory_to_csv(run, path, {"seed": 0})
    lines = path.read_text().splitlines()
    assert lines[1] == "step,time,flag"
    assert len(lines) == 2 + 5


def test_forecaster_choice_validation():
    with pytest.raises(ValueError, match="kind"):
        ForecasterChoice(kind="magic")
    with pytest.raises(ValueError, match="per-block"):
        ForecasterChoice(kind="taylor", cache_scope="per_block")
    with pytest.raises(ValueError, match="order"):
        ForecasterChoice(kind="taylor", order=-1)


def test_velocity_at_unit_time_returns_state():
    spec = single_gaussian(1.2, 0.49, 3)
    x = np.array([0.4, -1.0, 2.0])
    np.testing.assert_allclose(spec.velocity(x, 1.0), x, atol=1e-12)
