"""Tests for the analytic denoisers and the step-skipping sampler."""

import inspect
import math
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chebcast import (
    BlockStack,
    ExponentialChannel,
    ForecasterChoice,
    FunctionFamily,
    GaussianMixtureFlow,
    PolynomialChannel,
    RidgeFitError,
    SamplerError,
    SineChannel,
    SolverConfig,
    evaluate_denoiser,
    oracle_run,
    rmse_vs_oracle,
    run_sampler,
    sample_initial_latent,
    trajectory_to_csv,
    uniform_schedule,
)
from chebcast.config import load_config
from chebcast.plan import plan_forecasts
from chebcast.schedule import ScheduleParams, adaptive_schedule

from oracles import (
    SpectralConfig,
    SpectralForecaster,
    TaylorForecaster,
    forecast_refused,
    mc_velocity_single_gaussian,
    reference_plan,
)


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


# a denoiser spec or channel with one parameter non-finite -> the message naming it
NON_FINITE_SPECS = {
    "NaN weight": (lambda: GaussianMixtureFlow((math.nan, 1.0), np.zeros((2, 2)), np.ones((2, 2))),
                   "mixture weights must be finite, got nan"),
    "infinite mean": (lambda: GaussianMixtureFlow((1.0,), [[0.0, math.inf]], np.ones((1, 2))),
                      "mixture means must be finite, got inf"),
    "NaN mean": (lambda: GaussianMixtureFlow((1.0,), [[math.nan, 0.0]], np.ones((1, 2))),
                 "mixture means must be finite, got nan"),
    "NaN variance": (lambda: GaussianMixtureFlow((1.0,), np.zeros((1, 2)), [[1.0, math.nan]]),
                     "mixture variances must be finite, got nan"),
    "infinite variance": (lambda: GaussianMixtureFlow((1.0,), np.zeros((1, 2)), [[math.inf, 1.0]]),
                          "mixture variances must be finite, got inf"),
    "polynomial coefficient": (lambda: PolynomialChannel((1.0, -math.inf)), "channel coefficients must be finite"),
    "sine amplitude": (lambda: SineChannel(amplitude=math.nan), "channel amplitude must be finite, got nan"),
    "sine frequency": (lambda: SineChannel(frequency=math.inf), "channel frequency must be finite, got inf"),
    "sine phase": (lambda: SineChannel(phase=math.nan), "channel phase must be finite, got nan"),
    "exponential scale": (lambda: ExponentialChannel(scale=math.inf), "channel scale must be finite, got inf"),
    "exponential rate": (lambda: ExponentialChannel(rate=math.nan), "channel rate must be finite, got nan"),
    # a non-number, which a float conversion would take or np.isfinite fail on with a TypeError
    "string weight": (lambda: GaussianMixtureFlow(("0.5", "0.5"), np.zeros((2, 2)), np.ones((2, 2))),
                      "mixture weights must be numbers, got \\('0.5', '0.5'\\)"),
    "string mean": (lambda: GaussianMixtureFlow((1.0,), [["1.5", "2"]], np.ones((1, 2))),
                    "mixture means must be numbers"),
    "bool variance": (lambda: GaussianMixtureFlow((1.0,), np.zeros((1, 2)), [[True, True]]),
                      "mixture variances must be numbers"),
    "string amplitude": (lambda: SineChannel(amplitude="1"), "channel amplitude must be numbers, got '1'"),
    "None coefficient": (lambda: PolynomialChannel((1.0, None)), "channel coefficients must be numbers"),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE_SPECS))
def test_spec_refuses_a_non_finite_parameter(case):
    """Refused at construction, not at the first pass; a NaN weight would pass the sum-to-1 check."""
    build, refused = NON_FINITE_SPECS[case]
    with pytest.raises(ValueError, match=f"^{refused}"):
        build()


# A channel field given a shape other than the one it declares -> the message; it used to fail only at features(t)
WRONG_SHAPED_CHANNELS = {
    "scalar coefficients": (lambda: PolynomialChannel(3.0), r"coefficients must be a sequence of numbers, got 3.0"),
    "tuple amplitude": (lambda: SineChannel(amplitude=(1.0, 2.0)), r"amplitude must be a number, got \(1.0, 2.0\)"),
    "list rate": (lambda: ExponentialChannel(rate=[1.0]), r"rate must be a number, got \[1.0\]"),
}


@pytest.mark.parametrize("case", sorted(WRONG_SHAPED_CHANNELS))
def test_channel_refuses_a_value_of_the_wrong_shape(case):
    build, refused = WRONG_SHAPED_CHANNELS[case]
    with pytest.raises(ValueError, match=f"^channel {refused}$"):
        build()


# A mixture array that is not (n_components, dim) -> the shapes of weights, means and variances the message names
WRONG_SHAPED_MIXTURES = {
    "1-D variances": (lambda: GaussianMixtureFlow((0.5, 0.5), np.zeros((2, 3)), np.ones(2)), "(2,), (2, 3) and (2,)"),
    "1-D means": (lambda: GaussianMixtureFlow((1.0,), np.zeros(3), np.ones((1, 3))), "(1,), (3,) and (1, 3)"),
}


@pytest.mark.parametrize("case", sorted(WRONG_SHAPED_MIXTURES))
def test_mixture_takes_only_its_declared_shapes(case):
    """Neither promoted to one component nor broadcast over the dimensions."""
    build, shapes = WRONG_SHAPED_MIXTURES[case]
    refused = "mixture weights, means and variances must have shapes (n_components,), (n_components, dim) and "
    with pytest.raises(ValueError, match=f"^{re.escape(refused)}.*, got {re.escape(shapes)}$"):
        build()


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
    h = evaluate_denoiser(spec, np.zeros(1), 0.5)
    assert h.shape == (spec.dim,)
    assert h[0] == pytest.approx(0.25)


def test_identity_block_stack_returns_base():
    spec = BlockStack(n_blocks=1, width=8, gain=0.0, mixing="identity", seed=3)
    t = 0.37
    np.testing.assert_allclose(spec.features(t), spec.base_feature(t), atol=1e-15)


def test_block_stack_stages_telescope():
    spec = BlockStack(n_blocks=4, width=8, gain=0.8, seed=5)
    stages = spec.stage_outputs(0.3)
    total = stages[0] + sum(stages[b + 1] - stages[b] for b in range(4))
    np.testing.assert_allclose(total, stages[-1], atol=1e-12)


@pytest.mark.parametrize("n_blocks, width, mixing", [(1, 1, "rotation"), (4, 8, "rotation"), (3, 5, "identity")])
def test_stage_outputs_is_one_array_of_the_blocks_in_turn(n_blocks, width, mixing):
    spec = BlockStack(n_blocks=n_blocks, width=width, gain=0.8, mixing=mixing, seed=5)
    for t in (0.0, 0.3, 1.0):
        stages = spec.stage_outputs(t)
        assert isinstance(stages, np.ndarray)
        assert stages.dtype == float
        assert stages.shape == (n_blocks + 1, width)
        assert np.array_equal(stages[0], spec.base_feature(t))
        for rot, y, out in zip(spec._rotations, stages[:-1], stages[1:]):
            assert np.array_equal(out, y + spec.gain * np.tanh(rot @ y))
        assert np.array_equal(spec.features(t), stages[-1])


# BlockStack keywords -> the refused value, as the message names it
INVALID_BLOCK_STACKS = {
    "boolean block count": (dict(n_blocks=True), "block count must be an integer >= 1, got True"),
    "zero block count": (dict(n_blocks=0), "block count must be an integer >= 1, got 0"),
    "fractional block count": (dict(n_blocks=2.5), "block count must be an integer >= 1, got 2.5"),
    "fractional width": (dict(width=3.5), "feature width must be an integer >= 1, got 3.5"),
    "boolean width": (dict(width=True), "feature width must be an integer >= 1, got True"),
    "negative gain": (dict(gain=-0.5), "gain must be finite and >= 0, got -0.5"),
    "infinite gain": (dict(gain=float("inf")), "gain must be finite and >= 0, got inf"),
    "NaN gain": (dict(gain=float("nan")), "gain must be finite and >= 0, got nan"),
    "boolean gain": (dict(gain=True), "nonlinearity gain must be a number, got True"),
    "string gain": (dict(gain="0.5"), "nonlinearity gain must be a number, got '0.5'"),
}


@pytest.mark.parametrize("case", sorted(INVALID_BLOCK_STACKS))
def test_block_stack_refuses_invalid_values(case):
    kwargs, refused = INVALID_BLOCK_STACKS[case]
    with pytest.raises(ValueError, match=refused):
        BlockStack(**kwargs)


# each denoiser spec, built with the keywords given
SPECS = {
    "gaussian_mixture_flow": lambda **kw: GaussianMixtureFlow((1.0,), np.zeros((1, 2)), np.ones((1, 2)), **kw),
    "function_family": lambda **kw: FunctionFamily((PolynomialChannel((1.0,)),), **kw),
    "block_stack": lambda **kw: BlockStack(**kw),
}


@pytest.mark.parametrize("kind", sorted(SPECS))
@pytest.mark.parametrize("seed", [True, False, 1.5, -1])
def test_spec_refuses_a_seed_that_is_not_a_count(kind, seed):
    """A bool seed would be dumped as true, which a config refuses; a fraction or a negative is no seed at all."""
    with pytest.raises(ValueError, match=f"^seed must be an integer >= 0, got {seed!r}$"):
        SPECS[kind](seed=seed)


@pytest.mark.parametrize("kind", sorted(SPECS))
def test_spec_takes_an_integral_seed(kind):
    assert [type(SPECS[kind](seed=s).seed) for s in (3, np.int64(3), 3.0)] == [int, int, int]


@settings(max_examples=100, deadline=None)
@given(
    width=st.integers(1, 9) | st.just(256),
    n_blocks=st.integers(1, 3),
    seed=st.integers(0, 4),
    ts=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40),
)
def test_base_features_rows_are_bitwise_base_feature(width, n_blocks, seed, ts):
    spec = BlockStack(n_blocks=n_blocks, width=width, seed=seed)
    out = np.full((len(ts), width), np.nan)
    assert spec.base_features(np.array(ts), out=out) is out
    for row, t in zip(out, ts):
        assert row.tobytes() == spec.base_feature(t).tobytes()


def test_block_stack_takes_integral_floats_as_counts():
    spec = BlockStack(n_blocks=2.0, width=3.0)
    assert (type(spec.n_blocks), type(spec.width)) == (int, int)
    assert np.array_equal(spec.stage_outputs(0.3), BlockStack(n_blocks=2, width=3).stage_outputs(0.3))


def test_denoiser_rejects_bad_inputs():
    spec = single_gaussian(0.0, 1.0, 3)
    with pytest.raises(ValueError, match="timestep"):
        evaluate_denoiser(spec, np.zeros(3), 1.5)
    with pytest.raises(ValueError, match="shape"):
        evaluate_denoiser(spec, np.zeros(2), 0.5)


# --- euler ------------------------------------------------------------------


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
    schedule = uniform_schedule(20, 6, 1)  # first forecast at step 2, cache depth 1
    with pytest.raises(ValueError, match=r"taylor forecast at step 2 \(t=0.05\) cannot be made"):
        SolverConfig(schedule, ForecasterChoice(kind="taylor", order=3))


def test_rank_deficient_fit_fails_at_the_forecast_step():
    # 10,000 steps of 1e-4 and 12 warm-up passes: degree 8 at lambda=0 on
    # times within 0.0011 of each other, which the rank check refuses.  The
    # passes only fold their rows in, so the first forecast, step 13, fails,
    # and the config is refused before any pass.
    schedule = adaptive_schedule(ScheduleParams(n_steps=10_000, interval=5_000, warmup=12))
    with pytest.raises(ValueError, match=r"spectrum forecast at step 13 \(t=0.0012\) cannot be made.*rank-deficient"):
        SolverConfig(schedule, ForecasterChoice(kind="spectrum", degree=8, lam=0.0))


class _NanAfter(BlockStack):
    """Block stack whose output turns NaN from t = 0.3 on, from its base feature or a given one."""

    def stage_outputs(self, t, base=None):
        stages = super().stage_outputs(t, base)
        if t >= 0.3:
            stages[-1] = np.full_like(stages[-1], np.nan)
        return stages


@pytest.mark.parametrize("scope", ["last_block", "per_block"])
def test_non_finite_feature_fails_at_its_step(scope):
    spec = _NanAfter(n_blocks=2, width=3)
    config = SolverConfig(uniform_schedule(20, 2, 1), ForecasterChoice(kind="spectrum", cache_scope=scope))
    # t = (j-1)/20 >= 0.3 first at step 7, an actual pass of the interval-2 schedule
    with pytest.raises(SamplerError, match=r"the pass at step 7 \(t=0.3\).*non-finite"):
        run_sampler(spec, config, np.zeros(3))


def test_oracle_run_builds_its_config_once_per_step_count(monkeypatch):
    import chebcast.plan as plan
    import chebcast.sandbox as sandbox

    built = []

    def counting_plan(schedule, choice):
        built.append(schedule.n_steps)
        return plan_forecasts(schedule, choice)

    spec = single_gaussian(0.2, 1.1, 3)
    sandbox._oracle_config.cache_clear()
    monkeypatch.setattr(plan, "plan_forecasts", counting_plan)
    first, second = oracle_run(spec, 17, np.zeros(3)), oracle_run(spec, 17.0, np.ones(3))
    assert built == [17]
    assert first.flags == second.flags == ("actual",) * 17
    assert np.array_equal(oracle_run(spec, 17, np.zeros(3)).states, first.states)
    assert built == [17]


@pytest.mark.parametrize("n_steps", [True, 1.5, 0])
def test_oracle_run_checks_the_step_count_before_its_cache(n_steps):
    """True and 1.0 hash alike with 1, so the cache must not find a config of 1 for a bool."""
    spec = single_gaussian(0.2, 1.1, 2)
    oracle_run(spec, 1, np.zeros(2))
    with pytest.raises(ValueError, match=f"^n_steps must be an integer >= 1, got {n_steps!r}$"):
        oracle_run(spec, n_steps, np.zeros(2))


@pytest.mark.parametrize("family", sorted(SPECS))
@pytest.mark.parametrize("kind", ["oracle", "spectrum"])
def test_a_non_finite_initial_latent_is_refused(family, kind):
    """Else a block stack, whose features do not read the state, returns NaN and inf states without an error."""
    spec = SPECS[family]()
    config = SolverConfig(uniform_schedule(10, 2, 2), ForecasterChoice(kind=kind))
    for bad in (np.nan, np.inf):
        x0 = np.zeros(spec.dim)
        x0[-1] = bad
        with pytest.raises(ValueError, match=f"^initial latent must be finite, got {bad}$"):
            run_sampler(spec, config, x0)


@pytest.mark.parametrize(("dim", "seed", "refused"), [
    (True, 1, "latent dimension must be an integer >= 1, got True"),
    (2.5, 1, "latent dimension must be an integer >= 1, got 2.5"),
    (0, 1, "latent dimension must be an integer >= 1, got 0"),
    (2, True, "seed must be an integer >= 0, got True"),
    (2, 1.5, "seed must be an integer >= 0, got 1.5"),
])
def test_initial_latent_refuses_a_dimension_or_seed_that_is_not_a_count(dim, seed, refused):
    with pytest.raises(ValueError, match=f"^{refused}$"):
        sample_initial_latent(dim, seed)


def test_initial_latent_takes_integral_floats():
    assert np.array_equal(sample_initial_latent(3.0, 2.0), sample_initial_latent(3, 2))


def test_oracle_run_checks_every_pass():
    spec = FunctionFamily(channels=(PolynomialChannel((1.0, -0.5)), ExponentialChannel(0.5, 1000.0)))
    # 0.5 * exp(1000 t) overflows from t = 0.75 on, step 16 of 20
    with np.errstate(over="ignore"), pytest.raises(
        SamplerError, match=r"^oracle run: the pass at step 16 \(t=0.75\) gave a feature with non-finite entries$"
    ):
        oracle_run(spec, 20, np.zeros(2))


@pytest.mark.parametrize("kind", ["oracle", "naive", "taylor", "spectrum"])
def test_finite_features_whose_sum_overflows_are_accepted(kind):
    """Each pass's 256 features are finite, ~1e306 each, but their sum passes the float maximum 1.8e308."""
    rng = np.random.default_rng(5)
    spec = FunctionFamily(tuple(PolynomialChannel((c, 0.5 * c)) for c in 1e306 * rng.uniform(1.0, 2.0, 256)))
    assert sum(spec.features(0.0).tolist()) == math.inf  # Python floats overflow to inf without a warning
    config = SolverConfig(uniform_schedule(20, 3, 5), ForecasterChoice(kind=kind, degree=2))
    run = run_sampler(spec, config, np.zeros(spec.dim))
    assert np.isfinite(run.features).all() and np.isfinite(run.states).all()


@pytest.mark.parametrize("kind", ["oracle", "naive", "taylor", "spectrum"])
def test_a_feature_overflowing_at_a_pass_fails_at_that_step(kind):
    spec = FunctionFamily(channels=(PolynomialChannel((1.0,)), ExponentialChannel(1.0, 8000.0)))
    # exp(8000 t) is inf from t = 0.1 on, step 2 of 10, a pass of the warm-up
    config = SolverConfig(uniform_schedule(10, 2, 2), ForecasterChoice(kind=kind, order=0))
    with np.errstate(over="ignore"), pytest.raises(
        SamplerError, match=rf"^{kind} run: the pass at step 2 \(t=0.1\) gave a feature with non-finite entries$"
    ):
        run_sampler(spec, config, np.zeros(2))


@pytest.mark.parametrize("kind", ["naive", "taylor", "spectrum"])
def test_per_block_run_memory_is_its_arrays_and_one_fold_buffer(kind):
    """A per-block run holds its outputs, the pass store (the fold operand) and a stretch's forecast terms.

    At a spectral stretch numpy adds one Q^T H-sized buffer for the fold's
    overlap of its operand, which outweighs a pass's stage array and the two
    rows a stage makes on its way.  A Taylor or naive store has no Q^T H
    rows, so no fold and no buffer: its peak is at a pass.  12 KiB covers the
    Python objects.  A fresh (N, width) base array, a second fold operand,
    or the last pass's stage array held through a spectral stretch would not
    fit; nor would a pass ring beside the store.
    """
    spec = BlockStack(n_blocks=4, width=256, seed=1)
    choice = ForecasterChoice(kind=kind, cache_scope="per_block")
    config = SolverConfig(uniform_schedule(200, 2, 5), choice)
    x0 = sample_initial_latent(spec.dim, 1)
    run_sampler(spec, config, x0)
    tracemalloc.start()
    try:
        run = run_sampler(spec, config, x0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    row = spec.width * 8
    n_rows, n_coef = config.plan.n_rows, config.plan.n_coef
    assert n_coef == (choice.degree + 1 if kind == "spectrum" else 0)
    longest = max(config.plan.lengths)
    arrays = (
        run.states.nbytes + run.features.nbytes
        + spec.n_blocks * (n_coef + n_rows) * row  # the pass store, which is the fold operand
        + longest * spec.n_blocks * row  # the forecast terms
        # numpy's buffer for the fold's overlap, or else a pass's stages and the two rows a stage makes
        + max(spec.n_blocks * n_coef * row, (spec.n_blocks + 1 + 2) * row)
    )
    assert peak <= arrays + 12 * 2**10


@pytest.mark.parametrize("kind", ["oracle", "naive", "taylor", "spectrum"])
def test_run_memory_does_not_grow_with_the_steps_beyond_its_outputs(kind):
    """A run allocates its states, features and times, and only a few KiB besides, however many steps it takes.

    The plan holds the step times as Python floats: a list of them made a
    run would add ~32 bytes a step (64 KB here).
    """
    spec = FunctionFamily(channels=(SineChannel(amplitude=0.5, frequency=1.5),))
    config = SolverConfig(uniform_schedule(2000, 1 if kind == "oracle" else 2, 5), ForecasterChoice(kind=kind))
    x0 = sample_initial_latent(spec.dim, 1)
    run_sampler(spec, config, x0)
    tracemalloc.start()
    try:
        run = run_sampler(spec, config, x0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= run.states.nbytes + run.features.nbytes + run.times.nbytes + 8 * 2**10


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
    # counts n_blocks fits per actual pass, the per-block fits its one
    # residual fit stands for, versus one.
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


def assert_refused_alike(schedule, choice, err):
    """The reference's refusal err is what SolverConfig, through plan_forecasts, raises: message and cause type."""
    with pytest.raises(ValueError) as raised:
        SolverConfig(schedule, choice)
    assert str(raised.value) == str(err)
    assert type(raised.value.__cause__) is type(err.__cause__)


def test_per_block_forecast_is_base_plus_weights_over_width_residuals():
    """Each block's width-wide residuals go through the planned fold; a forecast is base plus every block's w @ Q^T H."""
    spec = BlockStack(n_blocks=3, width=5, seed=1)
    choice = ForecasterChoice(kind="spectrum", window=4, cache_scope="per_block")
    config = SolverConfig(uniform_schedule(30, 3, 2), choice)
    run = run_sampler(spec, config, sample_initial_latent(spec.dim, 0))
    actual = [i for i, flag in enumerate(run.flags) if flag == "actual"]
    stages = [spec.stage_outputs(run.times[i]) for i in actual]
    residuals = np.array([[y[b + 1] - y[b] for y in stages] for b in range(spec.n_blocks)])
    assert residuals.shape == (spec.n_blocks, len(actual), spec.width)
    forecasts, qth = [], None
    for *_, stretch in config.plan.passes:
        if stretch is None:
            continue
        steps = range(stretch.start, stretch.stop)
        assert stretch.weights.shape == (len(steps), choice.degree + 1)
        assert stretch.hi - stretch.lo <= choice.window  # evicted passes are never folded in
        # each block's Q^T H over its width residual columns, carried from stretch to stretch
        prior = np.zeros((spec.n_blocks, choice.degree + 1, spec.width)) if stretch.fresh else qth
        qth = np.array([stretch.fold.T @ np.vstack([p, r[stretch.lo:stretch.hi]]) for p, r in zip(prior, residuals)])
        assert qth.shape == (spec.n_blocks, choice.degree + 1, spec.width)
        for i, w in zip(steps, stretch.weights):
            expected = spec.base_feature(run.times[i])
            for block in qth:
                expected = expected + w @ block[: w.size]
            np.testing.assert_array_equal(run.features[i], expected)
        forecasts.extend(steps)
    assert forecasts == [i for i, flag in enumerate(run.flags) if flag == "forecast"]
    assert forecasts


def test_per_block_oracle_run_is_bitwise_the_last_block_oracle_run():
    """Every oracle step is a pass, whose stages summed from the base feature are the denoiser's output."""
    spec = BlockStack(n_blocks=4, width=64, seed=1)
    x0 = sample_initial_latent(spec.dim, 3)
    config = SolverConfig(uniform_schedule(40, 1, 1), ForecasterChoice(kind="oracle", cache_scope="per_block"))
    per = run_sampler(spec, config, x0)
    last = oracle_run(spec, 40, x0)
    assert per.flags == last.flags == ("actual",) * 40
    assert per.states.tobytes() == last.states.tobytes()
    assert per.features.tobytes() == last.features.tobytes()
    assert per.fit_count == last.fit_count == 0


def test_gate9_plan_folds_at_the_forecasts_and_never_solves_coefficients(monkeypatch):
    """Planning folds passes with no forecast between them together; no forecast solves for C."""
    import chebcast.plan as plan
    import chebcast.ridge as ridge

    config = load_config(str(Path(__file__).parent / "data" / "gate9_config.json"))
    rows = []
    real_fold = plan.fold_rows

    def counting_fold(factor, new_rows):
        rows.append(new_rows.shape[0])
        return real_fold(factor, new_rows)

    monkeypatch.setattr(plan, "fold_rows", counting_fold)
    solver = SolverConfig(adaptive_schedule(config.schedule), config.forecaster)
    # schedule 1,2,3,4,5,7,12,20,31,45: the first forecast (step 6) reads five passes
    assert rows == [5, 1, 1, 1, 1, 1]
    # the names chebcast.ridge defines, not the ones it imports: it has no coefficient solve to call
    defined = {
        name
        for name, value in vars(ridge).items()
        if not name.startswith("_")
        and not inspect.ismodule(value)
        and getattr(value, "__module__", ridge.__name__) == ridge.__name__
    }
    assert defined == {
        "RidgeFactor", "RidgeFitError", "DEFAULT_LAMBDA",
        "fold_rows", "rotate_features", "leading_triangle", "min_singular",
    }
    run = run_sampler(config.spec, solver, sample_initial_latent(config.spec.dim, config.seeds[0]))
    assert rows == [5, 1, 1, 1, 1, 1]
    assert run.fit_count == 10


@pytest.mark.parametrize("cache_scope", ["last_block", "per_block"])
def test_plan_folds_the_design_alone_and_never_carries_features(monkeypatch, cache_scope):
    """Planning a spectral config folds the rows of the passes only; Q^T H is the run's to carry."""
    import chebcast.ridge as ridge

    def forbidden(*args, **kwargs):
        raise AssertionError("a plan folds no features")

    monkeypatch.setattr(ridge, "rotate_features", forbidden)
    choice = ForecasterChoice(kind="spectrum", window=3, cache_scope=cache_scope)
    config = SolverConfig(adaptive_schedule(ScheduleParams(40, 2, 4, 1.0)), choice)
    stretches = [stretch for *_, stretch in config.plan.passes if stretch is not None]
    assert stretches and all(stretch.fold is not None for stretch in stretches)


def test_run_on_a_built_config_never_fits_or_forecasts(monkeypatch):
    import chebcast.plan as plan

    spec = BlockStack(n_blocks=2, width=6, seed=3)
    schedule = adaptive_schedule(ScheduleParams(40, 2, 4, 1.0))
    configs = [
        SolverConfig(schedule, choice)
        for choice in (
            ForecasterChoice(kind="spectrum"),
            ForecasterChoice(kind="spectrum", window=3, cache_scope="per_block"),
            ForecasterChoice(kind="taylor", order=2, window=5),
            ForecasterChoice(kind="naive"),
        )
    ]

    def forbidden(*args, **kwargs):
        raise AssertionError("a run must only read its plan")

    # every name the plan computes its weights and folds through
    for name in ("basis_matrix", "fold_rows", "leading_triangle", "spectral_weights", "taylor_weights"):
        monkeypatch.setattr(plan, name, forbidden)
    for config in configs:
        run = run_sampler(spec, config, sample_initial_latent(spec.dim, 1))
        assert "forecast" in run.flags


def stepwise_reference(spec, schedule, choice, x0):
    """The sampler as one loop over the steps: observe, predict and an Euler step at each.

    Per-block caching keeps one independent forecaster of the kind per
    block.  A forecast the forecasters cannot make raises forecast_refused.
    """
    per_block = choice.cache_scope == "per_block"
    if choice.kind == "spectrum":
        forecasters = [
            SpectralForecaster(SpectralConfig(choice.degree, choice.lam), window=choice.window)
            for _ in range(spec.n_blocks if per_block else 1)
        ]
    else:  # naive reuse is Taylor order 0
        forecasters = [
            TaylorForecaster(order=choice.order if choice.kind == "taylor" else 0, window=choice.window)
            for _ in range(spec.n_blocks if per_block else 1)
        ]
    n = schedule.n_steps
    dt = 1.0 / n
    x = np.asarray(x0, dtype=float)
    states, features, flags = [], [], []
    for j in range(1, n + 1):
        t = (j - 1) * dt
        if schedule.is_full_pass(j):
            if per_block:
                stages = spec.stage_outputs(t)
                h, targets = stages[-1], [stages[b + 1] - stages[b] for b in range(spec.n_blocks)]
            else:
                h = evaluate_denoiser(spec, x, t)
                targets = [h]
            try:
                for fc, target in zip(forecasters, targets):
                    fc.observe(t, target)
            except ValueError as err:
                raise SamplerError(f"{choice.kind} run: the pass at step {j} (t={t:g}) failed: {err}") from err
            flags.append("actual")
        else:
            try:
                if per_block:
                    h = spec.base_feature(t)
                    for fc in forecasters:
                        h = h + fc.predict(t)
                else:
                    h = forecasters[0].predict(t)
            except (ValueError, RidgeFitError) as err:
                raise forecast_refused(choice.kind, j, t, err) from err
            flags.append("forecast")
        x = x + ((t + dt if j < n else 1.0) - t) * h  # the Euler step
        states.append(x)
        features.append(h)
    return np.array(states), np.array(features), tuple(flags), sum(fc.fit_count for fc in forecasters)


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(["naive", "taylor", "spectrum"]),
    order=st.integers(1, 3),
    degree=st.integers(0, 6),
    lam=st.sampled_from([0.0, 1e-3, 0.1]),
    window=st.none() | st.integers(1, 8),
    per_block=st.booleans(),
    mixture=st.booleans(),
    n_steps=st.integers(1, 60),
    interval=st.integers(1, 6),
    warmup=st.integers(1, 6),
    alpha=st.sampled_from([0.0, 0.5, 3.0]),
    width=st.integers(1, 9),
    n_blocks=st.integers(1, 9),
    gain=st.floats(0.0, 2.5),
    mixing=st.sampled_from(["rotation", "identity"]),
)
# eight per-block forecasts of width 1: a pairwise sum over the blocks differs from adding them in block order
@example(kind="spectrum", order=1, degree=4, lam=1e-3, window=None, per_block=True, mixture=False,
         n_steps=40, interval=3, warmup=4, alpha=0.5, width=1, n_blocks=8, gain=1.5, mixing="rotation")
# the stretch after each pass takes the pass's Euler step: one-step stretches (two adds), last-block and per-block
@example(kind="naive", order=1, degree=4, lam=0.1, window=None, per_block=False, mixture=True,
         n_steps=20, interval=2, warmup=3, alpha=0.0, width=3, n_blocks=2, gain=1.5, mixing="rotation")
@example(kind="spectrum", order=1, degree=3, lam=0.1, window=None, per_block=True, mixture=False,
         n_steps=20, interval=2, warmup=3, alpha=0.0, width=4, n_blocks=3, gain=1.5, mixing="rotation")
# multi-step stretches after passes at steps 3, 7, ...: the running sum starts from x, the state row above the pass
@example(kind="spectrum", order=1, degree=2, lam=0.1, window=None, per_block=False, mixture=True,
         n_steps=30, interval=4, warmup=3, alpha=0.0, width=3, n_blocks=2, gain=1.5, mixing="rotation")
# a multi-step stretch right after step 1: the running sum starts from x, the initial latent, in no state row
@example(kind="spectrum", order=1, degree=2, lam=0.1, window=None, per_block=False, mixture=True,
         n_steps=20, interval=3, warmup=1, alpha=0.0, width=3, n_blocks=2, gain=1.5, mixing="rotation")
# per-block reuse and Taylor: each block's newest passes weighed in place, and, for order 2 in a window of 3,
# the two a later stretch reads again slid down under it after every stretch
@example(kind="naive", order=1, degree=4, lam=0.1, window=None, per_block=True, mixture=False,
         n_steps=30, interval=3, warmup=2, alpha=0.5, width=4, n_blocks=3, gain=1.5, mixing="rotation")
@example(kind="taylor", order=2, degree=4, lam=0.1, window=3, per_block=True, mixture=False,
         n_steps=30, interval=3, warmup=3, alpha=0.0, width=4, n_blocks=3, gain=1.5, mixing="rotation")
# per-block spectral at the default settings; with a window of 5, evicted from the 6th of 13 passes on; and at
# lambda = 0, where the forecasts at steps 2-3, ..., 11-12 fit fewer than degree + 1 points
@example(kind="spectrum", order=1, degree=4, lam=0.1, window=None, per_block=True, mixture=False,
         n_steps=50, interval=4, warmup=3, alpha=0.0, width=16, n_blocks=3, gain=1.5, mixing="rotation")
@example(kind="spectrum", order=1, degree=4, lam=0.1, window=5, per_block=True, mixture=False,
         n_steps=50, interval=4, warmup=1, alpha=0.0, width=16, n_blocks=3, gain=1.5, mixing="rotation")
@example(kind="spectrum", order=1, degree=4, lam=0.0, window=None, per_block=True, mixture=False,
         n_steps=40, interval=3, warmup=1, alpha=0.0, width=16, n_blocks=3, gain=1.5, mixing="rotation")
def test_planned_run_matches_the_stepwise_run(
    kind, order, degree, lam, window, per_block, mixture, n_steps, interval, warmup, alpha, width, n_blocks, gain,
    mixing,
):
    if mixture and not per_block:  # the state feeds back into every actual pass
        spec = GaussianMixtureFlow(
            weights=(0.6, 0.4), means=np.array([[1.0, -2.0, 0.5], [-1.5, 1.0, 2.0]]), variances=np.full((2, 3), 0.3)
        )
    else:
        spec = BlockStack(n_blocks=n_blocks, width=width, gain=gain, mixing=mixing, seed=4)
    choice = ForecasterChoice(
        kind=kind, order=order, degree=degree, lam=lam, window=window,
        cache_scope="per_block" if per_block else "last_block",
    )
    schedule = adaptive_schedule(ScheduleParams(n_steps, interval, min(warmup, n_steps), alpha))
    x0 = sample_initial_latent(spec.dim, 8)
    try:
        states, features, flags, fit_count = stepwise_reference(spec, schedule, choice, x0)
    except ValueError as err:
        assert_refused_alike(schedule, choice, err)
        return
    run = run_sampler(spec, SolverConfig(schedule, choice), x0)
    assert run.flags == flags
    assert run.fit_count == fit_count
    if kind in ("naive", "spectrum"):  # the forecasters' own products, in their order
        assert np.array_equal(run.features, features)
        assert np.array_equal(run.states, states)
    else:  # planned Lagrange weights times the passes, against the divided differences
        scale = 1e-12 * max(1.0, np.max(np.abs(features)))
        assert np.max(np.abs(run.features - features)) <= scale
        assert np.max(np.abs(run.states - states)) <= scale


def assert_same_operand(got, want, base):
    """Two stretch operands bitwise equal, got a view of base: the plan holds no second copy of it."""
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert np.shares_memory(got, base)


def assert_same_plan(plan, reference):
    """Every field of two plans equal, the floats bitwise, and each stretch's run operands views of its arrays."""
    assert np.array_equal(plan.times, reference.times)
    assert np.array_equal(plan.increments, reference.increments)
    assert plan.flags == reference.flags
    assert plan.n_rows == reference.n_rows
    stretches = [s for *_, s in plan.passes if s is not None]
    assert plan.lengths == reference.lengths == tuple(sorted({s.stop - s.start for s in stretches}))
    assert plan.widths == reference.widths == tuple(sorted({s.w.shape[3] for s in stretches}))
    assert [j for j, *_ in plan.passes] == [j for j, flag in enumerate(plan.flags) if flag == "actual"]
    assert len(plan.passes) == len(reference.passes)
    for (j, t, row, got), (j_ref, t_ref, row_ref, want) in zip(plan.passes, reference.passes):
        assert (j, row) == (j_ref, row_ref)
        # the pass's time as a Python float, bitwise its entry of the times
        assert type(t) is float and type(t_ref) is float
        assert np.array([t, t_ref]).tobytes() == plan.times[[j, j]].tobytes()
        assert (got is None) == (want is None)
        if got is None:
            continue
        assert (got.start, got.stop, got.lo, got.hi) == (want.start, want.stop, want.lo, want.hi)
        assert got.start == j + 1  # the stretch right after the pass
        assert got.fresh == want.fresh
        assert got.moves == want.moves
        assert got.weights.shape == want.weights.shape
        assert got.weights.tobytes() == want.weights.tobytes()
        assert got.reads == want.reads == plan.n_coef + got.hi - got.lo
        # the Euler increments of the pass before the stretch and of its steps, the very view of the plan's
        assert_same_operand(got.increments, want.increments, plan.increments)
        assert got.increments.shape == (got.stop - got.start + 1, 1)
        column = plan.increments[got.start - 1 : got.stop, None]
        assert got.increments.__array_interface__ == column.__array_interface__
        # every kind's forecasts are one stacked product of its w with the store's leading rows
        assert_same_operand(got.w, want.w, got.weights)
        assert got.w.shape == (got.stop - got.start, 1, 1, got.weights.shape[1])
        assert (got.fold is None) == (want.fold is None) == (got.fold_t is None)
        if got.fold is not None:
            assert got.fold.shape == want.fold.shape
            assert got.fold.tobytes() == want.fold.tobytes()
            assert_same_operand(got.fold_t, want.fold_t, got.fold)
            assert np.array_equal(got.fold_t, got.fold.T)


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(["oracle", "naive", "taylor", "spectrum"]),
    order=st.integers(0, 4),
    degree=st.integers(0, 8),
    lam=st.sampled_from([0.0, 1e-3, 0.1]),
    window=st.none() | st.integers(1, 8),
    n_steps=st.integers(1, 60),
    interval=st.integers(1, 6),
    warmup=st.integers(1, 6),
    alpha=st.sampled_from([0.0, 0.5, 3.0]),
)
# 10,000 steps of 1e-4: degree 6-8 at lambda=0 on the warm-up passes is rank-deficient at the first forecast
@example(kind="spectrum", order=1, degree=8, lam=0.0, window=None, n_steps=10_000, interval=5_000, warmup=12, alpha=0.0)
@example(kind="spectrum", order=1, degree=6, lam=0.0, window=8, n_steps=10_000, interval=5_000, warmup=9, alpha=0.0)
# a window of 3 evicts from the 4th pass on, so each fit is folded afresh; at lambda=0 its degree is capped at 2
@example(kind="spectrum", order=1, degree=4, lam=0.0, window=3, n_steps=40, interval=3, warmup=2, alpha=0.5)
# an order-3 forecast at step 3, with two passes cached, or one through a window of 1
@example(kind="taylor", order=3, degree=4, lam=0.1, window=None, n_steps=20, interval=4, warmup=2, alpha=0.0)
@example(kind="taylor", order=1, degree=4, lam=0.1, window=1, n_steps=20, interval=2, warmup=3, alpha=0.0)
def test_plan_from_the_times_is_bitwise_the_reference_plan(
    kind, order, degree, lam, window, n_steps, interval, warmup, alpha
):
    """plan_forecasts, from the times alone, against the stateful forecasters run on unit feature vectors."""
    schedule = adaptive_schedule(ScheduleParams(n_steps, interval, min(warmup, n_steps), alpha))
    choice = ForecasterChoice(kind=kind, order=order, degree=degree, lam=lam, window=window)
    try:
        reference = reference_plan(schedule, choice)
    except ValueError as err:
        assert_refused_alike(schedule, choice, err)
        return
    assert_same_plan(plan_forecasts(schedule, choice), reference)


def replay_pass_store(plan):
    """Replay the plan's writes and moves on pass indices; yield (stretch, the pass each store row holds) as it runs.

    A row holds -1 until a pass is written there.  Every pass that a
    stretch still to run reads must sit somewhere in the store after each
    write and each stretch's moves: none is overwritten before its last
    reader.
    """
    store = np.full(plan.n_coef + plan.n_rows, -1)
    stretches = [s for *_, s in plan.passes if s is not None]
    last = {p: i for i, s in enumerate(stretches) for p in range(s.lo, s.hi)}  # each pass's last reader
    done = k = 0  # stretches run, passes written

    def assert_live_kept():
        held = set(store.tolist())
        assert all(p in held for p in range(k) if last.get(p, -1) >= done)

    for _, _, row, stretch in plan.passes:
        store[row] = k
        k += 1
        assert_live_kept()
        if stretch is not None:
            yield stretch, store.copy()
            for source, destination in stretch.moves:
                assert isinstance(source, slice) and isinstance(destination, slice)  # never a fancy index
                assert source.step is None and destination.step is None
                store[destination] = store[source]  # numpy's overlap semantics, as the run's moves
            done += 1
            assert_live_kept()
    assert done == len(stretches)


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(["oracle", "naive", "taylor", "spectrum"]),
    order=st.integers(0, 4),
    degree=st.integers(0, 6),
    window=st.none() | st.integers(1, 8),
    n_steps=st.integers(1, 60),
    interval=st.integers(1, 6),
    warmup=st.integers(1, 8),
    alpha=st.sampled_from([0.0, 0.5, 3.0]),
)
# a window of 4 over passes at steps 1, 2, 5, 8, 11: stretches fold passes 0-1, 2 and 3, parking 1-2 until
# the first eviction folds 1-4 afresh; each stretch after it slides 2-4 down under the next
@example(kind="spectrum", order=1, degree=4, window=4, n_steps=20, interval=3, warmup=2, alpha=0.0)
# order 1 at interval 2: each stretch slides its newer pass down under the next
@example(kind="taylor", order=1, degree=4, window=None, n_steps=50, interval=2, warmup=5, alpha=3.0)
def test_pass_store_lets_every_stretch_read_its_passes_in_place(
    kind, order, degree, window, n_steps, interval, warmup, alpha
):
    schedule = adaptive_schedule(ScheduleParams(n_steps, interval, min(warmup, n_steps), alpha))
    try:
        plan = plan_forecasts(schedule, ForecasterChoice(kind=kind, order=order, degree=degree, window=window))
    except ValueError:  # a forecast the plan cannot make: no layout to check
        return
    assert plan.n_coef == (degree + 1 if kind == "spectrum" else 0)
    assert all(plan.n_coef <= row < plan.n_coef + plan.n_rows for _, _, row, _ in plan.passes)
    # the stretches, each after its pass, cover every skipped step once
    skipped = [i for *_, s in plan.passes if s is not None for i in range(s.start, s.stop)]
    assert skipped == [j for j, flag in enumerate(plan.flags) if flag == "forecast"]
    stretches = []
    for stretch, store in replay_pass_store(plan):
        stretches.append(stretch)
        # exactly passes lo..hi-1, at the first pass rows, directly under the Q^T H rows
        read = store[plan.n_coef : plan.n_coef + stretch.hi - stretch.lo]
        assert read.tolist() == list(range(stretch.lo, stretch.hi))
    if kind == "spectrum" and window is None:  # each pass is folded once, where it was written
        assert all(not s.moves for s in stretches)


def test_every_run_reads_its_passes_without_concatenating(monkeypatch):
    """The store holds each stretch's passes in place: no run of any kind joins them, as a wrapped ring once did."""
    spec = BlockStack(n_blocks=3, width=5, seed=2)
    schedule = uniform_schedule(40, 2, 5)
    choices = [
        ForecasterChoice(kind="oracle"),
        ForecasterChoice(kind="naive"),
        ForecasterChoice(kind="taylor", order=1),
        ForecasterChoice(kind="taylor", order=3, window=4),
        ForecasterChoice(kind="spectrum"),
        ForecasterChoice(kind="spectrum", window=5),
        ForecasterChoice(kind="spectrum", window=5, cache_scope="per_block"),
    ]
    configs = [SolverConfig(schedule, choice) for choice in choices]  # planning folds through np.concatenate
    x0 = sample_initial_latent(spec.dim, 3)  # and seeding joins its entropy with it

    def forbidden(*args, **kwargs):
        raise AssertionError("a run reads its passes in place")

    monkeypatch.setattr(np, "concatenate", forbidden)
    for config in configs:
        run = run_sampler(spec, config, x0)
        assert np.isfinite(run.states).all()
    assert any(s is not None and s.moves for config in configs for *_, s in config.plan.passes)


def test_per_block_pass_starts_from_the_base_already_in_the_features(monkeypatch):
    """Every step's base feature is made once, before the loop; a pass does not make its own."""
    spec = BlockStack(n_blocks=3, width=5, seed=2)
    config = SolverConfig(uniform_schedule(30, 2, 5), ForecasterChoice(kind="spectrum", cache_scope="per_block"))
    x0 = sample_initial_latent(spec.dim, 3)
    expected = run_sampler(spec, config, x0)

    def forbidden(self, t):
        raise AssertionError("a per-block pass reads its base feature from the features")

    monkeypatch.setattr(BlockStack, "base_feature", forbidden)
    run = run_sampler(spec, config, x0)
    assert np.array_equal(run.features, expected.features) and np.array_equal(run.states, expected.states)


@pytest.mark.parametrize("kind", ["taylor", "naive"])
def test_local_planning_memory_is_linear_in_nfe(kind):
    """A Taylor or naive plan holds order+1 weights a forecast, never one per cached pass."""
    # the plan depends on the schedule and the choice alone, whatever the denoiser
    schedule = uniform_schedule(2000, 2, 5)  # NFE 1,000
    tracemalloc.start()
    try:
        plan_forecasts(schedule, ForecasterChoice(kind=kind))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_plan_takes_no_part_in_config_identity():
    params = ScheduleParams(50, 2, 5, 3.0)
    a = SolverConfig(adaptive_schedule(params), ForecasterChoice(kind="spectrum"))
    b = SolverConfig(adaptive_schedule(params), ForecasterChoice(kind="spectrum"))
    assert a.plan is not b.plan
    assert a == b
    assert hash(a) == hash(b)
    assert "plan" not in repr(a)
    assert "weights" not in repr(a)
    assert a != SolverConfig(adaptive_schedule(params), ForecasterChoice(kind="spectrum", lam=0.2))


class _NanOnce(BlockStack):
    """Block stack whose last block's residual is NaN at t = 0.4 only, from its base feature or a given one."""

    def stage_outputs(self, t, base=None):
        stages = super().stage_outputs(t, base)
        if t == 0.4:
            stages[-1] = stages[-1].copy()
            stages[-1][0] = np.nan
        return stages


def test_per_block_nan_residual_fails_at_its_step():
    spec = _NanOnce(n_blocks=3, width=4)
    config = SolverConfig(uniform_schedule(20, 2, 1), ForecasterChoice(kind="spectrum", cache_scope="per_block"))
    # t = 0.4 is step 9, an actual pass of the interval-2 schedule
    with pytest.raises(SamplerError, match=r"the pass at step 9 \(t=0.4\).*non-finite"):
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
    for step in (2.7, True):  # int() would read them as steps 2 and 1
        with pytest.raises(ValueError, match=f"^checkpoint must be an integer >= 1, got {step!r}$"):
            rmse_vs_oracle(a, a, [step])
    assert rmse_vs_oracle(a, a, [np.int64(5), 10.0]) == [0.0, 0.0]


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
    with pytest.raises(ValueError, match="order"):
        ForecasterChoice(kind="taylor", order=-1)
    with pytest.raises(ValueError, match="cache window must be an integer >= 1, got 0"):
        ForecasterChoice(kind="spectrum", window=0)
    with pytest.raises(ValueError, match="cache window must be an integer >= 1, got -1"):
        ForecasterChoice(kind="taylor", window=-1)


@pytest.mark.parametrize("order", [1.5, True])
def test_forecaster_choice_rejects_a_fractional_or_bool_order(order):
    with pytest.raises(ValueError, match=f"taylor order must be an integer >= 0, got {order!r}"):
        ForecasterChoice(kind="taylor", order=order)


@pytest.mark.parametrize("kind", ["taylor", "spectrum"])
@pytest.mark.parametrize("window", [2.5, True])
def test_forecaster_choice_rejects_a_fractional_or_bool_window(kind, window):
    with pytest.raises(ValueError, match=f"cache window must be an integer >= 1, got {window!r}"):
        ForecasterChoice(kind=kind, window=window)


@pytest.mark.parametrize("lam", ["0.1", True, None])
def test_forecaster_choice_refuses_a_lambda_that_is_not_a_number(lam):
    """Not converted: float() would take "0.1" as 0.1 and True as 1.0."""
    with pytest.raises(ValueError, match=f"^regularization strength must be a number, got {lam!r}$"):
        ForecasterChoice(kind="spectrum", lam=lam)


def test_forecaster_choice_takes_an_integral_float_order():
    choice = ForecasterChoice(kind="taylor", order=2.0)
    assert type(choice.order) is int and choice.order == 2
    # passes at t = 0, 0.1 and 0.2; forecasts at t = 0.3, ..., 0.9, each weighing all three passes
    stretch = plan_forecasts(uniform_schedule(10, 8, 3), choice).passes[2][3]  # after the pass at t = 0.2
    assert stretch.start == 3 and stretch.weights.shape == (7, 3)


def test_velocity_at_unit_time_returns_state():
    spec = single_gaussian(1.2, 0.49, 3)
    x = np.array([0.4, -1.0, 2.0])
    np.testing.assert_allclose(spec.velocity(x, 1.0), x, atol=1e-12)
