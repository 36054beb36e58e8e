"""Tests for the feature cache and the three forecasters."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chebcast import (
    EllipseBound,
    FeatureCache,
    RidgeFitError,
    SpectralConfig,
    basis_row,
    min_singular,
    naive_forecast,
    project_time,
    spectral_bound,
    spectral_fit,
    spectral_forecast,
    taylor_forecast,
)
from chebcast.forecasters import SpectralForecaster
from chebcast.ridge import build_design

from oracles import brute_ridge, taylor_uniform_prediction


def filled_cache(pairs):
    cache = FeatureCache()
    for t, h in pairs:
        cache.insert(t, h)
    return cache


# --- cache ---------------------------------------------------------------


def test_insert_and_len():
    cache = filled_cache([(0.0, [1.0, 2.0])])
    assert len(cache) == 1
    assert cache.feature_dim == 2


@settings(max_examples=100, deadline=None)
@given(
    capacity=st.integers(1, 10),
    times=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=25, unique=True).map(sorted),
)
@example(capacity=2, times=[0.0, 0.1, 0.2])
def test_window_eviction(capacity, times):
    cache = FeatureCache(capacity=capacity)
    for i, t in enumerate(times):
        cache.insert(t, [i + 1.0])
    kept = min(capacity, len(times))
    assert len(cache) == kept
    np.testing.assert_array_equal(cache.times(), times[-kept:])
    np.testing.assert_array_equal(cache.feature_stack()[:, 0], np.arange(1, len(times) + 1)[-kept:])
    assert cache.latest()[0] == times[-1]
    assert cache.latest()[1][0] == naive_forecast(cache, 1.0)[0] == len(times)


def test_non_monotone_insert_rejected():
    cache = filled_cache([(0.1, [1.0])])
    with pytest.raises(ValueError, match="strictly increasing"):
        cache.insert(0.1, [2.0])
    with pytest.raises(ValueError, match="strictly increasing"):
        cache.insert(0.05, [2.0])


def test_length_mismatch_rejected():
    cache = filled_cache([(0.0, [1.0, 2.0])])
    with pytest.raises(ValueError, match="length"):
        cache.insert(0.1, [1.0])


# --- naive ----------------------------------------------------------------


def test_naive_copies_latest():
    cache = filled_cache([(0.1, [3.0]), (0.3, [5.0])])
    np.testing.assert_array_equal(naive_forecast(cache, 0.5), [5.0])


def test_naive_zero_vector():
    cache = filled_cache([(0.0, [0.0, 0.0])])
    np.testing.assert_array_equal(naive_forecast(cache, 0.9), [0.0, 0.0])


def test_naive_returns_independent_copy():
    cache = filled_cache([(0.0, [1.0])])
    out = naive_forecast(cache, 0.5)
    out[0] = 99.0
    assert naive_forecast(cache, 0.5)[0] == 1.0


def test_naive_empty_cache_errors():
    with pytest.raises(ValueError, match="empty"):
        naive_forecast(FeatureCache(), 0.5)


# --- taylor ---------------------------------------------------------------


def test_order_zero_is_bitwise_naive():
    rng = np.random.default_rng(0)
    cache = filled_cache([(t, rng.normal(size=4)) for t in (0.0, 0.1, 0.25)])
    assert np.array_equal(taylor_forecast(cache, 0.4, 0), naive_forecast(cache, 0.4))


def test_linear_channel_is_exact():
    cache = filled_cache([(t, [2.0 + 3.0 * t]) for t in (0.0, 0.1, 0.2, 0.3)])
    assert taylor_forecast(cache, 0.7, 1)[0] == pytest.approx(4.1, abs=1e-12)


def test_two_point_extrapolation_value():
    # slope (2-1)/0.2 = 5, anchored at t=0.2, queried 0.4 ahead -> 4.0
    cache = filled_cache([(0.0, [1.0]), (0.2, [2.0])])
    assert taylor_forecast(cache, 0.6, 1)[0] == pytest.approx(4.0, abs=1e-12)


def test_uniform_spacing_matches_difference_form():
    rng = np.random.default_rng(1)
    values = rng.normal(size=(5, 3))
    times = [0.1, 0.2, 0.3, 0.4, 0.5]
    cache = filled_cache(list(zip(times, values)))
    for order in (1, 2, 3):
        for steps_ahead in (0.5, 1.0, 2.5):
            got = taylor_forecast(cache, 0.5 + 0.1 * steps_ahead, order)
            want = taylor_uniform_prediction(values[-(order + 1):], 0.1, steps_ahead, order)
            np.testing.assert_allclose(got, want, atol=1e-12)


def test_insufficient_depth_errors():
    cache = filled_cache([(0.0, [1.0])])
    with pytest.raises(ValueError, match="cached entries"):
        taylor_forecast(cache, 0.5, 1)


# --- spectral ---------------------------------------------------------------


def test_polynomial_interpolation_reproduces_cache():
    rng = np.random.default_rng(2)
    coeffs = rng.normal(size=(5, 3))
    times = np.sort(rng.uniform(0.0, 1.0, 5))
    cache = filled_cache([(t, basis_row(4, project_time(t)) @ coeffs) for t in times])
    state = spectral_fit(cache, SpectralConfig(degree=4, lam=0.0))
    for t in times:
        expected = basis_row(4, project_time(t)) @ coeffs
        np.testing.assert_allclose(spectral_forecast(state, t), expected, atol=1e-9)


def test_polynomial_exactness_all_degrees():
    rng = np.random.default_rng(3)
    for degree in range(7):
        for _ in range(3):
            coeffs = rng.normal(size=(degree + 1, 2))
            while True:
                times = np.sort(rng.uniform(0.0, 1.0, degree + 1))
                if degree == 0 or np.min(np.diff(times)) > 0.04:
                    break
            cache = filled_cache([(t, basis_row(degree, project_time(t)) @ coeffs) for t in times])
            state = spectral_fit(cache, SpectralConfig(degree=degree, lam=0.0))
            for t_query in rng.uniform(0.0, 1.0, 50):
                expected = basis_row(degree, project_time(t_query)) @ coeffs
                np.testing.assert_allclose(spectral_forecast(state, t_query), expected, atol=1e-9)


def test_single_point_ridge_shrinkage():
    cache = filled_cache([(0.3, [2.0, -1.0])])
    state = spectral_fit(cache, SpectralConfig(degree=4, lam=0.1))
    pred = spectral_forecast(state, 0.3)
    row = basis_row(4, project_time(0.3))
    shrink = (row @ row) / (row @ row + 0.1)
    np.testing.assert_allclose(pred, shrink * np.array([2.0, -1.0]), atol=1e-12)
    assert np.linalg.norm(pred) < np.linalg.norm([2.0, -1.0])
    # cross-check against the brute-force normal-equation oracle
    brute = brute_ridge(row[None, :], np.array([[2.0, -1.0]]), 0.1)
    np.testing.assert_allclose(state.coeffs.coeffs, brute, atol=1e-10)


def test_fit_empty_cache_errors():
    with pytest.raises(ValueError, match="empty"):
        spectral_fit(FeatureCache(), SpectralConfig())


def test_forecast_unfitted_state_errors():
    fc = SpectralForecaster()
    with pytest.raises(ValueError, match="no fitted state"):
        fc.predict(0.5)


def test_forecast_determinism():
    rng = np.random.default_rng(4)
    pairs = [(t, rng.normal(size=6)) for t in np.sort(rng.uniform(0, 0.8, 7))]
    preds = []
    for _ in range(2):
        state = spectral_fit(filled_cache(pairs), SpectralConfig())
        preds.append(spectral_forecast(state, 0.9))
    assert np.array_equal(preds[0], preds[1])


def test_sine_channel_error_below_bound_ceiling():
    # channel sin(2*pi*t) = -sin(pi*tau): analytic with B = cosh(pi*(rho-1/rho)/2)
    rho = 2.0
    ellipse = EllipseBound(rho, float(np.cosh(np.pi * (rho - 1 / rho) / 2)))
    times = np.linspace(0.0, 1.0, 6)
    cache = filled_cache([(t, [np.sin(2 * np.pi * t)]) for t in times])
    state = spectral_fit(cache, SpectralConfig(degree=4, lam=0.1))
    phi = build_design([project_time(t) for t in times], 4)
    from chebcast import truncation_bound

    ceiling = spectral_bound(
        truncation_bound(ellipse, 4), 4, 6, min_singular(phi), 0.1, ellipse
    )
    err = abs(spectral_forecast(state, 0.9)[0] - np.sin(2 * np.pi * 0.9))
    assert err <= ceiling


def test_long_horizon_contrast():
    # exp channel, fixed cache on [0, 0.4]; spectral error stays inside a
    # measured gap-independent ceiling while the local error grows with the
    # gap; both thresholds were confirmed with the brute-force oracle first.
    k = np.arange(8)
    nodes = np.sort(0.2 + 0.2 * np.cos((2 * k + 1) * np.pi / 16))
    cache = filled_cache([(t, [np.exp(t)]) for t in nodes])
    state = spectral_fit(cache, SpectralConfig(degree=4, lam=0.1))
    anchor = float(nodes[-1])
    gaps = np.linspace(0.05, 0.6, 23)
    sp_errors = [abs(spectral_forecast(state, anchor + g)[0] - np.exp(anchor + g)) for g in gaps]
    ty_errors = [abs(taylor_forecast(cache, anchor + g, 1)[0] - np.exp(anchor + g)) for g in gaps]
    assert max(sp_errors) <= 15.0 * min(sp_errors)
    assert ty_errors[-1] >= 10.0 * ty_errors[0]


def test_lambda_zero_warmup_caps_degree():
    fc = SpectralForecaster(SpectralConfig(degree=4, lam=0.0))
    fc.observe(0.0, [1.0])
    assert fc.state.coeffs.degree == 0
    fc.observe(0.1, [2.0])
    assert fc.state.coeffs.degree == 1
    for t in (0.2, 0.3, 0.4, 0.5):
        fc.observe(t, [1.0 + t])
    assert fc.state.coeffs.degree == 4


@pytest.mark.parametrize("lam", [0.0, 0.1])
@pytest.mark.parametrize("window", [None, 4])
def test_streaming_fit_equals_batch_fit(lam, window):
    rng = np.random.default_rng(16)
    for _ in range(6):
        degree = int(rng.integers(0, 6))
        config = SpectralConfig(degree=degree, lam=lam)
        fc = SpectralForecaster(config, window=window)
        n_channels = int(rng.integers(1, 5))
        # K runs from 1 past degree+1, through the lambda=0 degree cap and, with
        # a window, past eviction; one time per cell of a uniform grid keeps
        # the design well conditioned, so round-off stays far below 1e-12
        n_points = degree + 6
        for t in (np.arange(n_points) + rng.uniform(0.1, 0.9, n_points)) / n_points:
            fc.observe(t, rng.normal(size=n_channels))
            batch = spectral_fit(fc.cache, config).coeffs.coeffs
            if lam == 0.0:
                assert fc.state.coeffs.degree == min(degree, len(fc.cache) - 1)
            np.testing.assert_allclose(
                fc.state.coeffs.coeffs, batch, rtol=0.0, atol=1e-12 * max(1.0, np.abs(batch).max())
            )


@settings(max_examples=60, deadline=None)
@given(
    degree=st.integers(0, 6),
    lam=st.sampled_from([0.0, 1e-3, 0.1, 2.0]),
    window=st.one_of(st.none(), st.integers(1, 8)),
    n_points=st.integers(1, 14),
    n_prior=st.integers(1, 14),
    seed=st.integers(0, 2**32 - 1),
)
def test_fit_with_prior_equals_batch_fit(degree, lam, window, n_points, n_prior, seed):
    rng = np.random.default_rng(seed)
    config = SpectralConfig(degree=degree, lam=lam)
    cache = FeatureCache(capacity=window)
    n_channels = int(rng.integers(1, 5))
    # one time per cell of a uniform grid keeps the lambda=0 design well conditioned
    times = (np.arange(n_points) + rng.uniform(0.1, 0.9, n_points)) / n_points
    prior = None
    for k, t in enumerate(times, start=1):
        cache.insert(t, rng.normal(size=n_channels))
        if k == min(n_prior, n_points):
            prior = spectral_fit(cache, config)
    # every entry after the prior's is folded into its factor at once, or,
    # when the window evicted a row the prior fitted, the window is refitted
    folded = spectral_fit(cache, config, prior).coeffs.coeffs
    batch = spectral_fit(cache, config).coeffs.coeffs
    np.testing.assert_allclose(folded, batch, rtol=0.0, atol=1e-12 * max(1.0, np.abs(batch).max()))


def test_observe_folds_in_only_the_new_entry(monkeypatch):
    import chebcast.forecasters as forecasters

    rows, solves = [], []
    real_fold, real_solve = forecasters.fold_rows, forecasters.solve_leading

    def counting_fold(factor, new_rows, H):
        rows.append(new_rows.shape[0])
        return real_fold(factor, new_rows, H)

    def counting_solve(factor, n_coef):
        solves.append(factor.n_points)
        return real_solve(factor, n_coef)

    monkeypatch.setattr(forecasters, "fold_rows", counting_fold)
    monkeypatch.setattr(forecasters, "solve_leading", counting_solve)
    fc = SpectralForecaster(window=3)
    for t in (0.0, 0.1, 0.2, 0.3, 0.4):
        fc.observe(t, [t, 1.0])
    # the window refits all of itself once an eviction has dropped a fitted row
    assert rows == [1, 1, 1, 3, 3]
    assert solves == []  # observe only folds
    first = fc.predict(0.5)
    assert solves == [3]  # the first forecast after an observe solves once
    assert np.array_equal(fc.predict(0.6), spectral_forecast(fc.state, 0.6))
    assert solves == [3]  # and every later one reuses that solve
    fc.observe(0.5, [0.5, 1.0])
    assert solves == [3]
    assert not np.array_equal(fc.predict(0.5), first)
    assert solves == [3, 3]


@settings(max_examples=80, deadline=None)
@given(
    degree=st.integers(0, 6),
    lam=st.sampled_from([0.0, 1e-3, 0.1]),
    window=st.one_of(st.none(), st.integers(1, 8)),
    steps=st.lists(st.booleans(), min_size=1, max_size=30),
    seed=st.integers(0, 2**32 - 1),
)
def test_lazy_folded_forecaster_equals_batch_fit(degree, lam, window, steps, seed):
    """Any interleaving of observe (True) and predict (False) forecasts as a batch fit does."""
    rng = np.random.default_rng(seed)
    config = SpectralConfig(degree=degree, lam=lam)
    fc = SpectralForecaster(config, window=window)
    n_channels = int(rng.integers(1, 4))
    n_obs = max(1, sum(steps))
    # one time per cell of a uniform grid keeps the lambda=0 design well conditioned
    times = iter((np.arange(n_obs) + rng.uniform(0.1, 0.9, n_obs)) / n_obs)
    for observe in steps:
        if observe:
            fc.observe(next(times), rng.normal(size=n_channels))
        elif fc.state is not None:
            t = float(rng.uniform(0.0, 1.0))
            batch = spectral_fit(fc.cache, config)
            # |forecast| <= sum_m |C_m| on [-1, 1], the scale round-off is relative to
            scale = np.maximum(1.0, np.abs(batch.coeffs.coeffs).sum(axis=0))
            np.testing.assert_array_less(np.abs(fc.predict(t) - spectral_forecast(batch, t)), 1e-12 * scale)


def test_rank_deficient_fit_fails_at_the_forecast_that_reads_it():
    # degree 8 at lambda=0 on 12 times within 0.0011 of each other: cond(Phi)
    # is far past 1/eps, so the rank check on diag(R) refuses the solve
    fc = SpectralForecaster(SpectralConfig(degree=8, lam=0.0))
    for k in range(12):
        fc.observe(k * 1e-4, [np.sin(k * 1e-4), 1.0])
    with pytest.raises(RidgeFitError, match="rank-deficient"):
        fc.predict(0.5)


def test_non_finite_feature_rejected_at_insert():
    cache = filled_cache([(0.0, [1.0, 2.0])])
    with pytest.raises(ValueError, match="t=0.5 has non-finite"):
        cache.insert(0.5, [np.nan, 1.0])
    with pytest.raises(ValueError, match="non-finite"):
        cache.insert(0.5, [1.0, np.inf])
    assert len(cache) == 1


def test_taylor_reads_only_the_newest_entries():
    rng = np.random.default_rng(17)
    pairs = [(t, rng.normal(size=5)) for t in np.linspace(0.0, 0.6, 9)]
    full = filled_cache(pairs)
    for order in range(4):
        short = FeatureCache(capacity=order + 1)
        for t, h in pairs:
            short.insert(t, h)
        assert np.array_equal(taylor_forecast(full, 0.8, order), taylor_forecast(short, 0.8, order))


def test_forecast_time_outside_unit_interval_rejected():
    cache = filled_cache([(0.2, [1.0])])
    state = spectral_fit(cache, SpectralConfig())
    with pytest.raises(ValueError, match="timestep"):
        spectral_forecast(state, 1.2)


def test_cache_copy_is_independent():
    cache = filled_cache([(0.0, [1.0]), (0.2, [2.0])])
    dup = cache.copy()
    dup.insert(0.4, [3.0])
    assert len(cache) == 2 and len(dup) == 3
