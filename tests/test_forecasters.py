"""Tests for the forecasters' weights, and for the stateful reference forecasters.

The weights chebcast computes from the times alone (taylor_weights and
spectral_weights), a row a forecast, are tested directly.  The feature
cache and the observe/predict forecasters live in tests/oracles.py, as the
reference the planned sampler is checked against; they are tested here too.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chebcast import (
    EllipseBound,
    ForecasterChoice,
    RidgeFitError,
    basis_matrix,
    basis_row,
    min_singular,
    project_time,
    spectral_bound,
    spectral_weights,
    taylor_weights,
    uniform_schedule,
)
from chebcast.denoisers import PolynomialChannel
from chebcast.plan import plan_forecasts

from oracles import (
    FeatureCache,
    SpectralConfig,
    SpectralForecaster,
    brute_ridge,
    naive_forecast,
    ridge_coefficients,
    ridge_fit,
    ridge_forecast,
    solve_leading,
    spectral_fit,
    spectral_forecast,
    taylor_forecast,
    taylor_uniform_prediction,
)


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
    times = (0.0, 0.1, 0.2, 0.3)
    values = np.array([[2.0 + 3.0 * t] for t in times])
    assert (taylor_weights(times, [0.7], 1)[0] @ values[-2:])[0] == pytest.approx(4.1, abs=1e-12)


def test_two_point_extrapolation_value():
    # slope (2-1)/0.2 = 5, anchored at t=0.2, queried 0.4 ahead -> 4.0
    assert taylor_weights([0.0, 0.2], [0.6], 1)[0] @ [1.0, 2.0] == pytest.approx(4.0, abs=1e-12)


def test_uniform_spacing_matches_difference_form():
    rng = np.random.default_rng(1)
    values = rng.normal(size=(5, 3))
    times = [0.1, 0.2, 0.3, 0.4, 0.5]
    for order in (1, 2, 3):
        for steps_ahead in (0.5, 1.0, 2.5):
            got = taylor_weights(times, [0.5 + 0.1 * steps_ahead], order)[0] @ values[-(order + 1):]
            want = taylor_uniform_prediction(values[-(order + 1):], 0.1, steps_ahead, order)
            np.testing.assert_allclose(got, want, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    kind=st.sampled_from(["taylor", "spectrum"]),
    order=st.integers(0, 4),
    degree=st.integers(0, 6),
    lam=st.sampled_from([0.0, 1e-3, 0.1]),
    extra=st.integers(0, 8),
    ts=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_batched_weight_row_is_bitwise_its_single_row_call(kind, order, degree, lam, extra, ts, seed):
    """A plan weighs a whole stretch in one call: row i is what the call for ts[i] alone gives."""
    rng = np.random.default_rng(seed)
    n_points = max(order, degree) + 1 + extra
    # one time per cell of a uniform grid keeps the lambda=0 design well conditioned
    times = (np.arange(n_points) + rng.uniform(0.1, 0.9, n_points)) / n_points
    if kind == "taylor":
        batch = taylor_weights(times, ts, order)
        rows = [taylor_weights(times, [t], order)[0] for t in ts]
    else:
        _, triangle = ridge_fit(2.0 * times - 1.0, np.empty((n_points, 0)), degree, lam)
        phi = basis_matrix(degree, [project_time(t) for t in ts])  # full-degree rows, as a plan passes them
        batch = spectral_weights(triangle, phi)
        rows = [spectral_weights(triangle, row[None])[0] for row in phi]
    assert batch.shape == (len(ts), len(rows[0]))
    for got, want in zip(batch, rows):
        assert got.tobytes() == want.tobytes()


def test_insufficient_depth_errors():
    with pytest.raises(ValueError, match="order-1 forecast needs 2 cached entries, have 1"):
        taylor_weights([0.0], [0.5], 1)


# --- spectral ---------------------------------------------------------------


def test_polynomial_interpolation_reproduces_cache():
    rng = np.random.default_rng(2)
    coeffs = rng.normal(size=(5, 3))
    times = np.sort(rng.uniform(0.0, 1.0, 5))
    qth, triangle = ridge_fit(2.0 * times - 1.0, [basis_row(4, project_time(t)) @ coeffs for t in times], 4, 0.0)
    for t in times:
        expected = basis_row(4, project_time(t)) @ coeffs
        np.testing.assert_allclose(ridge_forecast(qth, triangle, project_time(t))[0], expected, atol=1e-9)


def test_polynomial_exactness_all_degrees():
    rng = np.random.default_rng(3)
    for degree in range(7):
        for _ in range(3):
            coeffs = rng.normal(size=(degree + 1, 2))
            while True:
                times = np.sort(rng.uniform(0.0, 1.0, degree + 1))
                if degree == 0 or np.min(np.diff(times)) > 0.04:
                    break
            features = [basis_row(degree, project_time(t)) @ coeffs for t in times]
            qth, triangle = ridge_fit(2.0 * times - 1.0, features, degree, 0.0)
            for t_query in rng.uniform(0.0, 1.0, 50):
                expected = basis_row(degree, project_time(t_query)) @ coeffs
                pred = ridge_forecast(qth, triangle, project_time(t_query))[0]
                np.testing.assert_allclose(pred, expected, atol=1e-9)


@settings(max_examples=150, deadline=None)
@given(
    degree=st.integers(0, 6),
    poly_degree=st.integers(0, 6),
    extra=st.integers(0, 8),
    seed=st.integers(0, 2**32 - 1),
    t_query=st.floats(0.0, 1.0),
)
@example(degree=6, poly_degree=6, extra=0, seed=0, t_query=1.0)  # square, interpolating
def test_lambda_zero_fit_reproduces_polynomial_channels(degree, poly_degree, extra, seed, t_query):
    rng = np.random.default_rng(seed)
    channel = PolynomialChannel(tuple(rng.normal(size=min(poly_degree, degree) + 1)))
    n_points = degree + 1 + extra
    # one time per cell of a uniform grid keeps the lambda=0 design well conditioned
    times = (np.arange(n_points) + rng.uniform(0.1, 0.9, n_points)) / n_points
    qth, triangle = ridge_fit(2.0 * times - 1.0, [[channel(t)] for t in times], degree, 0.0)
    pred = ridge_forecast(qth, triangle, project_time(t_query))[0]
    np.testing.assert_allclose(pred, [channel(t_query)], rtol=0.0, atol=1e-9)


def test_single_point_ridge_shrinkage():
    qth, triangle = ridge_fit([project_time(0.3)], [[2.0, -1.0]], 4, 0.1)
    pred = ridge_forecast(qth, triangle, project_time(0.3))[0]
    row = basis_row(4, project_time(0.3))
    shrink = (row @ row) / (row @ row + 0.1)
    np.testing.assert_allclose(pred, shrink * np.array([2.0, -1.0]), atol=1e-12)
    assert np.linalg.norm(pred) < np.linalg.norm([2.0, -1.0])
    # cross-check against the brute-force normal-equation oracle
    brute = brute_ridge(row[None, :], np.array([[2.0, -1.0]]), 0.1)
    np.testing.assert_allclose(ridge_coefficients(qth, triangle), brute, atol=1e-10)


@pytest.mark.parametrize(
    "degree, lam, message",
    [
        (4.5, 0.1, "basis degree"),
        (True, 0.1, "basis degree"),
        (-1, 0.1, "basis degree"),
        (4, float("nan"), "finite"),
        (4, float("inf"), "finite"),
        (4, -0.1, "finite and >= 0"),
    ],
)
def test_spectral_config_rejects_bad_degree_or_lambda(degree, lam, message):
    with pytest.raises(ValueError, match=message):
        ForecasterChoice(kind="spectrum", degree=degree, lam=lam)


def test_spectral_config_takes_an_integral_float_degree():
    choice = ForecasterChoice(kind="spectrum", degree=4.0, lam=1)
    assert (type(choice.degree), type(choice.lam)) == (int, float)
    # passes at t = 0, 0.1, 0.2 and 0.9; forecasts at t = 0.3, ..., 0.8
    stretch = plan_forecasts(uniform_schedule(10, 7, 3), choice).passes[2][3]  # after the pass at t = 0.2
    assert stretch.start == 3 and stretch.weights.shape == (6, 5)


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
    phi = basis_matrix(4, 2.0 * times - 1.0)
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
    assert fc.state.degree == 0
    fc.observe(0.1, [2.0])
    assert fc.state.degree == 1
    for t in (0.2, 0.3, 0.4, 0.5):
        fc.observe(t, [1.0 + t])
    assert fc.state.degree == 4


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
            batch = spectral_fit(fc.cache, config).coeffs
            if lam == 0.0:
                assert fc.state.degree == min(degree, len(fc.cache) - 1)
            np.testing.assert_allclose(
                fc.state.coeffs, batch, rtol=0.0, atol=1e-12 * max(1.0, np.abs(batch).max())
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
    folded = spectral_fit(cache, config, prior).coeffs
    batch = spectral_fit(cache, config).coeffs
    np.testing.assert_allclose(folded, batch, rtol=0.0, atol=1e-12 * max(1.0, np.abs(batch).max()))


def test_first_read_folds_in_every_entry_observed_since(monkeypatch):
    import oracles as forecasters

    rows, solves = [], []
    real_fold, real_solve = forecasters.fold_rows, forecasters.solve_leading

    def counting_fold(factor, new_rows):
        rows.append(new_rows.shape[0])
        return real_fold(factor, new_rows)

    def counting_solve(qth, triangle):
        solves.append(len(triangle))
        return real_solve(qth, triangle)

    monkeypatch.setattr(forecasters, "fold_rows", counting_fold)
    monkeypatch.setattr(forecasters, "solve_leading", counting_solve)
    fc = SpectralForecaster(window=3)
    for t in (0.0, 0.1, 0.2, 0.3, 0.4):
        fc.observe(t, [t, 1.0])
    assert rows == []  # observe only caches
    first = fc.predict(0.5)
    assert rows == [3]  # the first read fits the whole window at once
    assert np.array_equal(fc.predict(0.6), spectral_forecast(fc.state, 0.6))
    assert rows == [3]  # and every later read reuses that fit
    fc.observe(0.5, [0.5, 1.0])
    assert rows == [3]
    assert not np.array_equal(fc.predict(0.5), first)
    # the window refits all of itself once an eviction has dropped a fitted row
    assert rows == [3, 3]
    assert solves == []  # a forecast never solves for the coefficients
    assert fc.fit_count == 6


def test_bad_observe_time_leaves_the_cache_unchanged():
    fc = SpectralForecaster()
    fc.observe(0.2, [1.0])
    before = fc.predict(0.3)
    with pytest.raises(ValueError, match=r"timestep must lie in \[0, 1\], got 1.5"):
        fc.observe(1.5, [1.0])
    assert len(fc.cache) == 1 and fc.fit_count == 1
    assert np.array_equal(fc.predict(0.3), before)


@settings(max_examples=80, deadline=None)
@given(
    degree=st.integers(0, 6),
    lam=st.sampled_from([0.0, 1e-3, 0.1]),
    n_channels=st.integers(1, 4),
    extra=st.integers(0, 8),
    seed=st.integers(0, 2**32 - 1),
    t_query=st.floats(0.0, 1.0),
)
def test_triangle_forecast_matches_coefficient_forecast(degree, lam, n_channels, extra, seed, t_query):
    """w @ Q^T H with R^T w = phi(tau) is phi(tau) @ C, C = R^{-1} Q^T H, to round-off."""
    rng = np.random.default_rng(seed)
    n_points = degree + 1 + extra
    # one time per cell of a uniform grid keeps the lambda=0 design well conditioned
    times = (np.arange(n_points) + rng.uniform(0.1, 0.9, n_points)) / n_points
    qth, triangle = ridge_fit(2.0 * times - 1.0, rng.normal(size=(n_points, n_channels)), degree, lam)
    coeffs = solve_leading(qth, triangle)
    via_coeffs = basis_row(len(triangle) - 1, project_time(t_query)) @ coeffs
    scale = max(1.0, np.abs(coeffs).sum())
    pred = ridge_forecast(qth, triangle, project_time(t_query))[0]
    np.testing.assert_allclose(pred, via_coeffs, rtol=0.0, atol=1e-12 * scale)


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
            scale = np.maximum(1.0, np.abs(batch.coeffs).sum(axis=0))
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
