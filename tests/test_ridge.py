"""Tests for the ridge fit: the QR fold, the fitted series and the coefficients it implies."""

import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chebcast import RidgeFitError, basis_matrix, leading_triangle, min_singular
from chebcast.ridge import RidgeFactor, fold_rows, rotate_features

from oracles import (
    brute_ridge,
    ridge_coefficients,
    ridge_fit,
    ridge_forecast,
    ridge_objective,
    smallest_eig_bisect,
    solve_leading,
)


def test_interpolation_case():
    rng = np.random.default_rng(1)
    taus = np.array([-0.9, -0.2, 0.4, 0.8])
    H = rng.normal(size=(4, 3))
    qth, triangle = ridge_fit(taus, H, 3, 0.0)
    assert np.max(np.abs(ridge_forecast(qth, triangle, taus) - H)) <= 1e-10


def test_infinite_regularization_limit():
    rng = np.random.default_rng(2)
    taus = np.sort(rng.uniform(-1, 1, 5))
    phi = basis_matrix(2, taus)
    H = rng.normal(size=(5, 4))
    C = ridge_coefficients(*ridge_fit(taus, H, 2, 1e12))
    assert np.linalg.norm(C) <= 1e-6 * np.linalg.norm(phi.T @ H)


def test_matches_brute_force_oracle():
    rng = np.random.default_rng(3)
    taus = np.sort(rng.uniform(-1, 1, 6))
    H = rng.normal(size=(6, 2))
    C = ridge_coefficients(*ridge_fit(taus, H, 2, 0.1))
    np.testing.assert_allclose(C, brute_ridge(basis_matrix(2, taus), H, 0.1), atol=1e-8)


def test_normal_equation_residual():
    rng = np.random.default_rng(4)
    taus = np.sort(rng.uniform(-1, 1, 9))
    phi = basis_matrix(4, taus)
    H = rng.normal(size=(9, 5))
    lam = 0.3
    C = ridge_coefficients(*ridge_fit(taus, H, 4, lam))
    normal = phi.T @ phi + lam * np.eye(5)
    rhs = phi.T @ H
    resid = np.linalg.norm(normal @ C - rhs) / np.linalg.norm(rhs)
    assert resid <= 1e-10


@settings(max_examples=150, deadline=None)
@given(
    degree=st.integers(0, 6),
    n_channels=st.integers(1, 4),
    lam=st.sampled_from([0.0, 1e-3, 0.1, 2.0]),
    extra=st.integers(0, 8),
    seed=st.integers(0, 2**32 - 1),
)
@example(degree=6, n_channels=4, lam=0.0, extra=0, seed=0)  # square, interpolating
def test_solve_matches_brute_force_property(degree, n_channels, lam, extra, seed):
    rng = np.random.default_rng(seed)
    n_points = degree + 1 + extra
    # one tau per cell of a uniform grid keeps the lambda=0 design well conditioned
    taus = 2.0 * (np.arange(n_points) + rng.uniform(0.1, 0.9, n_points)) / n_points - 1.0
    H = rng.normal(size=(n_points, n_channels))
    got = ridge_coefficients(*ridge_fit(taus, H, degree, lam))
    np.testing.assert_allclose(got, brute_ridge(basis_matrix(degree, taus), H, lam), rtol=0.0, atol=1e-8)


def test_short_cache_with_ridge_is_fine():
    C = ridge_coefficients(*ridge_fit([-1.0, -0.9], np.ones((2, 3)), 4, 0.1))
    assert C.shape == (5, 3)
    assert np.all(np.isfinite(C))


def test_short_cache_without_ridge_fails_deterministically():
    with pytest.raises(RidgeFitError, match="lambda=0 with no points"):
        leading_triangle(RidgeFactor.empty(0.0, 5), 4)
    _, triangle = ridge_fit([-1.0, -0.9], np.ones((2, 1)), 4, 0.0)
    assert triangle.shape == (2, 2)  # two points solve the degree-1 interpolant, as a plan does


@pytest.mark.parametrize("lam", [0.0, 0.1])
def test_leading_triangle_caps_the_degree_to_the_points_at_lambda_zero(lam):
    degree = 4
    taus = np.linspace(-0.9, 0.9, degree + 2)
    for n_points in range(degree + 3):
        fit = fold_rows(RidgeFactor.empty(lam, degree + 1), basis_matrix(degree, taus[:n_points]))
        if lam == 0.0 and n_points == 0:
            with pytest.raises(RidgeFitError, match="lambda=0 with no points"):
                leading_triangle(fit, degree)
            continue
        n_coef = min(degree + 1, n_points) if lam == 0.0 else degree + 1
        triangle = leading_triangle(fit, degree)
        assert triangle.shape == (n_coef, n_coef)
        assert np.array_equal(triangle, fit.r[:n_coef, :n_coef])


def test_rank_deficient_design_without_ridge_fails():
    # three rows, but the second basis column is identically zero
    phi = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    fits = {lam: fold_rows(RidgeFactor.empty(lam, 2), phi) for lam in (0.0, 0.1)}
    with pytest.raises(RidgeFitError, match="rank-deficient"):
        leading_triangle(fits[0.0], 1)
    qth = rotate_features(fits[0.1].q, np.concatenate([np.zeros((2, 1)), np.ones((3, 1))]))
    assert np.all(np.isfinite(ridge_coefficients(qth, leading_triangle(fits[0.1], 1))))


def test_clustered_degree_eight_fits_polynomial_data_to_round_off():
    # cond(Phi) ~ 3e12: the normal equations square it past 1/eps
    taus = np.linspace(-1.0, -0.8, 20)
    H = basis_matrix(8, taus) @ np.random.default_rng(13).normal(size=(9, 3))
    qth, triangle = ridge_fit(taus, H, 8, 0.0)
    assert np.max(np.abs(ridge_forecast(qth, triangle, taus) - H)) < 1e-12


@pytest.mark.parametrize("lam", [0.0, 0.1])
def test_prior_factor_folds_rows_like_one_batch(lam):
    rng = np.random.default_rng(14)
    for _ in range(10):
        degree = int(rng.integers(0, 7))
        n_points = degree + 2 + int(rng.integers(0, 6))
        taus = 2.0 * (np.arange(n_points) + rng.uniform(0.1, 0.9, n_points)) / n_points - 1.0
        H = rng.normal(size=(n_points, int(rng.integers(1, 5))))
        batch = solve_leading(*ridge_fit(taus, H, degree, lam))
        split = int(rng.integers(1, n_points))
        head = fold_rows(RidgeFactor.empty(lam, degree + 1), basis_matrix(degree, taus[:split]))
        qth = rotate_features(head.q, np.concatenate([np.zeros((degree + 1, H.shape[1])), H[:split]]))
        tail = fold_rows(head, basis_matrix(degree, taus[split:]))
        # carried through the second fold, as a run carries it
        qth = rotate_features(tail.q, np.concatenate([qth, H[split:]]))
        assert tail.n_points == n_points
        folded = solve_leading(qth, leading_triangle(tail, degree))
        np.testing.assert_allclose(folded, batch, rtol=0.0, atol=1e-12 * max(1.0, np.abs(batch).max()))


def test_leading_block_solve_is_the_lower_degree_fit():
    rng = np.random.default_rng(15)
    taus = np.sort(rng.uniform(-1, 1, 9))
    H = rng.normal(size=(9, 2))
    for lam in (0.0, 0.1):
        qth, triangle = ridge_fit(taus, H, 5, lam)
        direct = solve_leading(*ridge_fit(taus, H, 2, lam))
        np.testing.assert_allclose(solve_leading(qth, triangle[:3, :3]), direct, rtol=0.0, atol=1e-12)


def test_import_leaves_scipy_out():
    code = "import sys, chebcast; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"


def test_min_singular_identity():
    phi = np.eye(2)
    assert min_singular(phi) == pytest.approx(1.0)


def test_min_singular_rank_deficient():
    phi = np.array([[1.0, 0.0], [0.0, 0.0]])
    assert min_singular(phi) == pytest.approx(0.0, abs=1e-12)


def test_min_singular_matches_bisection_oracle():
    rng = np.random.default_rng(5)
    for trial in range(5):
        phi = basis_matrix(2, np.sort(rng.uniform(-1, 1, 8)))
        gram = phi.T @ phi
        expected = np.sqrt(max(smallest_eig_bisect(gram), 0.0))
        assert min_singular(phi) == pytest.approx(expected, abs=1e-8)


def test_objective_zero_for_interpolant():
    rng = np.random.default_rng(6)
    taus = np.array([-0.8, -0.1, 0.6])
    phi = basis_matrix(2, taus)
    H = rng.normal(size=(3, 2))
    C = ridge_coefficients(*ridge_fit(taus, H, 2, 0.0))
    assert ridge_objective(phi, H, C, 0.0) == pytest.approx(0.0, abs=1e-18)


def test_objective_zero_coefficients():
    rng = np.random.default_rng(7)
    phi = basis_matrix(1, np.sort(rng.uniform(-1, 1, 4)))
    H = rng.normal(size=(4, 3))
    assert ridge_objective(phi, H, np.zeros((2, 3)), 0.5) == pytest.approx(float(np.sum(H * H)))


def test_objective_matches_direct_summation():
    rng = np.random.default_rng(8)
    taus = np.sort(rng.uniform(-1, 1, 7))
    phi = basis_matrix(3, taus)
    H = rng.normal(size=(7, 2))
    C = ridge_coefficients(*ridge_fit(taus, H, 3, 0.2))
    direct = 0.0
    for k in range(7):
        for i in range(2):
            direct += (phi[k] @ C[:, i] - H[k, i]) ** 2
    for m in range(4):
        for i in range(2):
            direct += 0.2 * C[m, i] ** 2
    assert ridge_objective(phi, H, C, 0.2) == pytest.approx(direct, abs=1e-10)


def test_fitted_coefficients_are_optimal():
    rng = np.random.default_rng(9)
    taus = np.sort(rng.uniform(-1, 1, 8))
    phi = basis_matrix(3, taus)
    H = rng.normal(size=(8, 2))
    lam = 0.1
    C = ridge_coefficients(*ridge_fit(taus, H, 3, lam))
    base = ridge_objective(phi, H, C, lam)
    for _ in range(100):
        delta = rng.normal(size=C.shape)
        delta *= 1e-3 / np.linalg.norm(delta)
        assert ridge_objective(phi, H, C + delta, lam) >= base - 1e-12


def test_coefficient_norm_monotone_in_lambda():
    rng = np.random.default_rng(10)
    taus = np.sort(rng.uniform(-1, 1, 7))
    H = rng.normal(size=(7, 3))
    lams = [0.0, 0.01, 0.1, 1.0, 10.0]
    norms = [np.linalg.norm(ridge_coefficients(*ridge_fit(taus, H, 3, lam))) for lam in lams]
    assert all(n1 >= n2 for n1, n2 in zip(norms, norms[1:]))


def test_columns_decouple():
    rng = np.random.default_rng(11)
    taus = np.sort(rng.uniform(-1, 1, 6))
    H = rng.normal(size=(6, 4))
    joint = ridge_coefficients(*ridge_fit(taus, H, 2, 0.3))
    for i in range(4):
        single = ridge_coefficients(*ridge_fit(taus, H[:, i:i + 1], 2, 0.3))[:, 0]
        np.testing.assert_allclose(joint[:, i], single, atol=1e-12)


def test_min_singular_lower_bounds_normal_matrix():
    rng = np.random.default_rng(12)
    for _ in range(5):
        phi = basis_matrix(4, np.sort(rng.uniform(-1, 1, 9)))
        lam = rng.uniform(0.0, 1.0)
        normal = phi.T @ phi + lam * np.eye(5)
        smallest = smallest_eig_bisect(normal)
        assert min_singular(phi) ** 2 + lam <= smallest + 1e-9
