"""Tests for the design matrix and the closed-form ridge solve."""

import subprocess
import sys

import numpy as np
import pytest

from chebcast import (
    RidgeFitError,
    build_design,
    min_singular,
    ridge_objective,
    solve_ridge,
)
from chebcast.ridge import DesignMatrix

from oracles import brute_ridge, smallest_eig_bisect


def test_design_rows_linear_basis():
    phi = build_design([-1.0, 0.0, 1.0], 1)
    np.testing.assert_allclose(phi.rows, [[1, -1], [1, 0], [1, 1]])


def test_design_single_point_degree_two():
    phi = build_design([0.0], 2)
    np.testing.assert_allclose(phi.rows, [[1.0, 0.0, -1.0]])


def test_design_constant_basis():
    phi = build_design([-1.0, 1.0], 0)
    np.testing.assert_allclose(phi.rows, [[1.0], [1.0]])


def test_design_rejects_non_monotone():
    with pytest.raises(ValueError, match="strictly increasing"):
        build_design([0.0, 0.0], 1)
    with pytest.raises(ValueError, match="strictly increasing"):
        build_design([0.5, -0.5], 1)
    with pytest.raises(ValueError, match="non-empty"):
        build_design([], 1)


def test_interpolation_case():
    rng = np.random.default_rng(1)
    taus = np.array([-0.9, -0.2, 0.4, 0.8])
    phi = build_design(taus, 3)
    H = rng.normal(size=(4, 3))
    C = solve_ridge(phi, H, 0.0)
    assert np.max(np.abs(phi.rows @ C.coeffs - H)) <= 1e-10


def test_infinite_regularization_limit():
    rng = np.random.default_rng(2)
    phi = build_design(np.sort(rng.uniform(-1, 1, 5)), 2)
    H = rng.normal(size=(5, 4))
    C = solve_ridge(phi, H, 1e12)
    assert np.linalg.norm(C.coeffs) <= 1e-6 * np.linalg.norm(phi.rows.T @ H)


def test_matches_brute_force_oracle():
    rng = np.random.default_rng(3)
    phi = build_design(np.sort(rng.uniform(-1, 1, 6)), 2)
    H = rng.normal(size=(6, 2))
    C = solve_ridge(phi, H, 0.1)
    np.testing.assert_allclose(C.coeffs, brute_ridge(phi.rows, H, 0.1), atol=1e-8)


def test_normal_equation_residual():
    rng = np.random.default_rng(4)
    phi = build_design(np.sort(rng.uniform(-1, 1, 9)), 4)
    H = rng.normal(size=(9, 5))
    lam = 0.3
    C = solve_ridge(phi, H, lam)
    normal = phi.rows.T @ phi.rows + lam * np.eye(5)
    rhs = phi.rows.T @ H
    resid = np.linalg.norm(normal @ C.coeffs - rhs) / np.linalg.norm(rhs)
    assert resid <= 1e-10


def test_short_cache_with_ridge_is_fine():
    phi = build_design([-1.0, -0.9], 4)
    C = solve_ridge(phi, np.ones((2, 3)), 0.1)
    assert C.coeffs.shape == (5, 3)
    assert np.all(np.isfinite(C.coeffs))


def test_short_cache_without_ridge_fails_deterministically():
    phi = build_design([-1.0, -0.9], 4)
    with pytest.raises(RidgeFitError, match="lambda=0"):
        solve_ridge(phi, np.ones((2, 1)), 0.0)


def test_rank_deficient_design_without_ridge_fails():
    # three rows, but the second basis column is identically zero
    phi = DesignMatrix(rows=np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]))
    with pytest.raises(RidgeFitError, match="rank-deficient"):
        solve_ridge(phi, np.ones((3, 1)), 0.0)
    assert np.all(np.isfinite(solve_ridge(phi, np.ones((3, 1)), 0.1).coeffs))


def test_clustered_degree_eight_fits_polynomial_data_to_round_off():
    # cond(Phi) ~ 3e12: the normal equations square it past 1/eps
    phi = build_design(np.linspace(-1.0, -0.8, 20), 8)
    H = phi.rows @ np.random.default_rng(13).normal(size=(9, 3))
    C = solve_ridge(phi, H, 0.0)
    assert np.max(np.abs(phi.rows @ C.coeffs - H)) < 1e-12


@pytest.mark.parametrize("lam", [0.0, 0.1])
def test_prior_factor_folds_rows_like_one_batch(lam):
    rng = np.random.default_rng(14)
    for _ in range(10):
        degree = int(rng.integers(0, 7))
        n_points = degree + 2 + int(rng.integers(0, 6))
        taus = 2.0 * (np.arange(n_points) + rng.uniform(0.1, 0.9, n_points)) / n_points - 1.0
        H = rng.normal(size=(n_points, int(rng.integers(1, 5))))
        batch = solve_ridge(build_design(taus, degree), H, lam).coeffs
        split = int(rng.integers(1, n_points))
        head = solve_ridge(build_design(taus[:split], degree), H[:split], lam, degree=min(degree, split - 1))
        tail = solve_ridge(build_design(taus[split:], degree), H[split:], lam, prior=head.factor)
        assert tail.factor.n_points == n_points
        np.testing.assert_allclose(tail.coeffs, batch, rtol=0.0, atol=1e-12 * max(1.0, np.abs(batch).max()))


def test_leading_block_solve_is_the_lower_degree_fit():
    rng = np.random.default_rng(15)
    taus = np.sort(rng.uniform(-1, 1, 9))
    H = rng.normal(size=(9, 2))
    for lam in (0.0, 0.1):
        capped = solve_ridge(build_design(taus, 5), H, lam, degree=2)
        direct = solve_ridge(build_design(taus, 2), H, lam)
        np.testing.assert_allclose(capped.coeffs, direct.coeffs, rtol=0.0, atol=1e-12)


def test_prior_for_another_problem_rejected():
    phi = build_design([-0.5, 0.5], 1)
    fit = solve_ridge(phi, np.ones((2, 2)), 0.1)
    with pytest.raises(ValueError, match="prior factor"):
        solve_ridge(build_design([0.7], 1), np.ones((1, 2)), 0.2, prior=fit.factor)
    with pytest.raises(ValueError, match="prior factor"):
        solve_ridge(build_design([0.7], 2), np.ones((1, 2)), 0.1, prior=fit.factor)


def test_import_leaves_scipy_out():
    code = "import sys, chebcast; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"


def test_shape_mismatch_rejected():
    phi = build_design([-0.5, 0.5], 1)
    with pytest.raises(ValueError, match="one row per design row"):
        solve_ridge(phi, np.ones((3, 2)), 0.1)


def test_min_singular_identity():
    phi = DesignMatrix(rows=np.eye(2))
    assert min_singular(phi) == pytest.approx(1.0)


def test_min_singular_rank_deficient():
    phi = DesignMatrix(rows=np.array([[1.0, 0.0], [0.0, 0.0]]))
    assert min_singular(phi) == pytest.approx(0.0, abs=1e-12)


def test_min_singular_matches_bisection_oracle():
    rng = np.random.default_rng(5)
    for trial in range(5):
        phi = build_design(np.sort(rng.uniform(-1, 1, 8)), 2)
        gram = phi.rows.T @ phi.rows
        expected = np.sqrt(max(smallest_eig_bisect(gram), 0.0))
        assert min_singular(phi) == pytest.approx(expected, abs=1e-8)


def test_objective_zero_for_interpolant():
    rng = np.random.default_rng(6)
    phi = build_design(np.array([-0.8, -0.1, 0.6]), 2)
    H = rng.normal(size=(3, 2))
    C = solve_ridge(phi, H, 0.0)
    assert ridge_objective(phi, H, C, 0.0) == pytest.approx(0.0, abs=1e-18)


def test_objective_zero_coefficients():
    from chebcast.ridge import CoefficientMatrix

    rng = np.random.default_rng(7)
    phi = build_design(np.sort(rng.uniform(-1, 1, 4)), 1)
    H = rng.normal(size=(4, 3))
    zero = CoefficientMatrix(coeffs=np.zeros((2, 3)))
    assert ridge_objective(phi, H, zero, 0.5) == pytest.approx(float(np.sum(H * H)))


def test_objective_matches_direct_summation():
    rng = np.random.default_rng(8)
    phi = build_design(np.sort(rng.uniform(-1, 1, 7)), 3)
    H = rng.normal(size=(7, 2))
    C = solve_ridge(phi, H, 0.2)
    direct = 0.0
    for k in range(7):
        for i in range(2):
            direct += (phi.rows[k] @ C.coeffs[:, i] - H[k, i]) ** 2
    for m in range(4):
        for i in range(2):
            direct += 0.2 * C.coeffs[m, i] ** 2
    assert ridge_objective(phi, H, C, 0.2) == pytest.approx(direct, abs=1e-10)


def test_fitted_coefficients_are_optimal():
    rng = np.random.default_rng(9)
    phi = build_design(np.sort(rng.uniform(-1, 1, 8)), 3)
    H = rng.normal(size=(8, 2))
    lam = 0.1
    C = solve_ridge(phi, H, lam)
    base = ridge_objective(phi, H, C, lam)
    from chebcast.ridge import CoefficientMatrix

    for _ in range(100):
        delta = rng.normal(size=C.coeffs.shape)
        delta *= 1e-3 / np.linalg.norm(delta)
        perturbed = CoefficientMatrix(coeffs=C.coeffs + delta)
        assert ridge_objective(phi, H, perturbed, lam) >= base - 1e-12


def test_coefficient_norm_monotone_in_lambda():
    rng = np.random.default_rng(10)
    phi = build_design(np.sort(rng.uniform(-1, 1, 7)), 3)
    H = rng.normal(size=(7, 3))
    lams = [0.0, 0.01, 0.1, 1.0, 10.0]
    norms = [np.linalg.norm(solve_ridge(phi, H, lam).coeffs) for lam in lams]
    assert all(n1 >= n2 for n1, n2 in zip(norms, norms[1:]))


def test_columns_decouple():
    rng = np.random.default_rng(11)
    phi = build_design(np.sort(rng.uniform(-1, 1, 6)), 2)
    H = rng.normal(size=(6, 4))
    joint = solve_ridge(phi, H, 0.3).coeffs
    for i in range(4):
        single = solve_ridge(phi, H[:, i], 0.3).coeffs[:, 0]
        np.testing.assert_allclose(joint[:, i], single, atol=1e-12)


def test_min_singular_lower_bounds_normal_matrix():
    rng = np.random.default_rng(12)
    for _ in range(5):
        phi = build_design(np.sort(rng.uniform(-1, 1, 9)), 4)
        lam = rng.uniform(0.0, 1.0)
        normal = phi.rows.T @ phi.rows + lam * np.eye(5)
        smallest = smallest_eig_bisect(normal)
        assert min_singular(phi) ** 2 + lam <= smallest + 1e-9
