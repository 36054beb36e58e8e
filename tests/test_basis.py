"""Tests for the Chebyshev recurrence, projection and truncation bound."""

import numpy as np
import pytest

from chebcast import EllipseBound, basis_matrix, basis_row, eval_cheb, project_time, truncation_bound


def test_degree_zero_and_one():
    assert eval_cheb(0, 0.3) == 1.0
    assert eval_cheb(1, -0.4) == -0.4


def test_one_recurrence_step():
    assert eval_cheb(2, 0.5) == pytest.approx(-0.5, abs=1e-15)


def test_value_one_at_right_endpoint():
    assert eval_cheb(7, 1.0) == 1.0


def test_basis_row_at_zero():
    np.testing.assert_allclose(basis_row(2, 0.0), [1.0, 0.0, -1.0], atol=1e-15)


def test_basis_row_degree_zero():
    np.testing.assert_allclose(basis_row(0, 0.9), [1.0])


def test_basis_row_at_one():
    np.testing.assert_allclose(basis_row(3, 1.0), [1.0, 1.0, 1.0, 1.0])


def test_basis_matrix_matches_rows():
    taus = np.linspace(-1, 1, 7)
    mat = basis_matrix(5, taus)
    for k, tau in enumerate(taus):
        np.testing.assert_array_equal(mat[k], basis_row(5, tau))


def test_project_time_endpoints():
    assert project_time(0.5) == 0.0
    assert project_time(0.0) == -1.0
    assert project_time(1.0) == 1.0


def test_project_time_rejects_out_of_range():
    with pytest.raises(ValueError, match="timestep"):
        project_time(-0.01)
    with pytest.raises(ValueError, match="timestep"):
        project_time(1.01)


def test_tau_out_of_range_rejected():
    with pytest.raises(ValueError, match="projected time"):
        eval_cheb(3, 1.0 + 1e-6)
    # boundary slack from projection round-off is legal
    assert eval_cheb(3, 1.0 + 1e-13) == pytest.approx(1.0)


def test_basis_matrix_names_first_bad_tau():
    with pytest.raises(ValueError, match=r"projected time must lie in \[-1, 1\], got 1.5"):
        basis_matrix(2, [0.0, 1.5, -2.0])
    with pytest.raises(ValueError, match="got nan"):
        basis_matrix(2, [0.0, float("nan")])
    with pytest.raises(ValueError, match="got -inf"):
        basis_matrix(2, [float("-inf")])
    # slack at the boundary is clipped, exactly as basis_row does
    np.testing.assert_array_equal(basis_matrix(3, [1.0 + 1e-13])[0], basis_row(3, 1.0 + 1e-13))


def test_negative_degree_rejected():
    with pytest.raises(ValueError, match="degree"):
        eval_cheb(-1, 0.0)
    with pytest.raises(ValueError, match="degree"):
        basis_row(-2, 0.0)


def test_truncation_bound_values():
    assert truncation_bound(EllipseBound(2.0, 1.0), 3) == pytest.approx(0.25)
    assert truncation_bound(EllipseBound(2.0, 1.0), 0) == pytest.approx(2.0)
    # 3 * 2 / 0.5 * 1.5**-4
    assert truncation_bound(EllipseBound(1.5, 3.0), 4) == pytest.approx(2.3703703703, abs=1e-9)


def test_ellipse_bound_validation():
    with pytest.raises(ValueError, match="ellipse"):
        EllipseBound(1.0, 1.0)
    with pytest.raises(ValueError, match="sup bound"):
        EllipseBound(2.0, 0.0)


def test_magnitude_bounded_on_interval():
    rng = np.random.default_rng(0)
    taus = rng.uniform(-1.0, 1.0, 1000)
    for m in range(65):
        values = basis_matrix(m, taus)[:, m]
        assert np.max(np.abs(values)) <= 1.0 + 1e-12


def test_trigonometric_identity():
    thetas = np.linspace(0.0, np.pi, 500)
    for m in range(33):
        for theta in thetas[::7]:
            assert abs(eval_cheb(m, np.cos(theta)) - np.cos(m * theta)) <= 1e-10


def test_discrete_orthogonality_at_gauss_nodes():
    m_max, n_nodes = 8, 16
    k = np.arange(n_nodes)
    nodes = np.cos((2 * k + 1) * np.pi / (2 * n_nodes))
    mat = basis_matrix(m_max, nodes)
    for m in range(m_max + 1):
        for n in range(m):
            assert abs(mat[:, m] @ mat[:, n]) <= 1e-9


def test_truncation_bound_monotonicity():
    for rho in (1.3, 2.0, 4.0):
        bounds = [truncation_bound(EllipseBound(rho, 1.0), m) for m in range(10)]
        assert all(b2 < b1 for b1, b2 in zip(bounds, bounds[1:]))
    b_values = [truncation_bound(EllipseBound(2.0, b), 3) for b in (0.5, 1.0, 2.0, 5.0)]
    assert all(v2 > v1 for v1, v2 in zip(b_values, b_values[1:]))
