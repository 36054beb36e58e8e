"""Tests for the Chebyshev recurrence, projection and truncation bound."""

import math

import numpy as np
import pytest

from chebcast import (
    BlockStack,
    EllipseBound,
    ForecasterChoice,
    ScheduleParams,
    basis_matrix,
    basis_row,
    project_time,
    truncation_bound,
)


def test_degree_zero_and_one():
    assert basis_matrix(0, 0.3)[0, 0] == 1.0
    assert basis_matrix(1, -0.4)[0, 1] == -0.4


def test_one_recurrence_step():
    assert basis_matrix(2, 0.5)[0, 2] == pytest.approx(-0.5, abs=1e-15)


def test_value_one_at_right_endpoint():
    assert basis_matrix(7, 1.0)[0, 7] == 1.0


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
        basis_matrix(3, 1.0 + 1e-6)
    # boundary slack from projection round-off is legal
    assert basis_matrix(3, 1.0 + 1e-13)[0, 3] == pytest.approx(1.0)


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
        basis_matrix(-1, 0.0)
    with pytest.raises(ValueError, match="degree"):
        basis_row(-2, 0.0)


@pytest.mark.parametrize("degree", [2.7, True, "3", None])
def test_a_degree_that_is_not_a_count_is_refused_not_truncated(degree):
    """Refused, not truncated: int() would read 2.7 as degree 2 and True as degree 1."""
    with pytest.raises(ValueError, match=f"^polynomial degree must be an integer >= 0, got {degree!r}$"):
        basis_matrix(degree, [0.0])
    with pytest.raises(ValueError, match=f"^polynomial degree must be an integer >= 0, got {degree!r}$"):
        truncation_bound(EllipseBound(2.0, 1.0), degree)


def test_an_integral_float_degree_is_a_count():
    assert np.array_equal(basis_matrix(3.0, [0.25]), basis_matrix(3, [0.25]))
    assert truncation_bound(EllipseBound(2.0, 1.0), np.int64(3)) == truncation_bound(EllipseBound(2.0, 1.0), 3)


def test_truncation_bound_values():
    assert truncation_bound(EllipseBound(2.0, 1.0), 3) == pytest.approx(0.25)
    assert truncation_bound(EllipseBound(2.0, 1.0), 0) == pytest.approx(2.0)
    # 3 * 2 / 0.5 * 1.5**-4
    assert truncation_bound(EllipseBound(1.5, 3.0), 4) == pytest.approx(2.3703703703, abs=1e-9)


# Each number checked by _real, at an int that float() cannot convert -> the parameter as its message names it
PAST_THE_FLOAT_RANGE = {
    "schedule alpha": (lambda: ScheduleParams(alpha=10**400), "alpha"),
    "block-stack gain": (lambda: BlockStack(gain=10**400), "nonlinearity gain"),
    "ridge lambda": (lambda: ForecasterChoice(kind="spectrum", lam=10**400), "regularization strength"),
    "ellipse parameter": (lambda: EllipseBound(10**400, 1.0), "ellipse parameter"),
}


@pytest.mark.parametrize("case", sorted(PAST_THE_FLOAT_RANGE))
def test_an_int_past_the_float_range_is_a_value_error_naming_the_parameter(case):
    """A ValueError on one line, not the OverflowError of float(); its 401 digits are not printed."""
    build, what = PAST_THE_FLOAT_RANGE[case]
    with pytest.raises(ValueError, match=f"^{what} must lie in the float range, got an integer of 1329 bits$"):
        build()


def test_ellipse_bound_validation():
    with pytest.raises(ValueError, match="ellipse"):
        EllipseBound(1.0, 1.0)
    with pytest.raises(ValueError, match="sup bound"):
        EllipseBound(2.0, 0.0)
    # an infinite rho would make every truncation bound 0.0, and every containment check vacuous
    for rho, sup_bound in ((math.inf, 1.0), (math.nan, 1.0), (2.0, math.inf), (2.0, math.nan)):
        with pytest.raises(ValueError, match="must be finite"):
            EllipseBound(rho, sup_bound)
    # a non-number is refused before the range comparisons
    with pytest.raises(ValueError, match="^ellipse parameter must be a number, got '3'$"):
        EllipseBound("3", 1.0)
    with pytest.raises(ValueError, match="^sup bound must be a number, got True$"):
        EllipseBound(2.0, True)


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
            assert abs(basis_matrix(m, np.cos(theta))[0, m] - np.cos(m * theta)) <= 1e-10


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
