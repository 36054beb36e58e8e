"""Tests for the bound evaluators and their numerical verification."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from chebcast import (
    EllipseBound,
    spectral_bound,
    taylor_worst_case,
    verify_cheb_decay,
    verify_spectral_bound,
    verify_taylor_attainment,
)

EXP_ELLIPSE = EllipseBound(3.0, float(np.exp(0.5 + (3.0 + 1.0 / 3.0) / 4.0)))
GAPS = np.linspace(0.05, 0.6, 23)


def test_worst_case_values():
    assert taylor_worst_case(1.0, 0, 0.5) == pytest.approx(0.5)
    assert taylor_worst_case(2.0, 1, 0.3) == pytest.approx(0.09)
    assert taylor_worst_case(6.0, 2, 0.1) == pytest.approx(0.001)


def test_worst_case_homogeneity():
    for order in range(6):
        h = 0.17
        assert taylor_worst_case(1.0, order, 2 * h) == pytest.approx(
            2 ** (order + 1) * taylor_worst_case(1.0, order, h), rel=1e-14
        )


def test_attainment_examples():
    rep = verify_taylor_attainment(1, 0.2, 1.0)
    assert rep.bound == pytest.approx(0.02)
    assert rep.passed
    rep = verify_taylor_attainment(0, 1.0, 1.0, anchor=0.0)
    assert rep.attained == pytest.approx(1.0)
    rep = verify_taylor_attainment(3, 0.5, 24.0)
    assert rep.bound == pytest.approx(0.0625)
    assert rep.passed


def test_attainment_all_orders():
    for order in range(6):
        for step in (0.05, 0.1, 0.2, 0.5):
            for bound_l in (1.0, float(math.factorial(order + 1))):
                assert verify_taylor_attainment(order, step, bound_l).rel_gap <= 1e-12


def test_decay_cubic_exact_from_degree_three():
    rep = verify_cheb_decay(lambda tau: tau**3, EllipseBound(2.0, 1.953125), range(0, 9))
    assert rep.contained
    assert max(rep.sup_errors[3:]) <= 1e-12


def test_decay_constant_exact():
    rep = verify_cheb_decay(lambda tau: 5.0, EllipseBound(2.0, 5.0), range(0, 7), min_rate_fraction=0.0)
    assert max(rep.sup_errors) <= 1e-12


def test_decay_pole_fixture():
    # pole at 2: the limiting ellipse parameter is 2 + sqrt(3); the fixture
    # uses rho = 3 with B = 1 / (2 - (rho + 1/rho)/2) = 3
    rep = verify_cheb_decay(lambda tau: 1.0 / (tau - 2.0), EllipseBound(3.0, 3.0), range(0, 13))
    assert rep.contained
    assert rep.decay_rate >= 0.9 * np.log(3.0)
    assert rep.decay_rate == pytest.approx(np.log(2 + np.sqrt(3.0)), rel=0.05)


def test_spectral_bound_lambda_zero_collapse():
    ellipse = EllipseBound(2.0, 1.0)
    eps = 0.02
    value = spectral_bound(eps, 4, 10, 1.3, 0.0, ellipse)
    assert value == pytest.approx(eps * (1 + 5 * 10 / 1.3**2))


def test_spectral_bound_zero_when_exact_and_unregularized():
    assert spectral_bound(0.0, 4, 10, 1.0, 0.0, EllipseBound(2.0, 1.0)) == 0.0


def test_spectral_bound_reference_value():
    value = spectral_bound(0.01, 4, 10, 1.0, 0.1, EllipseBound(2.0, 1.0))
    assert value == pytest.approx(0.934, abs=5e-4)


def test_spectral_bound_monotone_in_sigma():
    ellipse = EllipseBound(2.0, 1.0)
    values = [spectral_bound(0.01, 4, 10, sigma, 0.1, ellipse) for sigma in (0.1, 0.5, 1.0, 2.0)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_spectral_bound_linear_in_eps_at_lambda_zero():
    ellipse = EllipseBound(2.0, 1.0)
    one = spectral_bound(0.01, 4, 10, 1.0, 0.0, ellipse)
    three = spectral_bound(0.03, 4, 10, 1.0, 0.0, ellipse)
    assert three == pytest.approx(3 * one, rel=1e-12)


@pytest.mark.parametrize("lam,ratio_ceiling", [(0.0, 1800.0), (0.1, 15.0), (10.0, 3.5)])
def test_exp_channel_contained_with_stable_gap_ratio(lam, ratio_ceiling):
    rep = verify_spectral_bound(lambda t: float(np.exp(t)), EXP_ELLIPSE, GAPS, degree=4, lam=lam)
    assert rep.contained
    assert rep.error_ratio <= ratio_ceiling
    assert rep.taylor_bound_ratio >= 0.9 * (0.6 / 0.05) ** 2


def test_polynomial_channel_trivial_containment():
    poly = lambda t: 0.3 - 1.2 * t + 0.8 * t * t + 0.4 * t**3 - 0.5 * t**4
    rep = verify_spectral_bound(poly, EllipseBound(2.0, 12.0), GAPS, degree=4, lam=0.0)
    assert max(rep.errors) <= 1e-9
    assert rep.contained


def test_bounds_module_is_pure_math():
    """bounds imports no sampler: nothing from sandbox or schedule.

    Read from the source, since importing chebcast loads every module.
    """
    import chebcast.bounds

    tree = ast.parse(Path(chebcast.bounds.__file__).read_text())
    local = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            local.add(node.module)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [node.module] if isinstance(node, ast.ImportFrom) else [a.name for a in node.names]
            local.update(n.split(".", 1)[1] for n in names if n.startswith("chebcast."))
    assert local == {"basis", "forecasters", "ridge"}
