"""Tests for the bound evaluators and their numerical verification."""

import ast
import importlib
import math
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial.chebyshev import chebinterpolate, chebval

from chebcast import (
    EllipseBound,
    spectral_bound,
    taylor_worst_case,
    verify_cheb_decay,
    verify_spectral_bound,
    verify_taylor_attainment,
)
from chebcast.bounds import cheb_interpolant_values

EXP_ELLIPSE = EllipseBound(3.0, float(np.exp(0.5 + (3.0 + 1.0 / 3.0) / 4.0)))
GAPS = np.linspace(0.05, 0.6, 23)


def test_worst_case_values():
    assert taylor_worst_case(1.0, 0, 0.5) == pytest.approx(0.5)
    assert taylor_worst_case(2.0, 1, 0.3) == pytest.approx(0.09)
    assert taylor_worst_case(6.0, 2, 0.1) == pytest.approx(0.001)


@pytest.mark.parametrize("order", [1.9, True, "1"])
def test_worst_case_refuses_an_order_that_is_not_a_count(order):
    """Refused, not truncated: order 1.9 read as 1 would give 0.005, the order-1 bound."""
    with pytest.raises(ValueError, match=f"^order must be an integer >= 0, got {order!r}$"):
        taylor_worst_case(1.0, order, 0.1)


@pytest.mark.parametrize("degree", [4.5, True, -1])
def test_spectral_bound_and_decay_refuse_a_degree_that_is_not_a_count(degree):
    with pytest.raises(ValueError, match=f"^degree must be an integer >= 0, got {degree!r}$"):
        spectral_bound(1e-3, degree, 8, 0.5, 0.1, EXP_ELLIPSE)
    with pytest.raises(ValueError, match=f"^degree must be an integer >= 0, got {degree!r}$"):
        verify_cheb_decay(np.exp, EXP_ELLIPSE, [2, degree], grid_size=11)


def test_bounds_refuse_a_non_number():
    """A ValueError, not a TypeError from a comparison; the point count, a count, also refuses a fraction."""
    with pytest.raises(ValueError, match="^derivative bound must be a number, got '1'$"):
        taylor_worst_case("1", 1, 0.1)
    with pytest.raises(ValueError, match="^forecast step must be a number, got None$"):
        taylor_worst_case(1.0, 1, None)
    with pytest.raises(ValueError, match="^eps_m must be a number, got '1e-3'$"):
        spectral_bound("1e-3", 4, 8, 0.5, 0.1, EXP_ELLIPSE)
    with pytest.raises(ValueError, match="^point count must be an integer >= 0, got 8.5$"):
        spectral_bound(1e-3, 4, 8.5, 0.5, 0.1, EXP_ELLIPSE)


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


# the chebyshev suite's functions, and exp; each takes a scalar or an array
INTERPOLATED = {
    "cubic": lambda tau: tau**3,
    "pole at 2": lambda tau: 1.0 / (tau - 2.0),
    "constant": lambda tau: 5.0 + 0.0 * tau,
    "exp": np.exp,
}


@pytest.mark.parametrize("name", sorted(INTERPOLATED))
def test_interpolant_matches_numpy_chebinterpolate(name):
    """numpy interpolates at the same first-kind nodes, through its own coefficients and Clenshaw sums."""
    f = INTERPOLATED[name]
    grid = np.linspace(-1.0, 1.0, 2001)
    for degree in range(13):
        ref = chebval(grid, chebinterpolate(f, degree))
        got = cheb_interpolant_values(f, degree, grid)
        assert np.max(np.abs(got - ref)) <= 1e-13 * max(1.0, np.max(np.abs(ref))), degree


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


# Each fit layer imports only the layers below it, so the fold stays in ridge,
# which takes its design rows ready-made, and bounds stays pure math: no sampler.
LAYERS = {
    "ridge": set(),
    "forecasters": set(),
    "bounds": {"basis", "forecasters", "ridge"},
}


# Above the fit layers: the plan depends on the step times alone, so it imports no denoiser and nothing that
# runs one; the denoisers are ground truth, with no fit in them; bounds imports neither of them nor the run.
NOT_IMPORTED = {
    "plan": {"denoisers", "sandbox", "config", "cli"},
    "denoisers": {"plan", "sandbox", "forecasters", "ridge"},
    "bounds": {"plan", "denoisers", "sandbox"},
}


def package_imports(module: str) -> set[str]:
    """The chebcast modules a module imports, read from its source, since importing chebcast loads every module."""
    source = Path(importlib.import_module(f"chebcast.{module}").__file__).read_text()
    local = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            local.add(node.module)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [node.module] if isinstance(node, ast.ImportFrom) else [a.name for a in node.names]
            local.update(n.split(".", 1)[1] for n in names if n.startswith("chebcast."))
    return local


@pytest.mark.parametrize("module", sorted(LAYERS))
def test_layer_imports_only_the_layers_below(module):
    assert package_imports(module) == LAYERS[module]


@pytest.mark.parametrize("module", sorted(NOT_IMPORTED))
def test_import_graph_keeps_the_plan_and_the_denoisers_apart(module):
    assert not package_imports(module) & NOT_IMPORTED[module]


def test_only_basis_decides_what_a_number_is():
    """isinstance(..., bool) is the mark of a count or number rule; every other module calls the ones in basis."""
    deciders = set()
    for path in Path(importlib.import_module("chebcast").__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance":
                kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
                if any(isinstance(k, ast.Name) and k.id == "bool" for k in kinds):
                    deciders.add(path.name)
    assert deciders == {"basis.py"}
