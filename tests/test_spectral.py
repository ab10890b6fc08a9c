"""Principal weighted eigenvalue via inverse power iteration."""

import math

import numpy as np
import pytest

from porolab.elliptic import (
    GridFunction,
    assemble_operator,
    build_grid,
    constant_field,
    ramp_field,
    solve_linear,
    sup_norm,
)
from porolab.errors import InvalidWeight, NoConvergence
from porolab.params import Tolerances
from porolab.spectral import principal_eigenpair


def _laplace_setup(dim, n):
    g = build_grid(dim, n_cells=n, n_cells_y=n if dim == 2 else None)
    op = assemble_operator(g, constant_field(g, 1.0))
    f = GridFunction(grid=g, values=np.ones(g.node_shape))
    return g, op, f


def _rayleigh(op, f, w):
    """Discrete Rayleigh quotient: energy of w over its f-weighted mass."""
    wi = w.interior()
    return float(wi @ (op.matrix @ wi)) / float(np.sum(f.interior() * wi * wi))


def test_eigenvalue_1d_matches_discrete_closed_form():
    g, op, f = _laplace_setup(1, 128)
    pair = principal_eigenpair(op, f, Tolerances(tol_eig=1e-10))
    h = g.axes[0].h
    discrete = 2.0 * (1.0 - math.cos(math.pi * h)) / h**2
    assert pair.lambda1 == pytest.approx(discrete, rel=5e-4)
    assert pair.lambda1 == pytest.approx(math.pi**2, rel=5e-3)


def test_eigenvalue_2d_matches_discrete_closed_form():
    g, op, f = _laplace_setup(2, 64)
    pair = principal_eigenpair(op, f, Tolerances(tol_eig=1e-10))
    h = g.axes[0].h
    discrete = 4.0 * (1.0 - math.cos(math.pi * h)) / h**2
    assert pair.lambda1 == pytest.approx(discrete, rel=1e-6)
    assert pair.lambda1 == pytest.approx(2.0 * math.pi**2, rel=1e-2)


def test_eigenfunction_positive_and_normalized():
    g, op, f = _laplace_setup(1, 64)
    pair = principal_eigenpair(op, f, Tolerances(tol_eig=1e-10))
    phi = pair.phi1
    assert np.all(phi.interior() > 0.0)
    assert np.all(phi.boundary_values() == 0.0)
    mass = np.sum(f.interior() * phi.interior() ** 2) * g.cell_volume
    assert mass == pytest.approx(1.0, rel=1e-12)


def test_eigenfunction_shape_is_the_sine_mode():
    g, op, f = _laplace_setup(1, 64)
    pair = principal_eigenpair(op, f, Tolerances(tol_eig=1e-12))
    mode = np.sin(np.pi * g.axes[0].nodes)
    mode /= math.sqrt(np.sum(mode[1:-1] ** 2) * g.axes[0].h)
    assert np.max(np.abs(pair.phi1.values - mode)) <= 1e-6


def test_residual_and_rayleigh_are_consistent():
    g, op, f = _laplace_setup(1, 96)
    pair = principal_eigenpair(op, f, Tolerances(tol_eig=1e-11))
    phi = pair.phi1.interior()
    a_phi = op.matrix @ phi
    residual = np.linalg.norm(a_phi - pair.lambda1 * f.interior() * phi)
    assert residual <= 1e-6 * np.linalg.norm(a_phi)
    assert _rayleigh(op, f, pair.phi1) == pytest.approx(pair.lambda1, rel=1e-9)
    assert pair.iterations >= 1


def test_rayleigh_quotient_matches_sine_example():
    # w = sin(pi x) gives energy/mass == the discrete eigenvalue exactly
    g, op, f = _laplace_setup(1, 32)
    w = GridFunction(grid=g, values=np.sin(np.pi * g.axes[0].nodes))
    h = g.axes[0].h
    discrete = 2.0 * (1.0 - math.cos(math.pi * h)) / h**2
    assert _rayleigh(op, f, w) == pytest.approx(discrete, rel=1e-12)


def test_eigenvalue_minimizes_the_rayleigh_quotient():
    rng = np.random.default_rng(77)
    g, op, f = _laplace_setup(1, 48)
    pair = principal_eigenpair(op, f, Tolerances(tol_eig=1e-11))
    for _ in range(50):
        trial = GridFunction.from_interior(g, rng.uniform(0.0, 1.0, g.n_interior) + 0.01)
        assert _rayleigh(op, f, trial) >= pair.lambda1 * (1 - 1e-10)


def test_eigenvalue_scales_inversely_with_weight():
    # replacing f by c f divides every quotient, hence lambda1, by c
    g, op, f = _laplace_setup(1, 64)
    base = principal_eigenpair(op, f, Tolerances(tol_eig=1e-11))
    scaled = principal_eigenpair(op, f.scaled(4.0), Tolerances(tol_eig=1e-11))
    assert scaled.lambda1 == pytest.approx(base.lambda1 / 4.0, rel=1e-9)


def test_eigenvalue_scales_with_coefficient():
    g = build_grid(1, n_cells=64)
    f = GridFunction(grid=g, values=np.ones(g.node_shape))
    tols = Tolerances(tol_eig=1e-11)
    lam1 = principal_eigenpair(assemble_operator(g, constant_field(g, 1.0)), f, tols).lambda1
    lam3 = principal_eigenpair(assemble_operator(g, constant_field(g, 3.0)), f, tols).lambda1
    assert lam3 == pytest.approx(3.0 * lam1, rel=1e-9)


def test_variable_coefficient_eigenvalue_between_extremes():
    # alpha lambda(Laplace) <= lambda1 <= beta lambda(Laplace)
    g = build_grid(1, n_cells=64)
    fld = ramp_field(g, base=1.0, slope_x=1.0)
    f = GridFunction(grid=g, values=np.ones(g.node_shape))
    tols = Tolerances(tol_eig=1e-10)
    pair = principal_eigenpair(assemble_operator(g, fld), f, tols)
    lap = principal_eigenpair(assemble_operator(g, constant_field(g, 1.0)), f, tols).lambda1
    assert fld.alpha * lap * 0.999 <= pair.lambda1 <= fld.beta * lap * 1.001


def test_weight_with_zeros_is_allowed():
    g = build_grid(1, n_cells=64)
    op = assemble_operator(g, constant_field(g))
    vals = np.zeros(g.node_shape)
    vals[g.axes[0].n // 2] = 1.0  # point mass in the middle
    pair = principal_eigenpair(op, GridFunction(grid=g, values=vals), Tolerances(tol_eig=1e-10))
    assert pair.lambda1 > 0
    assert np.all(pair.phi1.interior() >= 0)


def test_duality_with_the_unit_load_solution():
    # lambda1 * sup v1 >= 1 for any admissible weight (discrete duality)
    rng = np.random.default_rng(123)
    g = build_grid(1, n_cells=48)
    op = assemble_operator(g, constant_field(g))
    for _ in range(10):
        f = GridFunction(grid=g, values=rng.uniform(0.05, 2.0, g.node_shape))
        v1 = solve_linear(op, f, Tolerances(tol_linear=1e-12))
        lam = principal_eigenpair(op, f, Tolerances(tol_eig=1e-10)).lambda1
        assert lam * sup_norm(v1) >= 1.0 - 1e-8


def test_rejects_bad_weights():
    g, op, _ = _laplace_setup(1, 32)
    neg = GridFunction(grid=g, values=np.full(g.node_shape, -1.0))
    with pytest.raises(InvalidWeight):
        principal_eigenpair(op, neg, Tolerances(tol_eig=1e-10))
    zero = GridFunction.zero(g)
    with pytest.raises(InvalidWeight):
        principal_eigenpair(op, zero, Tolerances(tol_eig=1e-10))


def test_iteration_cap_raises():
    g, op, f = _laplace_setup(1, 64)
    with pytest.raises(NoConvergence):
        principal_eigenpair(op, f, Tolerances(tol_eig=1e-14, max_eig_iter=1))
