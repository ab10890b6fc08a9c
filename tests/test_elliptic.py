"""Grids, coefficient fields, operator assembly, linear solves, norms, CSV."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from porolab.elliptic import (
    CoefficientField,
    EllipticProblem,
    GridFunction,
    assemble_operator,
    build_grid,
    constant_field,
    gridfunction_to_csv,
    h1_norm,
    h1_seminorm,
    measure_above,
    ramp_field,
    read_gridfunction_csv,
    require_zero_boundary,
    solve_linear,
    sup_norm,
    write_gridfunction_csv,
)
from porolab.errors import (
    BoundaryViolation,
    ConfigError,
    EllipticityError,
    InvalidWeight,
    NoConvergence,
)

TOL = 1e-12


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------


def test_grid_1d_geometry():
    g = build_grid(1, (0.0, 1.0), 8)
    assert g.hx == pytest.approx(0.125)
    assert g.cell_volume == pytest.approx(0.125)
    assert g.node_shape == (9,)
    assert g.n_interior == 7
    np.testing.assert_allclose(g.xs, np.linspace(0, 1, 9))
    assert g.boundary_mask().sum() == 2


def test_grid_2d_geometry():
    g = build_grid(2, (0.0, 2.0), 8, y_extent=(0.0, 1.0), n_cells_y=4)
    assert g.hx == pytest.approx(0.25)
    assert g.hy == pytest.approx(0.25)
    assert g.cell_volume == pytest.approx(0.0625)
    assert g.node_shape == (5, 9)
    assert g.n_interior == 3 * 7
    # perimeter nodes
    assert g.boundary_mask().sum() == 2 * 9 + 2 * 3


def test_build_grid_rejects_bad_input():
    with pytest.raises(ConfigError):
        build_grid(3)
    with pytest.raises(ConfigError):
        build_grid(1, (1.0, 1.0))
    with pytest.raises(ConfigError):
        build_grid(1, n_cells=2)
    with pytest.raises(ConfigError):
        build_grid(2, n_cells=16, n_cells_y=3)


# ---------------------------------------------------------------------------
# coefficient fields
# ---------------------------------------------------------------------------


def test_constant_field_window():
    g = build_grid(1, n_cells=8)
    fld = constant_field(g, 2.5)
    assert fld.alpha == 2.5 and fld.beta == 2.5


def test_ramp_field_values():
    g = build_grid(1, n_cells=4)
    fld = ramp_field(g, base=1.0, slope_x=2.0)
    np.testing.assert_allclose(fld.ax, 1.0 + 2.0 * g.xs)
    assert fld.ay is None
    assert fld.alpha == pytest.approx(1.0)
    assert fld.beta == pytest.approx(3.0)
    g2 = build_grid(2, n_cells=4, y_extent=(-1.0, 1.0), n_cells_y=6)
    fld2 = ramp_field(g2, base=2.0, slope_x=0.5, slope_y=-0.25)
    np.testing.assert_allclose(fld2.ax, 2.0 + 0.5 * g2.xs)
    np.testing.assert_allclose(fld2.ay, 2.0 - 0.25 * g2.ys)


def test_field_rejects_nonpositive_coefficient():
    g = build_grid(1, n_cells=8)
    with pytest.raises(EllipticityError):
        ramp_field(g, base=-0.5)
    with pytest.raises(EllipticityError):
        constant_field(g, 0.0)


def test_field_rejects_values_outside_declared_window():
    g = build_grid(1, n_cells=8)
    a = np.full(g.nx + 1, 5.0)
    with pytest.raises(EllipticityError):
        CoefficientField(grid=g, ax=a, alpha=1.0, beta=2.0)
    # NaN compares false against both window ends
    a = np.full(g.nx + 1, 1.5)
    a[3] = np.nan
    with pytest.raises(EllipticityError, match="not finite"):
        CoefficientField(grid=g, ax=a, alpha=1.0, beta=2.0)
    with pytest.raises(EllipticityError, match="not finite"):
        CoefficientField(grid=g, ax=np.full(g.nx + 1, np.inf))


def test_field_rejects_shape_mismatch():
    g = build_grid(1, n_cells=8)
    with pytest.raises(EllipticityError):
        CoefficientField(grid=g, ax=np.ones(4))
    with pytest.raises(EllipticityError):
        CoefficientField(grid=g, ax=np.ones(g.node_shape), ay=np.ones(g.node_shape))
    g2 = build_grid(2, n_cells=8, n_cells_y=6)
    with pytest.raises(EllipticityError):
        CoefficientField(grid=g2, ax=np.ones(9))
    with pytest.raises(EllipticityError):
        CoefficientField(grid=g2, ax=np.ones(9), ay=np.ones(9))
    with pytest.raises(EllipticityError):
        CoefficientField(grid=g2, ax=np.ones(g2.node_shape), ay=np.ones(7))


def test_field_profiles_are_private_and_read_only():
    # a field cannot go stale: writes to its profiles fail, and the caller's
    # array is copied, so later writes to it do not reach the field
    g = build_grid(1, n_cells=8)
    fld = constant_field(g, 1.0)
    with pytest.raises(ValueError):
        fld.ax[3] = 50.0
    a = np.ones(g.nx + 1)
    fld = CoefficientField(grid=g, ax=a)
    a[3] = 50.0
    assert fld.ax[3] == 1.0 and fld.beta == 1.0


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


def test_assembly_1d_hand_check():
    # a(x) = 1 + x on 4 cells, h = 1/4: faces are means of node values
    g = build_grid(1, n_cells=4)
    op = assemble_operator(g, ramp_field(g, base=1.0, slope_x=1.0))
    A = op.matrix.toarray()
    h2 = 0.25**2
    expect = (
        np.array(
            [
                [1.125 + 1.375, -1.375, 0.0],
                [-1.375, 1.375 + 1.625, -1.625],
                [0.0, -1.625, 1.625 + 1.875],
            ]
        )
        / h2
    )
    np.testing.assert_allclose(A, expect, rtol=1e-15)


def test_assembly_symmetric_and_m_matrix():
    g = build_grid(2, n_cells=12, n_cells_y=9)
    fld = ramp_field(g, base=0.7, slope_x=1.3, slope_y=0.4)
    op = assemble_operator(g, fld)
    A = op.matrix
    assert (A - A.T).nnz == 0  # exactly symmetric
    dense = A.toarray()
    off = dense - np.diag(np.diag(dense))
    assert np.all(off <= 0.0)
    assert np.all(np.diag(dense) > 0.0)
    # diagonal dominance: row sums are nonnegative, strict near the rim
    sums = dense.sum(axis=1)
    assert np.all(sums >= -1e-9 * np.max(np.diag(dense)))
    assert sums.max() > 0


@st.composite
def _axis_profiles(draw):
    nx, ny = draw(st.lists(st.integers(4, 12), min_size=2, max_size=2, unique=True))
    coeff = st.floats(0.1, 10.0)
    ax = draw(st.lists(coeff, min_size=nx + 1, max_size=nx + 1))
    ay = draw(st.lists(coeff, min_size=ny + 1, max_size=ny + 1))
    return nx, ny, np.array(ax), np.array(ay)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(_axis_profiles())
def test_assembly_2d_is_kronecker_sum_of_1d(profiles):
    # A_h = I (x) T_x + T_y (x) I with T_x, T_y the 1D operators of the axis
    # profiles: the structure a fast-diagonalization solve relies on
    nx, ny, ax, ay = profiles
    g = build_grid(2, (0.0, 2.0), nx, y_extent=(-1.0, 0.5), n_cells_y=ny)
    A = assemble_operator(g, CoefficientField(grid=g, ax=ax, ay=ay)).matrix
    gx, gy = build_grid(1, (0.0, 2.0), nx), build_grid(1, (-1.0, 0.5), ny)
    T_x = assemble_operator(gx, CoefficientField(grid=gx, ax=ax)).matrix
    T_y = assemble_operator(gy, CoefficientField(grid=gy, ax=ay)).matrix
    K = sp.kron(sp.identity(ny - 1), T_x) + sp.kron(T_y, sp.identity(nx - 1))
    dense = A.toarray()
    scale = np.max(np.abs(dense))
    assert np.max(np.abs(dense - K.toarray())) <= 4 * np.finfo(float).eps * scale


def test_operator_energy_two_routes_agree():
    # u . A_h u . cellvol equals the sum over faces of a_face (difference
    # quotient)^2 cellvol; random per-axis profiles on an nx != ny grid give
    # every x face column and every y face row its own value
    rng = np.random.default_rng(42)
    for dim in (1, 2):
        g = build_grid(dim, n_cells=16, n_cells_y=11 if dim == 2 else None)
        ax = rng.uniform(0.5, 2.0, g.nx + 1)
        ay = rng.uniform(0.5, 2.0, g.ny + 1) if dim == 2 else None
        op = assemble_operator(g, CoefficientField(grid=g, ax=ax, ay=ay))
        u = GridFunction.from_interior(g, rng.uniform(-1, 1, g.n_interior))
        quad = float(u.interior() @ (op.matrix @ u.interior())) * g.cell_volume
        dx = np.diff(u.values, axis=-1) / g.hx
        face = np.sum(0.5 * (ax[:-1] + ax[1:]) * dx * dx)
        if dim == 2:
            dy = np.diff(u.values, axis=0) / g.hy
            face += np.sum(0.5 * (ay[:-1] + ay[1:])[:, None] * dy * dy)
        assert quad == pytest.approx(face * g.cell_volume, rel=1e-12)


# ---------------------------------------------------------------------------
# linear solves
# ---------------------------------------------------------------------------


def _poisson_1d(n, f_values, a_value=1.0):
    g = build_grid(1, n_cells=n)
    fld = constant_field(g, a_value)
    op = assemble_operator(g, fld)
    f = GridFunction(grid=g, values=f_values(g.xs))
    return g, solve_linear(op, f, tol=TOL)


def test_solve_constant_load_is_stencil_exact():
    g, v = _poisson_1d(128, lambda x: np.full_like(x, 2.0))
    exact = g.xs * (1.0 - g.xs)
    assert np.max(np.abs(v.values - exact)) <= 1e-10


def test_solve_sine_load_second_order():
    errs = []
    for n in (16, 32, 64):
        g, v = _poisson_1d(n, lambda x: np.pi**2 * np.sin(np.pi * x))
        errs.append(np.max(np.abs(v.values - np.sin(np.pi * g.xs))))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.15)


def test_solve_variable_coefficient_second_order():
    # a = 1 + x, v = sin(pi x), f = -(a v')' = -pi cos(pi x) + (1+x) pi^2 sin(pi x)
    errs = []
    for n in (32, 64, 128):
        g = build_grid(1, n_cells=n)
        op = assemble_operator(g, ramp_field(g, base=1.0, slope_x=1.0))
        x = g.xs
        f = GridFunction(
            grid=g,
            values=-np.pi * np.cos(np.pi * x) + (1 + x) * np.pi**2 * np.sin(np.pi * x),
        )
        v = solve_linear(op, f, tol=TOL)
        errs.append(np.max(np.abs(v.values - np.sin(np.pi * x))))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.2)


def test_solve_2d_separable_oracle():
    # v = sin(pi x) sin(pi y), f = 2 pi^2 v
    g = build_grid(2, n_cells=32, n_cells_y=32)
    op = assemble_operator(g, constant_field(g, 1.0))
    X, Y = g.node_coordinates()
    exact = np.sin(np.pi * X) * np.sin(np.pi * Y)
    f = GridFunction(grid=g, values=2 * np.pi**2 * exact)
    v = solve_linear(op, f, tol=TOL)
    assert np.max(np.abs(v.values - exact)) <= 5e-3  # O(h^2), h = 1/32


def test_solve_is_linear_in_the_load():
    rng = np.random.default_rng(11)
    g = build_grid(1, n_cells=32)
    op = assemble_operator(g, constant_field(g, 1.0))
    f1 = GridFunction(grid=g, values=rng.uniform(0, 1, g.node_shape))
    f2 = GridFunction(grid=g, values=rng.uniform(0, 1, g.node_shape))
    v1 = solve_linear(op, f1, tol=TOL)
    v2 = solve_linear(op, f2, tol=TOL)
    both = solve_linear(op, GridFunction(grid=g, values=f1.values + f2.values), tol=TOL)
    np.testing.assert_allclose(both.values, v1.values + v2.values, atol=1e-9)


def test_solve_maximum_principle():
    rng = np.random.default_rng(5)
    g = build_grid(2, n_cells=10, n_cells_y=10)
    op = assemble_operator(g, ramp_field(g, base=1.0, slope_x=1.0, slope_y=1.0))
    f = GridFunction(grid=g, values=rng.uniform(0, 3, g.node_shape))
    v = solve_linear(op, f, tol=TOL)
    assert v.values.min() >= -1e-10 * sup_norm(v)


def test_solve_zero_rhs_returns_exact_zero():
    g = build_grid(1, n_cells=16)
    op = assemble_operator(g, constant_field(g))
    v = solve_linear(op, GridFunction.zero(g), tol=TOL)
    assert np.all(v.values == 0.0)


def test_solve_iteration_cap_raises():
    g = build_grid(1, n_cells=128)
    op = assemble_operator(g, constant_field(g))
    f = GridFunction(grid=g, values=np.full(g.node_shape, 2.0))
    with pytest.raises(NoConvergence):
        solve_linear(op, f, tol=1e-12, max_iter=1)


def test_solve_accepts_float64_limit_on_fine_grid():
    # float64 CG stalls at relative residual about 1.3e-11 here, above
    # 10 * tol; its componentwise backward error is about 2e-14
    g = build_grid(2, n_cells=256)
    op = assemble_operator(g, constant_field(g))
    f = GridFunction(grid=g, values=np.ones(g.node_shape))
    v = solve_linear(op, f, tol=1e-12)
    assert sup_norm(v) == pytest.approx(0.07367, rel=1e-3)


def test_solve_rejects_perturbed_answer(monkeypatch):
    import porolab.elliptic as elliptic

    real_cg = elliptic.cg
    signs = np.random.default_rng(3).choice([-1.0, 1.0], size=127)

    def sloppy_cg(*args, **kwargs):
        x, info = real_cg(*args, **kwargs)
        return x * (1.0 + 1e-9 * signs), info

    g = build_grid(1, n_cells=128)
    op = assemble_operator(g, constant_field(g))
    f = GridFunction(grid=g, values=np.full(g.node_shape, 2.0))
    solve_linear(op, f, tol=1e-12)  # the exact CG answer passes
    monkeypatch.setattr(elliptic, "cg", sloppy_cg)
    with pytest.raises(NoConvergence, match="backward error"):
        solve_linear(op, f, tol=1e-12)


def test_solution_has_zero_boundary():
    g, v = _poisson_1d(32, lambda x: np.full_like(x, 1.0))
    require_zero_boundary(v)  # must not raise
    assert np.all(v.boundary_values() == 0.0)


# ---------------------------------------------------------------------------
# problems
# ---------------------------------------------------------------------------


def test_problem_rejects_negative_data():
    g = build_grid(1, n_cells=8)
    f = GridFunction(grid=g, values=np.full(g.node_shape, -1.0))
    with pytest.raises(InvalidWeight):
        EllipticProblem(grid=g, field=constant_field(g), f=f)


def test_problem_rejects_nonpositive_lambda():
    g = build_grid(1, n_cells=8)
    f = GridFunction(grid=g, values=np.ones(g.node_shape))
    with pytest.raises(ConfigError):
        EllipticProblem(grid=g, field=constant_field(g), f=f, lambda_scale=0.0)


def test_problem_rhs_scales_data():
    g = build_grid(1, n_cells=8)
    f = GridFunction(grid=g, values=np.ones(g.node_shape))
    p = EllipticProblem(grid=g, field=constant_field(g), f=f, lambda_scale=3.0)
    np.testing.assert_allclose(p.rhs().values, 3.0)


# ---------------------------------------------------------------------------
# norms, measures, boundary checks
# ---------------------------------------------------------------------------


def test_h1_seminorm_of_identity_map():
    g = build_grid(1, n_cells=16)
    u = GridFunction(grid=g, values=g.xs.copy())
    assert h1_seminorm(u) == pytest.approx(1.0, rel=1e-14)


def test_l2_norm_of_constant():
    # a constant has zero gradient, so its H1 norm is its l2 norm
    g = build_grid(1, n_cells=10)
    u = GridFunction(grid=g, values=np.ones(g.node_shape))
    assert h1_norm(u) == pytest.approx(math.sqrt(g.n_nodes * g.cell_volume))


def test_measure_above_counts_cells():
    g = build_grid(1, n_cells=8)
    u = GridFunction(grid=g, values=g.xs.copy())
    assert measure_above(u, 0.5) == pytest.approx(5 * 0.125)
    assert measure_above(u, 2.0) == 0.0


def test_require_zero_boundary_raises():
    g = build_grid(1, n_cells=8)
    vals = np.zeros(g.node_shape)
    vals[-1] = 1e-30
    with pytest.raises(BoundaryViolation):
        require_zero_boundary(GridFunction(grid=g, values=vals), "test function")


def test_interior_order_is_row_major():
    g = build_grid(2, n_cells=4, n_cells_y=4)
    u = GridFunction.from_interior(g, np.arange(9.0))
    assert u.values[1, 1] == 0.0
    assert u.values[1, 3] == 2.0
    assert u.values[2, 1] == 3.0  # next y row continues the flat index
    np.testing.assert_allclose(u.interior(), np.arange(9.0))
    assert np.all(u.boundary_values() == 0.0)


# ---------------------------------------------------------------------------
# CSV round trips
# ---------------------------------------------------------------------------


def test_csv_round_trip_1d(tmp_path):
    g = build_grid(1, n_cells=8)
    u = GridFunction(grid=g, values=np.sin(g.xs) + 1 / 3)
    path = tmp_path / "u.csv"
    write_gridfunction_csv(u, str(path), comment="round trip")
    text = path.read_text()
    assert text.startswith("# round trip\nx,value\n")
    back = read_gridfunction_csv(str(path), g)
    np.testing.assert_array_equal(back.values, u.values)


def test_csv_round_trip_2d(tmp_path):
    rng = np.random.default_rng(9)
    g = build_grid(2, n_cells=5, n_cells_y=4)
    u = GridFunction(grid=g, values=rng.normal(size=g.node_shape))
    path = tmp_path / "u2.csv"
    write_gridfunction_csv(u, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "x,y,value"
    assert len(lines) == 1 + g.n_nodes
    back = read_gridfunction_csv(str(path), g)
    np.testing.assert_array_equal(back.values, u.values)


def test_csv_read_rejects_wrong_grid(tmp_path):
    g = build_grid(1, n_cells=8)
    u = GridFunction(grid=g, values=np.zeros(g.node_shape))
    path = tmp_path / "u.csv"
    write_gridfunction_csv(u, str(path))
    other = build_grid(1, n_cells=16)
    with pytest.raises(ConfigError):
        read_gridfunction_csv(str(path), other)
    shifted = build_grid(1, (5.0, 6.0), 8)
    with pytest.raises(ConfigError, match="coordinates"):
        read_gridfunction_csv(str(path), shifted)
    g2 = build_grid(2, n_cells=8, n_cells_y=6)
    write_gridfunction_csv(GridFunction.zero(g2), str(path))
    for x_extent, y_extent in (((5.0, 6.0), (0.0, 1.0)), ((0.0, 1.0), (5.0, 6.0))):
        moved = build_grid(2, x_extent, 8, y_extent, 6)
        with pytest.raises(ConfigError, match="coordinates"):
            read_gridfunction_csv(str(path), moved)


def test_csv_to_string_precision():
    g = build_grid(1, n_cells=4)
    u = GridFunction(grid=g, values=np.full(g.node_shape, 1 / 3))
    text = gridfunction_to_csv(u)
    assert "3.3333333333333331e-01" in text
