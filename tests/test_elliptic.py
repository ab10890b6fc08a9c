"""Grids, coefficient fields, operator assembly, linear solves, norms, CSV."""

import hashlib
import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from porolab.analysis import half_resolution
from porolab.elliptic import (
    Axis,
    CoefficientField,
    EllipticProblem,
    Grid,
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
from porolab.params import Tolerances
from porolab.pipeline import solve_unit_load

TOLS = Tolerances(tol_linear=1e-12)


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------


def test_grid_1d_geometry():
    g = build_grid(1, (0.0, 1.0), 8)
    assert g.axes[0].h == pytest.approx(0.125)
    assert g.cell_volume == pytest.approx(0.125)
    assert g.node_shape == (9,)
    assert g.n_interior == 7
    np.testing.assert_allclose(g.axes[0].nodes, np.linspace(0, 1, 9))
    assert g.boundary_mask().sum() == 2
    # a grid is its axes: equal axes give equal grids
    assert g == Grid((Axis(0.0, 1.0, 8),))


def test_grid_2d_geometry():
    g = build_grid(2, (0.0, 2.0), 8, y_extent=(0.0, 1.0), n_cells_y=4)
    assert g.axes[0].h == pytest.approx(0.25)
    assert g.axes[1].h == pytest.approx(0.25)
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
    with pytest.raises(ConfigError, match="n_cells"):
        build_grid(1, n_cells=8.5)  # not rounded down to 8 cells


@pytest.mark.parametrize(
    "axis,fragment",
    [
        (Axis(0.0, 0.0, 8), "degenerate"),  # h = 0
        (Axis(1.0, 0.0, 8), "degenerate"),  # reversed
        (Axis(0.0, math.inf, 8), "degenerate"),  # nodes not finite
        (Axis(0.0, 1.0, 8.5), "n_cells"),
    ],
)
def test_grid_checks_each_axis(axis, fragment):
    # the documented Grid constructor checks an axis as build_grid did
    with pytest.raises(ConfigError, match=fragment):
        Grid((axis,))
    with pytest.raises(ConfigError, match=fragment):
        Grid((Axis(0.0, 1.0, 8), axis))


@pytest.mark.parametrize("n_axes", [0, 3])
def test_grid_rejects_unsupported_axis_count(n_axes):
    # a field on three axes would keep two profiles and assemble a 2D stencil
    with pytest.raises(ConfigError, match="domain.dim must be 1 or 2"):
        Grid((Axis(0.0, 1.0, 4),) * n_axes)


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
    np.testing.assert_allclose(fld.profiles[0], 1.0 + 2.0 * g.axes[0].nodes)
    assert len(fld.profiles) == 1
    assert fld.alpha == pytest.approx(1.0)
    assert fld.beta == pytest.approx(3.0)
    g2 = build_grid(2, n_cells=4, y_extent=(-1.0, 1.0), n_cells_y=6)
    fld2 = ramp_field(g2, base=2.0, slope_x=0.5, slope_y=-0.25)
    np.testing.assert_allclose(fld2.profiles[0], 2.0 + 0.5 * g2.axes[0].nodes)
    np.testing.assert_allclose(fld2.profiles[1], 2.0 - 0.25 * g2.axes[1].nodes)


def test_field_rejects_nonpositive_coefficient():
    g = build_grid(1, n_cells=8)
    with pytest.raises(EllipticityError):
        ramp_field(g, base=-0.5)
    with pytest.raises(EllipticityError):
        constant_field(g, 0.0)


def test_field_rejects_values_outside_declared_window():
    g = build_grid(1, n_cells=8)
    a = np.full(9, 5.0)
    with pytest.raises(EllipticityError):
        CoefficientField(grid=g, profiles=(a,), alpha=1.0, beta=2.0)
    # NaN compares false against both window ends
    a = np.full(9, 1.5)
    a[3] = np.nan
    with pytest.raises(EllipticityError, match="not finite"):
        CoefficientField(grid=g, profiles=(a,), alpha=1.0, beta=2.0)
    with pytest.raises(EllipticityError, match="not finite"):
        CoefficientField(grid=g, profiles=(np.full(9, np.inf),))


def test_field_rejects_bad_declared_bound():
    # only the default 0 takes a bound from the profiles
    g = build_grid(1, n_cells=16)
    a = np.full(17, 2.0)
    for name in ("alpha", "beta"):
        for bound in (-1.0, math.nan, math.inf):
            with pytest.raises(EllipticityError, match=f"bound {name}="):
                CoefficientField(g, (a,), **{name: bound})
    fld = CoefficientField(g, (a,), alpha=1.0)
    assert (fld.alpha, fld.beta) == (1.0, 2.0)


def test_field_rejects_shape_mismatch():
    g = build_grid(1, n_cells=8)
    with pytest.raises(EllipticityError):
        CoefficientField(grid=g, profiles=(np.ones(4),))
    with pytest.raises(EllipticityError):
        CoefficientField(grid=g, profiles=(np.ones(g.node_shape), np.ones(g.node_shape)))
    g2 = build_grid(2, n_cells=8, n_cells_y=6)
    with pytest.raises(EllipticityError):
        CoefficientField(grid=g2, profiles=(np.ones(9),))
    with pytest.raises(EllipticityError):
        CoefficientField(grid=g2, profiles=(np.ones(9), np.ones(9)))
    with pytest.raises(EllipticityError):
        CoefficientField(grid=g2, profiles=(np.ones(g2.node_shape), np.ones(7)))


def test_field_profiles_are_private_and_read_only():
    # a field cannot go stale: writes to its profiles fail, and the caller's
    # array is copied, so later writes to it do not reach the field
    g = build_grid(1, n_cells=8)
    fld = constant_field(g, 1.0)
    with pytest.raises(ValueError):
        fld.profiles[0][3] = 50.0
    a = np.ones(9)
    fld = CoefficientField(grid=g, profiles=(a,))
    a[3] = 50.0
    assert fld.profiles[0][3] == 1.0 and fld.beta == 1.0


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
    A = assemble_operator(g, CoefficientField(grid=g, profiles=(ax, ay))).matrix
    gx, gy = build_grid(1, (0.0, 2.0), nx), build_grid(1, (-1.0, 0.5), ny)
    T_x = assemble_operator(gx, CoefficientField(grid=gx, profiles=(ax,))).matrix
    T_y = assemble_operator(gy, CoefficientField(grid=gy, profiles=(ay,))).matrix
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
        ax, *ay = (rng.uniform(0.5, 2.0, a.n + 1) for a in g.axes)
        op = assemble_operator(g, CoefficientField(grid=g, profiles=(ax, *ay)))
        u = GridFunction.from_interior(g, rng.uniform(-1, 1, g.n_interior))
        quad = float(u.interior() @ (op.matrix @ u.interior())) * g.cell_volume
        dx = np.diff(u.values, axis=-1) / g.axes[0].h
        face = np.sum(0.5 * (ax[:-1] + ax[1:]) * dx * dx)
        if dim == 2:
            dy = np.diff(u.values, axis=0) / g.axes[1].h
            face += np.sum(0.5 * (ay[0][:-1] + ay[0][1:])[:, None] * dy * dy)
        assert quad == pytest.approx(face * g.cell_volume, rel=1e-12)


# ---------------------------------------------------------------------------
# linear solves
# ---------------------------------------------------------------------------


def _poisson_1d(n, f_values, a_value=1.0):
    g = build_grid(1, n_cells=n)
    fld = constant_field(g, a_value)
    op = assemble_operator(g, fld)
    f = GridFunction(grid=g, values=f_values(g.axes[0].nodes))
    return g, solve_linear(op, f, TOLS)


def test_solve_constant_load_is_stencil_exact():
    g, v = _poisson_1d(128, lambda x: np.full_like(x, 2.0))
    exact = g.axes[0].nodes * (1.0 - g.axes[0].nodes)
    assert np.max(np.abs(v.values - exact)) <= 1e-10


def test_solve_sine_load_second_order():
    errs = []
    for n in (16, 32, 64):
        g, v = _poisson_1d(n, lambda x: np.pi**2 * np.sin(np.pi * x))
        errs.append(np.max(np.abs(v.values - np.sin(np.pi * g.axes[0].nodes))))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.15)


def test_solve_variable_coefficient_second_order():
    # a = 1 + x, v = sin(pi x), f = -(a v')' = -pi cos(pi x) + (1+x) pi^2 sin(pi x)
    errs = []
    for n in (32, 64, 128):
        g = build_grid(1, n_cells=n)
        op = assemble_operator(g, ramp_field(g, base=1.0, slope_x=1.0))
        x = g.axes[0].nodes
        f = GridFunction(
            grid=g,
            values=-np.pi * np.cos(np.pi * x) + (1 + x) * np.pi**2 * np.sin(np.pi * x),
        )
        v = solve_linear(op, f, TOLS)
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
    v = solve_linear(op, f, TOLS)
    assert np.max(np.abs(v.values - exact)) <= 5e-3  # O(h^2), h = 1/32


def test_solve_is_linear_in_the_load():
    rng = np.random.default_rng(11)
    g = build_grid(1, n_cells=32)
    op = assemble_operator(g, constant_field(g, 1.0))
    f1 = GridFunction(grid=g, values=rng.uniform(0, 1, g.node_shape))
    f2 = GridFunction(grid=g, values=rng.uniform(0, 1, g.node_shape))
    v1 = solve_linear(op, f1, TOLS)
    v2 = solve_linear(op, f2, TOLS)
    both = solve_linear(op, GridFunction(grid=g, values=f1.values + f2.values), TOLS)
    np.testing.assert_allclose(both.values, v1.values + v2.values, atol=1e-9)


def test_solve_maximum_principle():
    rng = np.random.default_rng(5)
    g = build_grid(2, n_cells=10, n_cells_y=10)
    op = assemble_operator(g, ramp_field(g, base=1.0, slope_x=1.0, slope_y=1.0))
    f = GridFunction(grid=g, values=rng.uniform(0, 3, g.node_shape))
    v = solve_linear(op, f, TOLS)
    assert v.values.min() >= -1e-10 * sup_norm(v)


def test_solve_zero_rhs_returns_exact_zero():
    g = build_grid(1, n_cells=16)
    op = assemble_operator(g, constant_field(g))
    v = solve_linear(op, GridFunction.zero(g), TOLS)
    assert np.all(v.values == 0.0)


def test_solve_rejects_rhs_on_another_grid():
    g, other = build_grid(1, n_cells=8), build_grid(1, n_cells=16)
    op = assemble_operator(g, constant_field(g))
    f = GridFunction(grid=other, values=np.ones(other.node_shape))
    with pytest.raises(ConfigError, match="grid"):
        solve_linear(op, f, TOLS)


def test_solve_iteration_cap_raises():
    g = build_grid(1, n_cells=128)
    op = assemble_operator(g, constant_field(g))
    f = GridFunction(grid=g, values=np.full(g.node_shape, 2.0))
    with pytest.raises(NoConvergence):
        solve_linear(op, f, Tolerances(tol_linear=1e-12, max_linear_iter=1))


def test_solve_accepts_float64_limit_on_fine_grid():
    # float64 CG stalls at relative residual about 1.3e-11 here, above
    # 10 * tol; its componentwise backward error is about 2e-14
    g = build_grid(2, n_cells=256)
    op = assemble_operator(g, constant_field(g))
    f = GridFunction(grid=g, values=np.ones(g.node_shape))
    v = solve_linear(op, f, Tolerances(tol_linear=1e-12))
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
    solve_linear(op, f, Tolerances(tol_linear=1e-12))  # the exact CG answer passes
    monkeypatch.setattr(elliptic, "cg", sloppy_cg)
    with pytest.raises(NoConvergence, match="backward error"):
        solve_linear(op, f, Tolerances(tol_linear=1e-12))


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
    for lam in (0.0, math.inf, math.nan):
        with pytest.raises(ConfigError, match="positive and finite"):
            EllipticProblem(grid=g, field=constant_field(g), f=f, lambda_scale=lam)


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
    u = GridFunction(grid=g, values=g.axes[0].nodes.copy())
    assert h1_seminorm(u) == pytest.approx(1.0, rel=1e-14)


def test_l2_norm_of_constant():
    # a constant has zero gradient, so its H1 norm is its l2 norm
    g = build_grid(1, n_cells=10)
    u = GridFunction(grid=g, values=np.ones(g.node_shape))
    assert h1_norm(u) == pytest.approx(math.sqrt(g.n_nodes * g.cell_volume))


def test_measure_above_counts_cells():
    g = build_grid(1, n_cells=8)
    u = GridFunction(grid=g, values=g.axes[0].nodes.copy())
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
    u = GridFunction(grid=g, values=np.sin(g.axes[0].nodes) + 1 / 3)
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


def _sha256(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def test_assembly_and_csv_are_bitwise_fixed():
    # the golden suite compares values to 1e-11; these fingerprints pin the
    # CSR arrays and the CSV text bit for bit
    g1 = build_grid(1, (0.0, 1.0), 32)
    g2 = build_grid(2, (0.0, 2.0), 16, (-1.0, 1.0), 12)
    for g, ramp, want in (
        (
            g1,
            dict(base=1.0, slope_x=0.5),
            "fcddd1395f559946942f1c6de51f4fb79d4bfbb267c4650151ae83e56ffa521c",
        ),
        (
            g2,
            dict(base=1.5, slope_x=0.25, slope_y=0.5),
            "0f0a6cf02a5fd907a1e2d149e3853b7efeaf85f0d7d8858cddacb8934c30aa0d",
        ),
    ):
        m = assemble_operator(g, ramp_field(g, **ramp)).matrix
        got = _sha256(
            m.data.astype("<f8"), m.indices.astype("<i8"), m.indptr.astype("<i8")
        )
        assert got == want, g
    for g, want in (
        (g1, "5f7199a3fa2d9a5209c24a8408718e9b1a7b240681a528ffc864ebb52d1779e3"),
        (g2, "8d08fe8cea856aef5331861376269ed8249c1abdcf8076b7383a9933e44d028f"),
    ):
        vals = (np.arange(g.n_nodes) / 7.0 - 2.0).reshape(g.node_shape)
        text = gridfunction_to_csv(GridFunction(grid=g, values=vals), comment="fixed")
        assert hashlib.sha256(text.encode()).hexdigest() == want, g


# ---------------------------------------------------------------------------
# drawn grids
# ---------------------------------------------------------------------------


@st.composite
def _drawn_problems(draw):
    """Problem on a drawn 1D or 2D grid: 4-12 cells and a random extent per
    axis, a positive linear profile per axis, nonnegative nodal data."""
    axes, profiles = [], []
    for _ in range(draw(st.integers(1, 2))):
        lo = draw(st.floats(-5.0, 5.0))
        axis = Axis(lo, lo + draw(st.floats(0.25, 4.0)), draw(st.integers(4, 12)))
        a_lo, a_hi = draw(st.floats(0.1, 10.0)), draw(st.floats(0.1, 10.0))
        axes.append(axis)
        profiles.append(a_lo + (a_hi - a_lo) * np.linspace(0.0, 1.0, axis.n + 1))
    g = Grid(tuple(axes))
    f = draw(st.lists(st.floats(0.0, 10.0), min_size=g.n_nodes, max_size=g.n_nodes))
    return EllipticProblem(
        grid=g,
        field=CoefficientField(g, tuple(profiles)),
        f=GridFunction(grid=g, values=np.array(f)),
    )


@settings(max_examples=50, deadline=None, derandomize=True)
@given(problem=_drawn_problems())
def test_drawn_grids(problem, tmp_path_factory):
    g = problem.grid
    # the CSV round trip is bitwise
    path = str(tmp_path_factory.mktemp("csv") / "f.csv")
    write_gridfunction_csv(problem.f, path)
    assert read_gridfunction_csv(path, g).values.tobytes() == problem.f.values.tobytes()
    # maximum principle, and the Dirichlet rim is exactly zero
    v1 = solve_unit_load(problem)[1]
    assert np.all(v1.values >= 0.0)
    assert np.all(v1.boundary_values() == 0.0)
    # half resolution keeps every other node of the data and of each profile
    half = half_resolution(problem)
    if any(a.n % 2 or a.n < 8 for a in g.axes):
        assert half is None
        return
    every_other = (slice(None, None, 2),) * g.dim
    assert half.grid.axes == tuple(Axis(a.lo, a.hi, a.n // 2) for a in g.axes)
    assert half.f.values.tobytes() == problem.f.values[every_other].tobytes()
    for got, full in zip(half.field.profiles, problem.field.profiles):
        assert got.tobytes() == full[::2].tobytes()
