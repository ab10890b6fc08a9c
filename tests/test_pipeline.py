"""Constructive approximations, weak-form defects, flat zones, tail decay."""

import math

import numpy as np
import pytest

from porolab.elliptic import (
    EllipticProblem,
    GridFunction,
    build_grid,
    constant_field,
    h1_norm,
    measure_above,
    ramp_field,
    sup_norm,
)
from porolab.errors import BoundaryViolation, ConfigError
from porolab.params import Tolerances
from porolab.pipeline import (
    ZONE_NOT_APPLICABLE,
    ZONE_OK,
    approximate_solution,
    converge,
    default_test_set,
    flat_zone,
    solve_unit_load,
    weak_residual,
)
from porolab.series import harmonic, log_kind, q_partial_inverse


def _problem(f_value=2.0, lambda_scale=1.0, n=128):
    g = build_grid(1, n_cells=n)
    f = GridFunction(grid=g, values=np.full(g.node_shape, float(f_value)))
    return EllipticProblem(
        grid=g, field=constant_field(g, 1.0), f=f, lambda_scale=lambda_scale
    )


def _aux(problem, tols=Tolerances()):
    """v = lambda * v1 from one unit-load solve."""
    return solve_unit_load(problem, tols)[1].scaled(problem.lambda_scale)


# ---------------------------------------------------------------------------
# auxiliary solution and single approximations
# ---------------------------------------------------------------------------


def test_auxiliary_solution_constant_load():
    p = _problem(f_value=2.0)
    v = _aux(p)
    exact = p.grid.axes[0].nodes * (1 - p.grid.axes[0].nodes)
    assert np.max(np.abs(v.values - exact)) <= 1e-10


def test_auxiliary_solution_applies_lambda():
    # the unit-load solve ignores lambda; u_1 = v (a_1 = 1) shows it applied
    _, v1 = solve_unit_load(_problem(lambda_scale=1.0))
    _, v1_at_3 = solve_unit_load(_problem(lambda_scale=3.0))
    np.testing.assert_array_equal(v1_at_3.values, v1.values)
    u1 = approximate_solution(log_kind(), _aux(_problem(lambda_scale=3.0)), 1)
    np.testing.assert_allclose(u1.values, 3 * v1.values, atol=1e-9)


def test_converge_v_is_lambda_times_unit_load():
    p = _problem(f_value=32.0, lambda_scale=0.7)
    _, v1 = solve_unit_load(p)
    run = converge(log_kind(), p, [1], stop_tol=1e-8)
    expect = approximate_solution(log_kind(), v1.scaled(0.7), 1)
    np.testing.assert_array_equal(run.converged_u.values, expect.values)


def test_first_order_approximation_is_v_itself():
    # Q_1(s) = a_1 s with a_1 = 1, so u_1 = v
    p = _problem()
    v = _aux(p)
    u1 = approximate_solution(log_kind(), v, 1)
    np.testing.assert_allclose(u1.values, v.values, atol=1e-11)


def test_second_order_approximation_midpoint_oracle():
    # v(1/2) = 1/4 and s + s^2/2 = 1/4 has root sqrt(1.5) - 1
    p = _problem()
    u2 = approximate_solution(log_kind(), _aux(p), 2)
    mid = p.grid.axes[0].n // 2
    assert u2.values[mid] == pytest.approx(math.sqrt(1.5) - 1.0, rel=1e-9)


def test_approximations_decrease_with_order():
    p = _problem()
    tols = Tolerances()
    v = _aux(p, tols)
    prev = None
    for n in (1, 2, 3, 5, 9, 17):
        u = approximate_solution(log_kind(), v, n, tols)
        if prev is not None:
            assert np.all(u.values <= prev.values + 2 * tols.tol_invert)
        prev = u


def test_sup_commutes_with_the_inversion():
    p = _problem(f_value=32.0)
    v = _aux(p)
    u = approximate_solution(log_kind(), v, 7)
    assert sup_norm(u) == pytest.approx(
        q_partial_inverse(log_kind(), 7, sup_norm(v)), rel=1e-10
    )


def test_zero_data_gives_zero_approximation():
    p = _problem(f_value=0.0)
    u = approximate_solution(log_kind(), _aux(p), 5)
    assert np.all(u.values == 0.0)


def test_approximation_rejects_bad_order():
    with pytest.raises(ValueError):
        approximate_solution(log_kind(), GridFunction.zero(_problem().grid), 0)


# ---------------------------------------------------------------------------
# weak residual
# ---------------------------------------------------------------------------


def test_default_test_set_members():
    p = _problem(f_value=1.0, n=32)
    _, v1 = solve_unit_load(p)
    fns = default_test_set(v1)
    assert len(fns) == 7  # five hats, one sine mode, v1
    assert fns[-1] is v1
    for phi in fns:
        assert np.all(phi.boundary_values() == 0.0)


def test_default_test_set_skips_v1_for_zero_data():
    p = _problem(f_value=0.0, n=32)
    _, v1 = solve_unit_load(p)
    fns = default_test_set(v1)
    assert len(fns) == 6


def test_weak_residual_small_at_matched_truncation(residual_inputs):
    p = _problem()
    tols = Tolerances()
    v = _aux(p, tols)
    inputs = residual_inputs(p)
    for n in (1, 2, 8):
        u = approximate_solution(harmonic(), v, n, tols)
        assert weak_residual(harmonic(), p, u, n, *inputs) <= 1e-9


def test_weak_residual_positive_for_wrong_candidate(residual_inputs):
    p = _problem()
    zero = GridFunction.zero(p.grid)
    assert weak_residual(harmonic(), p, zero, 4, *residual_inputs(p)) > 0.1


def test_weak_residual_empty_test_set_is_zero(residual_inputs):
    p = _problem()
    u = approximate_solution(harmonic(), _aux(p), 4)
    _, op = residual_inputs(p)
    assert weak_residual(harmonic(), p, u, 4, [], op) == 0.0


def test_weak_residual_rejects_boundary_violations(residual_inputs):
    p = _problem()
    u = approximate_solution(harmonic(), _aux(p), 2)
    bad = GridFunction(grid=p.grid, values=np.ones(p.grid.node_shape))
    _, op = residual_inputs(p)
    with pytest.raises(BoundaryViolation):
        weak_residual(harmonic(), p, u, 2, [bad], op)


def test_weak_residual_rejects_bad_truncation(residual_inputs):
    p = _problem()
    u = approximate_solution(harmonic(), _aux(p), 2)
    with pytest.raises(ValueError):
        weak_residual(harmonic(), p, u, 0, *residual_inputs(p))


def _weak_residual_by_powers(seq, problem, u, M_terms, test_set, op):
    """Reference: one matvec per power, sum_m a_m <A_h u^m, phi> term by term."""
    vol = problem.grid.cell_volume
    u_int = u.interior()
    rhs = problem.rhs().interior()
    coeffs = seq.coefficients(M_terms)
    worst = 0.0
    for phi in test_set:
        phi_int = phi.interior()
        row = (op.matrix @ phi_int) * vol
        acc = 0.0
        power = u_int.copy()
        for m in range(1, M_terms + 1):
            if m > 1:
                power = power * u_int
            acc += coeffs[m - 1] * float(row @ power)
        load = float(rhs @ phi_int) * vol
        worst = max(worst, abs(acc - load) / (1.0 + h1_norm(phi)))
    return worst


@pytest.mark.parametrize("dim", [1, 2])
def test_weak_residual_matches_per_power_reference(dim, residual_inputs):
    if dim == 1:
        g = build_grid(1, n_cells=24)
    else:
        g = build_grid(2, n_cells=12, n_cells_y=10)
    field = ramp_field(g, base=1.0, slope_x=0.5, slope_y=0.25 * (dim - 1))
    f = GridFunction(grid=g, values=np.full(g.node_shape, 3.0))
    p = EllipticProblem(grid=g, field=field, f=f, lambda_scale=2.0)
    v = _aux(p)
    inputs = residual_inputs(p)
    for seq in (harmonic(), log_kind()):
        u = approximate_solution(seq, v, 8)
        for M in (1, 3, 8, 20):
            ref = _weak_residual_by_powers(seq, p, u, M, *inputs)
            assert weak_residual(seq, p, u, M, *inputs) == pytest.approx(
                ref, rel=1e-12, abs=1e-13
            )


def test_weak_residual_sees_dropped_tail(residual_inputs):
    # evaluating u_16 with only one term leaves a visible defect
    p = _problem()
    u = approximate_solution(harmonic(), _aux(p), 16)
    inputs = residual_inputs(p)
    matched = weak_residual(harmonic(), p, u, 16, *inputs)
    truncated = weak_residual(harmonic(), p, u, 1, *inputs)
    assert truncated > 100 * max(matched, 1e-12)


# ---------------------------------------------------------------------------
# converge
# ---------------------------------------------------------------------------


def test_converge_harmonic_limit_oracle():
    # Q(u) = -ln(1-u) equals v = x(1-x), so u = 1 - e^{-x(1-x)}
    p = _problem(f_value=2.0)
    run = converge(harmonic(), p, [1, 2, 4, 8, 16, 32, 64], stop_tol=1e-8)
    assert run.converged
    x = p.grid.axes[0].nodes
    exact = -np.expm1(-x * (1 - x))
    assert np.max(np.abs(run.converged_u.values - exact)) <= 1e-6


def test_converge_stops_early_once_settled():
    p = _problem()
    run = converge(harmonic(), p, [1, 2, 4, 8, 16, 32, 64], stop_tol=1e-8)
    assert run.executed[-1] < 64


def test_converge_sup_history_nonincreasing():
    p = _problem(f_value=32.0)
    run = converge(log_kind(), p, [1, 2, 4, 8, 16], stop_tol=1e-12)
    sups = [s for _, s in run.sup_history]
    assert all(b <= a + 1e-10 for a, b in zip(sups, sups[1:]))


def test_converge_histories_align():
    p = _problem()
    run = converge(harmonic(), p, [1, 2, 4], stop_tol=1e-15)
    assert [n for n, _ in run.sup_history] == [1, 2, 4]
    assert [n for n, _ in run.residuals] == [1, 2, 4]
    assert all(r <= 1e-9 for _, r in run.residuals)


def test_converge_flat_regime_exhausts_schedule():
    p = _problem(f_value=32.0)
    run = converge(log_kind(), p, [1, 2, 4, 8], stop_tol=1e-8)
    assert not run.converged and run.executed == (1, 2, 4, 8)
    zone = flat_zone(log_kind(), p, run.executed[-1])
    assert zone.status == ZONE_OK
    assert zone.measure > 0.5


def test_converge_rejects_bad_schedules():
    p = _problem()
    with pytest.raises(ConfigError):
        converge(harmonic(), p, [], stop_tol=1e-8)
    with pytest.raises(ConfigError):
        converge(harmonic(), p, [4, 2], stop_tol=1e-8)
    with pytest.raises(ConfigError):
        converge(harmonic(), p, [2, 2], stop_tol=1e-8)
    with pytest.raises(ConfigError):
        converge(harmonic(), p, [1, 2], stop_tol=0.0)


# ---------------------------------------------------------------------------
# flat zone
# ---------------------------------------------------------------------------


def test_flat_zone_width_oracle():
    # v = 16 x (1-x) crosses K = 2 at (1 -+ sqrt(1/2))/2: width sqrt(2)/2
    p = _problem(f_value=32.0)
    fz = flat_zone(log_kind(), p, n_large=1000)
    assert fz.status == ZONE_OK
    assert abs(fz.measure - math.sqrt(2) / 2) <= 2 * p.grid.axes[0].h
    assert fz.mean_gap <= 0.01
    assert fz.sigma == 1.0
    assert fz.K_value == pytest.approx(2.0, abs=1e-8)
    assert fz.n_large == 1000


def test_flat_zone_mask_is_indicator():
    p = _problem(f_value=32.0)
    fz = flat_zone(log_kind(), p, n_large=100)
    vals = fz.zone_mask.values
    assert set(np.unique(vals)) <= {0.0, 1.0}
    assert vals.sum() * p.grid.cell_volume == pytest.approx(fz.measure)


def test_flat_zone_empty_for_small_load():
    p = _problem(f_value=1.0)
    fz = flat_zone(log_kind(), p, n_large=50)
    assert fz.status == ZONE_OK
    assert fz.measure == 0.0 and fz.mean_gap == 0.0


def test_flat_zone_not_applicable_without_finite_k():
    fz = flat_zone(harmonic(), _problem(), n_large=10)
    assert fz.status == ZONE_NOT_APPLICABLE
    assert "divergent" in fz.detail
    assert fz.zone_mask is None


# ---------------------------------------------------------------------------
# tail decay
# ---------------------------------------------------------------------------


def _decay_table(seq, problem, run, M, sigma):
    """Rows (n, measure{u_n >= M}) and the envelope C n (sigma/M)^n through row one."""
    v = _aux(problem)
    rows = [(n, measure_above(approximate_solution(seq, v, n), M)) for n in run.executed]
    n1, m1 = rows[0]
    ratio = sigma / M
    scale = m1 / (n1 * ratio**n1)
    return rows, [scale * n * ratio**n for n, _ in rows]


def test_tail_decay_flat_regime_passes():
    p = _problem(f_value=32.0)
    run = converge(log_kind(), p, [1, 2, 4, 8, 16, 32, 64], stop_tol=1e-8)
    rows, envelope = _decay_table(log_kind(), p, run, M=1.2, sigma=1.0)
    meas = [m for _, m in rows]
    assert meas[0] > 0.8 and meas[-1] == 0.0
    assert all(m <= e for m, e in zip(meas[1:], envelope[1:]))


def test_tail_decay_trivial_when_never_exceeded():
    p = _problem(f_value=2.0)
    run = converge(harmonic(), p, [1, 2, 4], stop_tol=1e-15)
    rows, envelope = _decay_table(harmonic(), p, run, M=1.2, sigma=1.0)
    assert all(m == 0.0 for _, m in rows)
    assert all(m <= e for (_, m), e in zip(rows[1:], envelope[1:]))
