"""Constructive approximation u_n = Q_n^{-1}(v) and its monitors.

One linear solve at unit load gives v1 (``solve_unit_load``), and the
auxiliary solution is v = lambda * v1 by linearity; every approximation order
n then only inverts the partial sum nodewise.  The module tracks sup/energy
histories, verifies the truncated weak formulation against a small test-
function set that includes v1, measures flat zones (nodes where v reaches the
boundary sum K), and checks the tail-decay envelope that forces u <= sigma in
the limit.  No eigensolve runs here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import series as series_mod
from .elliptic import (
    EllipticProblem,
    GridFunction,
    SparseOperator,
    assemble_operator,
    h1_norm,
    h1_seminorm,
    measure_above,
    require_zero_boundary,
    solve_linear,
    sup_norm,
)
from .errors import ConfigError, DomainError
from .params import Tolerances
from .series import CoefficientSequence, SeriesProfile, q_partial_inverse

ZONE_OK = "OK"
ZONE_NOT_APPLICABLE = "NotApplicable"


@dataclass(frozen=True, eq=False)
class FlatZoneResult:
    """Zone where v reaches K, with the gap to sigma at a large order."""

    status: str
    measure: float = 0.0
    mean_gap: float = 0.0
    zone_mask: GridFunction | None = None
    v: GridFunction | None = None
    u: GridFunction | None = None
    sigma: float | None = None
    K_value: float | None = None
    n_large: int | None = None
    detail: str = ""


@dataclass(frozen=True, eq=False)
class ApproximationRun:
    """Everything produced by one schedule of approximation orders."""

    profile: SeriesProfile
    v: GridFunction
    u_by_n: dict[int, GridFunction]
    sup_history: tuple[tuple[int, float], ...]
    h1_history: tuple[tuple[int, float], ...]
    residuals: tuple[tuple[int, float], ...]
    converged_u: GridFunction
    converged: bool
    schedule_exhausted: bool
    flat_zone: FlatZoneResult

    @property
    def executed(self) -> tuple[int, ...]:
        return tuple(n for n, _ in self.sup_history)


def solve_unit_load(
    problem: EllipticProblem, tols: Tolerances | None = None
) -> tuple[SparseOperator, GridFunction]:
    """Assemble A_h once and solve A_h v1 = f; every load's v is lambda * v1."""
    tols = tols if tols is not None else Tolerances()
    op = assemble_operator(problem.grid, problem.field)
    v1 = solve_linear(op, problem.f, tols.tol_linear, max_iter=tols.max_linear_iter)
    return op, v1


def approximate_solution(
    seq: CoefficientSequence,
    problem: EllipticProblem,
    n: int,
    tols: Tolerances | None = None,
    v: GridFunction | None = None,
) -> GridFunction:
    """u_n = Q_n^{-1}(v) nodewise; v defaults to lambda * v1 and is reusable across n."""
    if n < 1:
        raise ValueError("approximation order n must be >= 1")
    tols = tols if tols is not None else Tolerances()
    if v is None:
        v = solve_unit_load(problem, tols)[1].scaled(problem.lambda_scale)
    # maximum principle gives v >= 0 up to solver tolerance; clamp roundoff
    y = np.maximum(v.values, 0.0)
    u = q_partial_inverse(
        seq, n, y, tol=tols.tol_invert, max_iter=tols.max_invert_iter
    )
    return GridFunction(grid=problem.grid, values=u)


def default_test_set(v1: GridFunction) -> list[GridFunction]:
    """Hats at five interior nodes, the first sine mode, and v1 unless it is zero.

    Local spikes catch pointwise imbalance; the sine mode and v1 catch global
    imbalance.  Since A_h v1 = f, the v1 row of the weak residual tests the
    f-weighted mean of Q_M(u) - v.
    """
    g = v1.grid
    out: list[GridFunction] = []
    if g.dim == 1:
        for q in (1, 2, 3, 4, 5):
            i = min(max(1, round(q * g.nx / 6)), g.nx - 1)
            vals = np.zeros(g.node_shape)
            vals[i] = 1.0
            out.append(GridFunction(grid=g, values=vals))
        x = g.xs
        sine = np.sin(np.pi * (x - g.x0) / (g.x1 - g.x0))
    else:
        for q in (1, 2, 3, 4, 5):
            i = min(max(1, round(q * g.nx / 6)), g.nx - 1)
            j = min(max(1, round(q * g.ny / 6)), g.ny - 1)
            vals = np.zeros(g.node_shape)
            vals[j, i] = 1.0
            out.append(GridFunction(grid=g, values=vals))
        xc, yc = g.node_coordinates()
        sine = np.sin(np.pi * (xc - g.x0) / (g.x1 - g.x0)) * np.sin(
            np.pi * (yc - g.y0) / (g.y1 - g.y0)
        )
    sine = sine.copy()
    sine[g.boundary_mask()] = 0.0  # sin(pi) is only zero up to roundoff
    out.append(GridFunction(grid=g, values=sine))
    if np.any(v1.values):  # f = 0 gives v1 = 0, which tests nothing
        out.append(v1)
    return out


def weak_residual(
    seq: CoefficientSequence,
    problem: EllipticProblem,
    u: GridFunction,
    M_terms: int,
    test_set: list[GridFunction] | None = None,
    tols: Tolerances | None = None,
    op: SparseOperator | None = None,
) -> float:
    """Defect of the truncated weak identity against a set of test functions.

    For each phi:  | sum_{m<=M} a_m <A grad u^m, grad phi> - <lambda f, phi> |
    normalized by 1 + ||phi||_H1; returns the worst case.  The energy pairing
    reuses the assembled operator, so at u = u_n with M = n the value
    collapses to the linear solver defect plus inversion tolerance.  Without
    a test set, one unit-load solve supplies the operator, v1 and
    ``default_test_set(v1)``.
    """
    if M_terms < 1:
        raise ValueError("M_terms must be >= 1")
    if test_set is None:
        op, v1 = solve_unit_load(problem, tols)
        test_set = default_test_set(v1)
    elif op is None:
        op = assemble_operator(problem.grid, problem.field)
    if not test_set:
        return 0.0
    vol = problem.grid.cell_volume
    u_int = u.interior()
    rhs = problem.rhs().interior()
    coeffs = seq.coefficients(M_terms)

    pairings = []
    loads = []
    norms = []
    for phi in test_set:
        if phi.grid != problem.grid:
            raise ValueError("test function grid does not match problem grid")
        require_zero_boundary(phi, "test function")
        phi_int = phi.interior()
        pairings.append((op.matrix @ phi_int) * vol)
        loads.append(float(rhs @ phi_int) * vol)
        norms.append(1.0 + h1_norm(phi))

    G = np.vstack(pairings)  # row k: A_h phi_k . cellvol
    # sum_m a_m G u^m = G Q_M(u), so one Horner pass replaces M matvecs
    acc = G @ series_mod._horner(coeffs, u_int)
    defects = np.abs(acc - np.asarray(loads)) / np.asarray(norms)
    return float(np.max(defects))


def converge(
    seq: CoefficientSequence,
    problem: EllipticProblem,
    n_schedule,
    stop_tol: float,
    tols: Tolerances | None = None,
    with_residuals: bool = True,
) -> ApproximationRun:
    """Run the approximation schedule until successive iterates settle.

    Stops once sup|u_n - u_next| <= stop_tol; otherwise runs the whole
    schedule and flags it exhausted (expected where the limit touches sigma).
    """
    tols = tols if tols is not None else Tolerances()
    schedule = [int(n) for n in n_schedule]
    if not schedule:
        raise ConfigError("run.n_schedule must not be empty")
    if any(n < 1 for n in schedule) or any(
        b <= a for a, b in zip(schedule, schedule[1:])
    ):
        raise ConfigError("run.n_schedule must be strictly increasing and positive")
    if stop_tol <= 0:
        raise ConfigError("run.stop_tol must be positive")

    prof = series_mod.profile(seq, m_max=tols.m_max, tol=tols.tol_series)
    op, v1 = solve_unit_load(problem, tols)
    v = v1.scaled(problem.lambda_scale)
    test_set = default_test_set(v1) if with_residuals else None

    u_by_n: dict[int, GridFunction] = {}
    sup_hist = []
    h1_hist = []
    res_hist = []
    prev: GridFunction | None = None
    converged = False
    for n in schedule:
        u = approximate_solution(seq, problem, n, tols, v=v)
        u_by_n[n] = u
        sup_hist.append((n, sup_norm(u)))
        h1_hist.append((n, h1_seminorm(u)))
        if with_residuals:
            r = weak_residual(
                seq, problem, u, n, test_set=test_set, tols=tols, op=op
            )
            res_hist.append((n, r))
        if prev is not None:
            diff = float(np.max(np.abs(u.values - prev.values)))
            if diff <= stop_tol:
                converged = True
                prev = u
                break
        prev = u

    last_n = sup_hist[-1][0]
    flat = _flat_zone_result(prof, v, u_by_n[last_n], last_n)
    return ApproximationRun(
        profile=prof,
        v=v,
        u_by_n=u_by_n,
        sup_history=tuple(sup_hist),
        h1_history=tuple(h1_hist),
        residuals=tuple(res_hist),
        converged_u=u_by_n[last_n],
        converged=converged,
        schedule_exhausted=not converged,
        flat_zone=flat,
    )


def _flat_zone_result(
    prof: SeriesProfile, v: GridFunction | None, u: GridFunction | None, n: int
) -> FlatZoneResult:
    """{v >= K} and the gap of u to sigma on it; v and u are read only if K is finite."""
    if not prof.K.is_finite:
        reason = (
            "boundary sum divergent"
            if prof.K.is_divergent
            else f"boundary sum {prof.K.status}"
        )
        return FlatZoneResult(status=ZONE_NOT_APPLICABLE, sigma=prof.sigma, detail=reason)
    mask = v.values >= prof.K.value
    gap = (
        float(np.mean(np.abs(u.values[mask] - prof.sigma))) if mask.any() else 0.0
    )
    return FlatZoneResult(
        status=ZONE_OK,
        measure=measure_above(v, prof.K.value),
        mean_gap=gap,
        zone_mask=GridFunction(grid=v.grid, values=mask.astype(float)),
        v=v,
        u=u,
        sigma=prof.sigma,
        K_value=prof.K.value,
        n_large=n,
    )


def flat_zone(
    seq: CoefficientSequence,
    problem: EllipticProblem,
    n_large: int,
    tols: Tolerances | None = None,
) -> FlatZoneResult:
    """Locate {v >= K} and the distance of u_{n_large} to sigma on it."""
    if n_large < 1:
        raise ValueError("n_large must be >= 1")
    tols = tols if tols is not None else Tolerances()
    prof = series_mod.profile(seq, m_max=tols.m_max, tol=tols.tol_series)
    v = u = None
    if prof.K.is_finite:
        v = solve_unit_load(problem, tols)[1].scaled(problem.lambda_scale)
        u = approximate_solution(seq, problem, n_large, tols, v=v)
    return _flat_zone_result(prof, v, u, n_large)


@dataclass(frozen=True, eq=False)
class DecayTable:
    """Measured exceedance volumes against the n (sigma/M)^n reference."""

    M: float
    sigma: float
    rows: tuple[tuple[int, float], ...]
    envelope: tuple[tuple[int, float], ...]
    passed: bool


def tail_decay_check(run: ApproximationRun, M: float, sigma: float) -> DecayTable:
    """Compare measure{u_n >= M} with the decay envelope anchored at the first order.

    The envelope is C n (sigma/M)^n with C matching the first measured point;
    PASS means every later measure sits at or below it.
    """
    if not M > sigma:
        raise DomainError(f"tail check needs M > sigma (got M={M}, sigma={sigma})")
    rows = []
    for n in run.executed:
        rows.append((n, measure_above(run.u_by_n[n], M)))
    n1, m1 = rows[0]
    ratio = sigma / M
    if m1 > 0.0 and ratio > 0.0:
        scale = m1 / (n1 * ratio**n1)
    else:
        scale = 0.0
    envelope = [(n, scale * n * ratio**n) for n, _ in rows]
    passed = all(
        meas <= env for (_, meas), (_, env) in zip(rows[1:], envelope[1:])
    )
    return DecayTable(
        M=M, sigma=sigma, rows=tuple(rows), envelope=tuple(envelope), passed=passed
    )


def history_csv(
    run: ApproximationRun, M: float | None = None, comment: str | None = None
) -> str:
    """History rows `n,sup_u,h1_seminorm,residual,measure_above_M`.

    Columns a run did not produce stay empty rather than disappearing.
    """
    res = dict(run.residuals)
    lines = []
    if comment is not None:
        lines.append(f"# {comment}")
    lines.append("n,sup_u,h1_seminorm,residual,measure_above_M")
    h1 = dict(run.h1_history)
    for n, sup in run.sup_history:
        r = f"{res[n]:.16e}" if n in res else ""
        m = f"{measure_above(run.u_by_n[n], M):.16e}" if M is not None else ""
        lines.append(f"{n},{sup:.16e},{h1[n]:.16e},{r},{m}")
    return "\n".join(lines) + "\n"
