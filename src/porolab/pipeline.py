"""Constructive approximation u_n = Q_n^{-1}(v) and its monitors.

One linear solve at unit load gives v1 (``solve_unit_load``), and the
auxiliary solution is v = lambda * v1 by linearity; every approximation order
n then only inverts the partial sum nodewise.  The module tracks the sup of
each order, verifies the truncated weak formulation against a small test-
function set that includes v1, and measures flat zones (nodes where v reaches
the boundary sum K).  No eigensolve runs here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import series as series_mod
from .elliptic import (
    EllipticProblem,
    GridFunction,
    SparseOperator,
    assemble_operator,
    h1_norm,
    measure_above,
    require_zero_boundary,
    solve_linear,
    sup_norm,
)
from .errors import ConfigError
from .params import Tolerances
from .series import CoefficientSequence, q_partial, q_partial_inverse

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

    v: GridFunction
    u_by_n: dict[int, GridFunction]
    sup_history: tuple[tuple[int, float], ...]
    residuals: tuple[tuple[int, float], ...]
    converged_u: GridFunction
    converged: bool

    @property
    def executed(self) -> tuple[int, ...]:
        return tuple(n for n, _ in self.sup_history)


def solve_unit_load(
    problem: EllipticProblem, tols: Tolerances = Tolerances()
) -> tuple[SparseOperator, GridFunction]:
    """Assemble A_h once and solve A_h v1 = f; every load's v is lambda * v1."""
    op = assemble_operator(problem.grid, problem.field)
    v1 = solve_linear(op, problem.f, tols.tol_linear, max_iter=tols.max_linear_iter)
    return op, v1


def approximate_solution(
    seq: CoefficientSequence,
    v: GridFunction,
    n: int,
    tols: Tolerances = Tolerances(),
) -> GridFunction:
    """u_n = Q_n^{-1}(v) nodewise on v's grid; v = lambda * v1 is reusable across n."""
    if n < 1:
        raise ValueError("approximation order n must be >= 1")
    # maximum principle gives v >= 0 up to solver tolerance; clamp roundoff
    y = np.maximum(v.values, 0.0)
    u = q_partial_inverse(
        seq, n, y, tol=tols.tol_invert, max_iter=tols.max_invert_iter
    )
    return GridFunction(grid=v.grid, values=u)


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
    tols: Tolerances = Tolerances(),
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
    # sum_m a_m G u^m = G Q_M(u), so one evaluation of Q_M replaces M matvecs
    acc = G @ q_partial(seq, M_terms, u_int)
    defects = np.abs(acc - np.asarray(loads)) / np.asarray(norms)
    return float(np.max(defects))


def converge(
    seq: CoefficientSequence,
    problem: EllipticProblem,
    n_schedule,
    stop_tol: float,
    tols: Tolerances = Tolerances(),
) -> ApproximationRun:
    """Run the approximation schedule until successive iterates settle.

    Stops once sup|u_n - u_next| <= stop_tol; otherwise runs the whole
    schedule (expected where the limit touches sigma).
    """
    schedule = [int(n) for n in n_schedule]
    if not schedule:
        raise ConfigError("run.n_schedule must not be empty")
    if any(n < 1 for n in schedule) or any(
        b <= a for a, b in zip(schedule, schedule[1:])
    ):
        raise ConfigError("run.n_schedule must be strictly increasing and positive")
    if stop_tol <= 0:
        raise ConfigError("run.stop_tol must be positive")

    op, v1 = solve_unit_load(problem, tols)
    v = v1.scaled(problem.lambda_scale)
    test_set = default_test_set(v1)

    u_by_n: dict[int, GridFunction] = {}
    sup_hist = []
    res_hist = []
    prev: GridFunction | None = None
    converged = False
    for n in schedule:
        u = approximate_solution(seq, v, n, tols)
        u_by_n[n] = u
        sup_hist.append((n, sup_norm(u)))
        r = weak_residual(seq, problem, u, n, test_set=test_set, tols=tols, op=op)
        res_hist.append((n, r))
        if prev is not None and np.max(np.abs(u.values - prev.values)) <= stop_tol:
            converged = True
            break
        prev = u

    return ApproximationRun(
        v=v,
        u_by_n=u_by_n,
        sup_history=tuple(sup_hist),
        residuals=tuple(res_hist),
        converged_u=u,
        converged=converged,
    )


def flat_zone(
    seq: CoefficientSequence,
    problem: EllipticProblem,
    n_large: int,
    tols: Tolerances = Tolerances(),
) -> FlatZoneResult:
    """Locate {v >= K} and the mean distance of u_{n_large} to sigma on it."""
    if n_large < 1:
        raise ValueError("n_large must be >= 1")
    prof = series_mod.profile(seq, m_max=tols.m_max, tol=tols.tol_series)
    if not prof.K.is_finite:
        reason = (
            "boundary sum divergent"
            if prof.K.is_divergent
            else f"boundary sum {prof.K.status}"
        )
        return FlatZoneResult(status=ZONE_NOT_APPLICABLE, sigma=prof.sigma, detail=reason)
    v = solve_unit_load(problem, tols)[1].scaled(problem.lambda_scale)
    u = approximate_solution(seq, v, n_large, tols)
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
        n_large=n_large,
    )
