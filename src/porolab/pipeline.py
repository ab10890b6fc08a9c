"""Constructive approximation u_n = Q_n^{-1}(v) and its monitors.

One linear solve at unit load gives A_h and v1 (``solve_unit_load``), and the
auxiliary solution is v = lambda * v1 by linearity; every approximation order
n then only inverts the partial sum nodewise.  ``converge`` keeps each order's
sup and weak residual (against test functions that include v1) but only the
last u; the stop rule needs just the previous one.  ``flat_zone`` measures
the nodes where v reaches the boundary sum K and inverts at those nodes
only.  No eigensolve runs here.
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
    measure_above,
    require_zero_boundary,
    solve_linear,
    sup_norm,
)
from .params import Tolerances, check_order, check_schedule
from .series import CoefficientSequence, q_partial, q_partial_inverse

ZONE_OK = "OK"
ZONE_NOT_APPLICABLE = "NotApplicable"


@dataclass(frozen=True, eq=False)
class FlatZoneResult:
    """Zone where v reaches K (an all-zero mask when K is not finite), with
    the gap to sigma at a large order."""

    status: str
    measure: float
    mean_gap: float
    zone_mask: GridFunction
    sigma: float
    K_value: float | None
    n_large: int | None
    detail: str


@dataclass(frozen=True, eq=False)
class ApproximationRun:
    """Per-order sups and residuals of one schedule, and its last order's u."""

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
    return op, solve_linear(op, problem.f, tols)


def approximate_solution(
    seq: CoefficientSequence,
    v: GridFunction,
    n: int,
    tols: Tolerances = Tolerances(),
) -> GridFunction:
    """u_n = Q_n^{-1}(v) nodewise on v's grid; v = lambda * v1 is reusable across n."""
    # maximum principle gives v >= 0 up to solver tolerance; clamp roundoff
    y = np.maximum(v.values, 0.0)
    return GridFunction(grid=v.grid, values=q_partial_inverse(seq, n, y, tols))


def default_test_set(v1: GridFunction) -> list[GridFunction]:
    """Hats at five interior nodes, the first sine mode, and v1 unless it is zero.

    Local spikes catch pointwise imbalance; the sine mode and v1 catch global
    imbalance.  Since A_h v1 = f, the v1 row of the weak residual tests the
    f-weighted mean of Q_M(u) - v.
    """
    g = v1.grid
    out: list[GridFunction] = []
    for q in (1, 2, 3, 4, 5):
        vals = np.zeros(g.node_shape)
        vals[tuple(min(max(1, round(q * a.n / 6)), a.n - 1) for a in reversed(g.axes))] = 1.0
        out.append(GridFunction(grid=g, values=vals))
    sine = math.prod(
        np.sin(np.pi * (c - a.lo) / (a.hi - a.lo))
        for a, c in zip(g.axes, g.node_coordinates())
    )
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
    test_set: list[GridFunction],
    op: SparseOperator,
) -> float:
    """Defect of the truncated weak identity against a set of test functions.

    For each phi:  | sum_{m<=M} a_m <A grad u^m, grad phi> - <lambda f, phi> |
    normalized by 1 + ||phi||_H1; returns the worst case.  The energy pairing
    reuses the assembled operator ``op`` of ``solve_unit_load``, so at u = u_n
    with M = n the value collapses to the linear solver defect plus inversion
    tolerance.
    """
    check_order(M_terms, "M_terms")
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
    schedule = check_schedule(n_schedule, stop_tol)

    op, v1 = solve_unit_load(problem, tols)
    v = v1.scaled(problem.lambda_scale)
    test_set = default_test_set(v1)

    sup_hist = []
    res_hist = []
    prev: GridFunction | None = None
    converged = False
    for n in schedule:
        u = approximate_solution(seq, v, n, tols)
        sup_hist.append((n, sup_norm(u)))
        res_hist.append((n, weak_residual(seq, problem, u, n, test_set, op)))
        if prev is not None and np.max(np.abs(u.values - prev.values)) <= stop_tol:
            converged = True
            break
        prev = u

    return ApproximationRun(
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
    """Locate {v >= K} and the mean distance of u_{n_large} to sigma on it.

    Only the zone's nodes are inverted; without a finite K it is empty."""
    n_large = check_order(n_large, "n_large")
    prof = series_mod.profile(seq, tols)
    mask = np.zeros(problem.grid.node_shape, dtype=bool)
    gap = 0.0
    if prof.K.is_finite:
        v = solve_unit_load(problem, tols)[1].scaled(problem.lambda_scale).values
        mask = v >= prof.K.value
        if mask.any():
            u = q_partial_inverse(seq, n_large, v[mask], tols)
            gap = float(np.mean(np.abs(u - prof.sigma)))
    zone = GridFunction(grid=problem.grid, values=mask.astype(float))
    return FlatZoneResult(
        status=ZONE_OK if prof.K.is_finite else ZONE_NOT_APPLICABLE,
        measure=measure_above(zone, 1.0),
        mean_gap=gap,
        zone_mask=zone,
        sigma=prof.sigma,
        K_value=prof.K.value,
        n_large=n_large if prof.K.is_finite else None,
        detail="" if prof.K.is_finite else f"boundary sum {prof.K.status}",
    )
