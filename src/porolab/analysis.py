"""Existence/nonexistence classification for the nonlinear problem.

The decision chain: radius sigma and boundary sum K from the series; if K is
finite, one linear solve (datum f at unit load) and one eigensolve give the
two thresholds

    lambda_exist    = K / sup(v1)      below it a solution is certified,
    lambda_nonexist = K * lambda1(A,f) above it none can exist,

and the load factor is classified against the bracket.  Threshold equality is
never decided by float luck: a small relative band around each threshold is
reported as Indeterminate.  ``half_resolution`` restricts a problem to
every other node, so a second ``diagnose`` shows how the bracket moves with h.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

from . import series as series_mod
from .elliptic import (
    EllipticProblem,
    GridFunction,
    CoefficientField,
    measure_above,
    sup_norm,
)
from .params import Tolerances
from .pipeline import solve_unit_load
from .series import CoefficientSequence, SeriesProfile
from .spectral import principal_eigenpair

VERDICT_EXISTS = "ExistsCertified"
VERDICT_NONEXIST = "NonexistenceProven"
VERDICT_INDETERMINATE = "Indeterminate"
VERDICT_ALL_DATA = "ExistsAllData"


@dataclass(frozen=True, eq=False)
class DiagnosisReport:
    """Thresholds and verdict for one problem at its configured load factor."""

    series_profile: SeriesProfile
    verdict: str
    lambda_scale: float
    grid_n: int
    tolerances: Tolerances
    sup_v1: float | None = None
    lambda1: float | None = None
    lambda_exist: float | None = None
    lambda_nonexist: float | None = None
    flat_zone_measure: float = 0.0
    detail: str = ""


def classify(
    lam: float,
    lambda_exist: float,
    lambda_nonexist: float,
    band: float,
) -> str:
    """Place a load factor against the bracket with a relative guard band.

    Values within ``band`` (relative) of either threshold are Indeterminate;
    in particular a load exactly at a threshold never flips verdict by
    rounding.
    """
    if math.isinf(lambda_exist) and math.isinf(lambda_nonexist):
        return VERDICT_ALL_DATA
    if lam < lambda_exist * (1.0 - band):
        return VERDICT_EXISTS
    if lam > lambda_nonexist * (1.0 + band):
        return VERDICT_NONEXIST
    return VERDICT_INDETERMINATE


def half_resolution(problem: EllipticProblem) -> EllipticProblem | None:
    """Half-resolution restriction of the problem by nodal subsampling.

    None when an axis has an odd cell count or fewer than 8 cells.
    """
    g = problem.grid
    if any(n % 2 or n < 8 for n in (g.nx, g.ny)[: g.dim]):
        return None
    half = replace(g, nx=g.nx // 2, ny=None if g.ny is None else g.ny // 2)
    every_other = (slice(None, None, 2),) * g.dim
    fld = problem.field
    return EllipticProblem(
        grid=half,
        field=CoefficientField(
            grid=half,
            ax=fld.ax[::2],
            ay=None if fld.ay is None else fld.ay[::2],
            alpha=fld.alpha,
            beta=fld.beta,
        ),
        f=GridFunction(grid=half, values=problem.f.values[every_other]),
        lambda_scale=problem.lambda_scale,
    )


def diagnose(
    seq: CoefficientSequence,
    problem: EllipticProblem,
    tols: Tolerances = Tolerances(),
) -> DiagnosisReport:
    """Full classification of (sequence, problem) at the configured load.

    Once K is finite, one unit-load solve gives v1 and sup v1, and one
    eigensolve on the same operator gives lambda1; nothing else is solved.
    A datum that vanishes inside the domain gives v1 = 0: then u = 0 solves
    every load and no eigensolve runs.
    """
    prof = series_mod.profile(seq, m_max=tols.m_max, tol=tols.tol_series)
    lam = problem.lambda_scale
    base = dict(
        series_profile=prof,
        lambda_scale=lam,
        grid_n=problem.grid.nx,
        tolerances=tols,
    )

    if prof.K.is_divergent:
        return DiagnosisReport(
            verdict=VERDICT_ALL_DATA,
            lambda_exist=math.inf,
            lambda_nonexist=math.inf,
            detail=prof.K.detail or "boundary sum divergent",
            **base,
        )
    if not prof.K.is_finite:
        return DiagnosisReport(
            verdict=VERDICT_INDETERMINATE,
            detail=f"boundary sum undecided: {prof.K.detail}",
            **base,
        )

    K = prof.K.value
    op, v1 = solve_unit_load(problem, tols)
    sup_v1 = sup_norm(v1)
    if sup_v1 == 0.0:
        return DiagnosisReport(
            verdict=VERDICT_ALL_DATA,
            sup_v1=sup_v1,
            lambda_exist=math.inf,
            lambda_nonexist=math.inf,
            detail="unit-load solution v1 vanishes, so u = 0 solves every load",
            **base,
        )
    lambda1 = principal_eigenpair(
        op,
        problem.f,
        tols.tol_eig,
        inner_tol=min(tols.tol_linear, tols.tol_eig * 1e-2),
        max_iter=tols.max_eig_iter,
        max_linear_iter=tols.max_linear_iter,
    ).lambda1
    lambda_exist = K / sup_v1
    lambda_nonexist = K * lambda1
    verdict = classify(lam, lambda_exist, lambda_nonexist, tols.classification_band)
    flat = measure_above(v1.scaled(lam), K)

    return DiagnosisReport(
        verdict=verdict,
        sup_v1=sup_v1,
        lambda1=lambda1,
        lambda_exist=lambda_exist,
        lambda_nonexist=lambda_nonexist,
        flat_zone_measure=flat,
        **base,
    )


@dataclass(frozen=True, eq=False)
class SweepResult:
    rows: tuple[tuple[float, str], ...]
    base_report: DiagnosisReport


def lambda_sweep(
    seq: CoefficientSequence,
    problem: EllipticProblem,
    lambda_grid,
    tols: Tolerances = Tolerances(),
) -> SweepResult:
    """Classify each load factor against one shared bracket.

    The auxiliary solution scales linearly with the load, so a single
    diagnosis serves the whole grid.
    """
    lams = [float(x) for x in lambda_grid]
    if any(x <= 0 for x in lams):
        raise ValueError("lambda grid entries must be positive")
    report = diagnose(seq, problem, tols)
    band = report.tolerances.classification_band
    rows = tuple(
        (
            lam,
            VERDICT_INDETERMINATE
            if report.lambda_exist is None
            else classify(lam, report.lambda_exist, report.lambda_nonexist, band),
        )
        for lam in lams
    )
    return SweepResult(rows=rows, base_report=report)


# ---------------------------------------------------------------------------
# Report serialization
# ---------------------------------------------------------------------------


def _json_value(x):
    if x is None:
        return None
    if isinstance(x, float) and math.isinf(x):
        return "inf"
    return x


def report_to_dict(report: DiagnosisReport) -> dict:
    """Flat dict with a fixed key set and order, ready for JSON."""
    prof = report.series_profile
    t = report.tolerances
    return {
        "sigma": _json_value(prof.sigma),
        "sigma_method": "closed-form",
        "K_status": prof.K.status,
        "K_value": _json_value(prof.K.value),
        "K_tail_bound": _json_value(prof.K.tail_bound),
        "sup_v1": _json_value(report.sup_v1),
        "lambda1": _json_value(report.lambda1),
        "lambda_exist": _json_value(report.lambda_exist),
        "lambda_nonexist": _json_value(report.lambda_nonexist),
        "verdict": report.verdict,
        "flat_zone_measure": _json_value(report.flat_zone_measure),
        "grid_n": report.grid_n,
        "tol_linear": t.tol_linear,
        "tol_eig": t.tol_eig,
        "tol_series": t.tol_series,
    }


def to_json(obj: dict, comment: str | None = None) -> str:
    """Indented JSON of a flat dict (inf as "inf"), after an optional # comment line."""
    body = json.dumps({k: _json_value(v) for k, v in obj.items()}, indent=2)
    if comment is None:
        return body + "\n"
    return f"# {comment}\n{body}\n"


def report_to_json(report: DiagnosisReport, comment: str | None = None) -> str:
    return to_json(report_to_dict(report), comment)
