"""Existence/nonexistence classification for the nonlinear problem.

The decision chain: radius sigma and boundary sum K from the series; if K is
finite, one linear solve (datum f at unit load) and one eigensolve give the
two thresholds

    lambda_exist    = K / sup(v1)      below it a solution is certified,
    lambda_nonexist = K * lambda1(A,f) above it none can exist,

and ``classify``, which decides every verdict, places the load factor against
the bracket.  Threshold equality is never decided by float luck: a small
relative band around each threshold is reported as Indeterminate.
``half_resolution`` restricts a problem to every other node, so a second
``diagnose`` shows how the bracket moves with h.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from . import series as series_mod
from .elliptic import (
    Axis,
    CoefficientField,
    EllipticProblem,
    Grid,
    GridFunction,
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
    grid_n: int
    tolerances: Tolerances
    sup_v1: float | None
    lambda1: float | None
    lambda_exist: float | None
    lambda_nonexist: float | None
    flat_zone_measure: float
    detail: str


def classify(
    lam: float,
    lambda_exist: float | None,
    lambda_nonexist: float | None,
    band: float,
) -> str:
    """Place a load factor against the bracket with a relative guard band.

    The one verdict rule.  A missing bracket (None: K undecided) is
    Indeterminate at every load.  Values within ``band`` (relative) of
    either threshold are Indeterminate; in particular a load exactly at a
    threshold never flips verdict by rounding.
    """
    if lambda_exist is None or lambda_nonexist is None:
        return VERDICT_INDETERMINATE
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
    if any(a.n % 2 or a.n < 8 for a in g.axes):
        return None
    half = Grid(tuple(Axis(a.lo, a.hi, a.n // 2) for a in g.axes))
    every_other = (slice(None, None, 2),) * g.dim
    fld = problem.field
    return EllipticProblem(
        grid=half,
        field=CoefficientField(
            half, tuple(a[::2] for a in fld.profiles), fld.alpha, fld.beta
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
    prof = series_mod.profile(seq, tols)
    K = prof.K
    sup_v1 = lambda1 = lambda_exist = lambda_nonexist = None
    flat = 0.0
    detail = ""
    if K.is_divergent:
        lambda_exist = lambda_nonexist = math.inf
        detail = K.detail or "boundary sum divergent"
    elif not K.is_finite:
        detail = f"boundary sum undecided: {K.detail}"
    else:
        op, v1 = solve_unit_load(problem, tols)
        sup_v1 = sup_norm(v1)
        if sup_v1 == 0.0:
            lambda_exist = lambda_nonexist = math.inf
            detail = "unit-load solution v1 vanishes, so u = 0 solves every load"
        else:
            lambda1 = principal_eigenpair(op, problem.f, tols).lambda1
            lambda_exist = K.value / sup_v1
            lambda_nonexist = K.value * lambda1
            flat = measure_above(v1.scaled(problem.lambda_scale), K.value)

    return DiagnosisReport(
        series_profile=prof,
        verdict=classify(
            problem.lambda_scale, lambda_exist, lambda_nonexist, tols.classification_band
        ),
        grid_n=problem.grid.axes[0].n,
        tolerances=tols,
        sup_v1=sup_v1,
        lambda1=lambda1,
        lambda_exist=lambda_exist,
        lambda_nonexist=lambda_nonexist,
        flat_zone_measure=flat,
        detail=detail,
    )


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
