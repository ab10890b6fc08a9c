"""Threshold brackets, verdict classification, sweeps, report serialization."""

import json
import math

import numpy as np
import pytest

import porolab.analysis as analysis
from porolab.analysis import (
    VERDICT_ALL_DATA,
    VERDICT_EXISTS,
    VERDICT_INDETERMINATE,
    VERDICT_NONEXIST,
    classify,
    diagnose,
    half_resolution,
    lambda_sweep,
    report_to_dict,
    report_to_json,
)
from porolab.elliptic import (
    EllipticProblem,
    GridFunction,
    build_grid,
    constant_field,
)
from porolab.params import Tolerances
import mpmath

from porolab.series import custom, geometric, harmonic, log_kind, power_law


def _unit_problem(lambda_scale=1.0, n=128, f_value=1.0, dim=1):
    g = build_grid(dim, n_cells=n, n_cells_y=n if dim == 2 else None)
    f = GridFunction(grid=g, values=np.full(g.node_shape, float(f_value)))
    return EllipticProblem(
        grid=g, field=constant_field(g, 1.0), f=f, lambda_scale=lambda_scale
    )


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


def test_classify_bracket_regions():
    band = 1e-6
    assert classify(1.0, 16.0, 20.0, band) == VERDICT_EXISTS
    assert classify(17.0, 16.0, 20.0, band) == VERDICT_INDETERMINATE
    assert classify(25.0, 16.0, 20.0, band) == VERDICT_NONEXIST
    assert classify(5.0, math.inf, math.inf, band) == VERDICT_ALL_DATA


def test_classify_band_protects_threshold_equality():
    band = 1e-3
    # exactly at a threshold stays Indeterminate regardless of rounding
    assert classify(16.0, 16.0, 20.0, band) == VERDICT_INDETERMINATE
    assert classify(16.0 * (1 - 2 * band), 16.0, 20.0, band) == VERDICT_EXISTS
    assert classify(20.0, 16.0, 20.0, band) == VERDICT_INDETERMINATE
    assert classify(20.0 * (1 + 2 * band), 16.0, 20.0, band) == VERDICT_NONEXIST


# ---------------------------------------------------------------------------
# diagnose
# ---------------------------------------------------------------------------


def test_diagnose_threshold_oracles():
    # unit datum on (0,1): sup v1 = 1/8, lambda1 ~ pi^2, K = 2
    report = diagnose(log_kind(), _unit_problem(lambda_scale=10.0))
    assert report.verdict == VERDICT_EXISTS
    assert report.lambda_exist == pytest.approx(16.0, rel=5e-3)
    assert report.lambda_nonexist == pytest.approx(2 * math.pi**2, rel=1e-2)
    assert report.lambda_exist < report.lambda_nonexist
    assert report.sup_v1 == pytest.approx(0.125, rel=1e-9)


@pytest.mark.parametrize(
    "lam,verdict",
    [
        (10.0, VERDICT_EXISTS),
        (16.0, VERDICT_INDETERMINATE),
        (17.0, VERDICT_INDETERMINATE),
        (25.0, VERDICT_NONEXIST),
    ],
)
def test_diagnose_verdict_by_load(lam, verdict):
    report = diagnose(log_kind(), _unit_problem(lambda_scale=lam))
    assert report.verdict == verdict


def test_diagnose_divergent_boundary_sum_means_all_data():
    report = diagnose(harmonic(), _unit_problem(lambda_scale=100.0))
    assert report.verdict == VERDICT_ALL_DATA
    assert math.isinf(report.lambda_exist)
    assert math.isinf(report.lambda_nonexist)


def test_diagnose_supercritical_list_is_all_data_and_solver_free(monkeypatch):
    def boom(*a, **k):  # pragma: no cover - would mean a solve happened
        raise AssertionError("no linear solve may run when K diverges")

    monkeypatch.setattr(analysis, "solve_unit_load", boom)
    # m^m for m <= 60: the repeat-ratio tail keeps a_m sigma^m constant
    m = np.arange(1, 61, dtype=float)
    report = diagnose(custom((m**m).tolist()), _unit_problem())
    assert report.verdict == VERDICT_ALL_DATA
    assert report.sup_v1 is None and report.lambda1 is None


def test_diagnose_inconclusive_k_stays_indeterminate(monkeypatch):
    def boom(*a, **k):  # pragma: no cover
        raise AssertionError("no linear solve may run when K is undecided")

    monkeypatch.setattr(analysis, "solve_unit_load", boom)
    # the Euler-Maclaurin enclosure is wider than 1e-14 * K up to m_max=256
    report = diagnose(power_law(-2.0), _unit_problem(), Tolerances(tol_series=1e-14))
    assert report.verdict == VERDICT_INDETERMINATE
    assert "undecided" in report.detail


_ZETA3_TAIL = custom([1.0, 0.125], tail="power-law", tail_exponent=-3.0)


@pytest.mark.parametrize(
    "seq,sigma",
    [
        (custom([1.0, 0.5]), 2.0),
        (custom([1.0, 49.0]), 1 / 49),
        (custom([1.0, 0.02]), 50.0),
        (geometric(49.0), 1 / 49),
    ],
)
def test_diagnose_geometric_tail_diverges_at_exact_radius(seq, sigma):
    # 49 * (1/49) rounds to 1 - 2^-53: the verdict must not form that product
    report = diagnose(seq, _unit_problem(lambda_scale=1e5, n=64))
    assert seq.sigma == pytest.approx(sigma, rel=1e-15)
    assert report.series_profile.K.is_divergent
    assert report.series_profile.K.value is None
    assert report.verdict == VERDICT_ALL_DATA


@pytest.mark.parametrize(
    "seq,zeta_arg",
    [
        (_ZETA3_TAIL, 3.0),
        (power_law(-1.5), 1.5),
        (power_law(-2.0), 2.0),
        (power_law(-3.0), 3.0),
    ],
)
def test_diagnose_power_law_tail_certifies_zeta(seq, zeta_arg):
    report = diagnose(seq, _unit_problem(lambda_scale=1e5, n=64))
    K = report.series_profile.K
    assert seq.sigma == 1.0
    assert K.is_finite
    assert abs(K.value - float(mpmath.zeta(zeta_arg))) <= K.tail_bound
    assert math.isfinite(report.lambda_exist) and math.isfinite(report.lambda_nonexist)
    assert report.verdict == VERDICT_NONEXIST


def test_diagnose_zero_datum_exists_for_all_loads(monkeypatch):
    def boom(*a, **k):  # pragma: no cover
        raise AssertionError("no eigensolve may run when v1 vanishes")

    monkeypatch.setattr(analysis, "principal_eigenpair", boom)
    g = build_grid(1, n_cells=32)
    values = np.zeros(g.node_shape)
    values[[0, -1]] = 1.0  # nonzero on the boundary only
    for f in (np.zeros(g.node_shape), values):
        p = EllipticProblem(
            grid=g,
            field=constant_field(g, 1.0),
            f=GridFunction(grid=g, values=f),
            lambda_scale=5.0,
        )
        report = diagnose(log_kind(), p)
        assert report.verdict == VERDICT_ALL_DATA
        assert report.sup_v1 == 0.0 and report.lambda1 is None
        assert math.isinf(report.lambda_exist) and math.isinf(report.lambda_nonexist)


def test_diagnose_duality_between_thresholds():
    # lambda_exist <= lambda_nonexist is the discrete duality K/sup >= ... inverted
    rng = np.random.default_rng(17)
    g = build_grid(1, n_cells=64)
    for _ in range(5):
        f = GridFunction(grid=g, values=rng.uniform(0.1, 2.0, g.node_shape))
        p = EllipticProblem(grid=g, field=constant_field(g, 1.0), f=f, lambda_scale=1.0)
        report = diagnose(log_kind(), p)
        assert report.lambda_exist <= report.lambda_nonexist * (1 + 1e-8)


def test_diagnose_threshold_scaling_in_f():
    # doubling f halves both thresholds (sup v1 doubles, lambda1 halves)
    r1 = diagnose(log_kind(), _unit_problem(f_value=1.0))
    r2 = diagnose(log_kind(), _unit_problem(f_value=2.0))
    assert r2.lambda_exist == pytest.approx(r1.lambda_exist / 2, rel=1e-8)
    assert r2.lambda_nonexist == pytest.approx(r1.lambda_nonexist / 2, rel=1e-6)


def test_diagnose_reports_coarse_pair():
    p = _unit_problem(n=64)
    report = diagnose(log_kind(), p)
    coarse = diagnose(log_kind(), half_resolution(p))
    assert coarse.grid_n == 32
    assert coarse.lambda1 is not None
    # half resolution shifts sup v1 by O(h^2) at most
    assert coarse.sup_v1 == pytest.approx(report.sup_v1, rel=1e-2)
    assert coarse.lambda1 == pytest.approx(report.lambda1, rel=1e-2)


def test_diagnose_skips_coarse_pair_on_odd_grid():
    assert half_resolution(_unit_problem(n=65)) is None
    assert half_resolution(_unit_problem(n=6)) is None
    assert half_resolution(_unit_problem(n=16, dim=2)) is not None


def test_diagnose_flat_zone_measure_grows_with_load():
    small = diagnose(log_kind(), _unit_problem(lambda_scale=1.0))
    big = diagnose(log_kind(), _unit_problem(lambda_scale=32.0))
    assert small.flat_zone_measure == 0.0
    assert big.flat_zone_measure > 0.0


def test_diagnose_2d_runs_and_brackets():
    report = diagnose(log_kind(), _unit_problem(n=16, dim=2, lambda_scale=1.0))
    assert report.verdict == VERDICT_EXISTS
    assert report.lambda_exist < report.lambda_nonexist


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_matches_fixed_verdict_pattern():
    res = lambda_sweep(log_kind(), _unit_problem(), [8.0, 16.0, 18.0, 20.0])
    verdicts = [v for _, v in res.rows]
    assert verdicts == [
        VERDICT_EXISTS,
        VERDICT_INDETERMINATE,
        VERDICT_INDETERMINATE,
        VERDICT_NONEXIST,
    ]


def test_sweep_verdicts_are_monotone_in_lambda():
    lams = np.linspace(0.5, 40.0, 60)
    res = lambda_sweep(log_kind(), _unit_problem(), lams)
    order = [VERDICT_EXISTS, VERDICT_INDETERMINATE, VERDICT_NONEXIST]
    ranks = [order.index(v) for _, v in res.rows]
    assert ranks == sorted(ranks)


def test_sweep_single_diagnosis_shared():
    res = lambda_sweep(harmonic(), _unit_problem(), [1.0, 5.0, 500.0])
    assert all(v == VERDICT_ALL_DATA for _, v in res.rows)
    assert res.base_report.verdict == VERDICT_ALL_DATA


@pytest.mark.parametrize(
    "seq,f_value,tols",
    [
        (log_kind(), 1.0, Tolerances()),  # finite K
        (harmonic(), 1.0, Tolerances()),  # divergent K
        (log_kind(), 0.0, Tolerances()),  # zero datum
        (power_law(-2.0), 1.0, Tolerances(tol_series=1e-14)),  # inconclusive K
    ],
)
def test_sweep_agrees_with_diagnose(seq, f_value, tols):
    base = diagnose(seq, _unit_problem(n=16, f_value=f_value), tols)
    lams = [1.0, 10.0, 100.0]
    if base.lambda1 is not None:  # loads below, on, between and above the bracket
        lo, hi = base.lambda_exist, base.lambda_nonexist
        lams = [lo / 2, lo, (lo + hi) / 2, hi, 2 * hi]
    res = lambda_sweep(seq, _unit_problem(n=16, f_value=f_value), lams, tols)
    for lam, verdict in res.rows:
        problem = _unit_problem(lambda_scale=lam, n=16, f_value=f_value)
        assert verdict == diagnose(seq, problem, tols).verdict, lam


def test_sweep_rejects_nonpositive_lambda():
    with pytest.raises(ValueError):
        lambda_sweep(log_kind(), _unit_problem(), [1.0, 0.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_sweep_rejects_nonfinite_lambda(bad):
    with pytest.raises(ValueError, match="positive and finite"):
        lambda_sweep(log_kind(), _unit_problem(), [1.0, bad])


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

REPORT_KEYS = [
    "sigma",
    "sigma_method",
    "K_status",
    "K_value",
    "K_tail_bound",
    "sup_v1",
    "lambda1",
    "lambda_exist",
    "lambda_nonexist",
    "verdict",
    "flat_zone_measure",
    "grid_n",
    "tol_linear",
    "tol_eig",
    "tol_series",
]


def test_report_dict_key_order():
    report = diagnose(log_kind(), _unit_problem())
    d = report_to_dict(report)
    assert list(d.keys()) == REPORT_KEYS


def test_report_json_encodes_infinity_as_string():
    report = diagnose(harmonic(), _unit_problem())
    d = report_to_dict(report)
    assert d["lambda_exist"] == "inf"
    assert d["K_value"] is None
    text = report_to_json(report)
    parsed = json.loads(text)
    assert parsed["lambda_nonexist"] == "inf"


def test_report_json_comment_line():
    report = diagnose(log_kind(), _unit_problem())
    text = report_to_json(report, comment="hello 123")
    first, rest = text.split("\n", 1)
    assert first == "# hello 123"
    json.loads(rest)  # remainder parses


def test_report_records_tolerances():
    tols = Tolerances(tol_series=1e-9)
    report = diagnose(log_kind(), _unit_problem(), tols)
    d = report_to_dict(report)
    assert d["tol_series"] == 1e-9
    assert d["grid_n"] == 128
