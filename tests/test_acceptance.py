"""Acceptance gate: ten criteria, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines.
Expected values come from independent closed forms (quadratic roots,
telescoping sums, discrete eigenvalue formulas), never from the code under
test.
"""

import json
import math
import time

import numpy as np
import pytest

from porolab.analysis import diagnose, lambda_sweep
from porolab.cli import entry
from porolab.elliptic import (
    EllipticProblem,
    GridFunction,
    assemble_operator,
    build_grid,
    constant_field,
    measure_above,
    solve_linear,
    sup_norm,
)
from porolab.params import Tolerances
from porolab.pipeline import (
    approximate_solution,
    converge,
    flat_zone,
    solve_unit_load,
    weak_residual,
)
from porolab.series import (
    custom,
    harmonic,
    log_kind,
    q_derivative,
    q_partial,
    q_partial_inverse,
)
from porolab.spectral import principal_eigenpair


def _check(num: int, label: str, ok: bool, detail: str = "") -> None:
    state = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"criterion {num:2d} {label}: {state}{suffix}")
    assert ok, f"criterion {num} {label}: {detail}"


def _constant_problem(f_value, lambda_scale=1.0, n=128, dim=1):
    g = build_grid(dim, n_cells=n, n_cells_y=n if dim == 2 else None)
    f = GridFunction(grid=g, values=np.full(g.node_shape, float(f_value)))
    return EllipticProblem(
        grid=g, field=constant_field(g, 1.0), f=f, lambda_scale=lambda_scale
    )


FLAT_SCHEDULE = [1, 2, 4, 10, 30, 100, 300, 1000, 3000, 10000]


@pytest.fixture(scope="module")
def harmonic_run():
    return converge(
        harmonic(), _constant_problem(2.0), [1, 2, 4, 8, 16, 32, 64], stop_tol=1e-8
    )


def _aux(problem):
    """v = lambda * v1 from one unit-load solve."""
    return solve_unit_load(problem)[1].scaled(problem.lambda_scale)


@pytest.fixture(scope="module")
def flat_run():
    return converge(
        log_kind(), _constant_problem(32.0), FLAT_SCHEDULE, stop_tol=1e-8
    )


@pytest.fixture(scope="module")
def flat_orders(flat_run):
    """v of the flat run and u_n = Q_n^{-1}(v) at each order it executed."""
    v = _aux(_constant_problem(32.0))
    return v, {n: approximate_solution(log_kind(), v, n) for n in flat_run.executed}


def test_criterion_01_linear_solver_oracle():
    t0 = time.perf_counter()
    p = _constant_problem(2.0, n=128)
    op = assemble_operator(p.grid, p.field)
    v = solve_linear(op, p.f, Tolerances(tol_linear=1e-12))
    elapsed = time.perf_counter() - t0
    err = float(np.max(np.abs(v.values - p.grid.axes[0].nodes * (1 - p.grid.axes[0].nodes))))
    _check(
        1,
        "linear solver oracle",
        err <= 1e-10 and elapsed < 1.0,
        f"max nodal error {err:.2e}, {elapsed:.2f}s",
    )


def test_criterion_02_eigenvalue_oracle():
    t0 = time.perf_counter()
    tols = Tolerances(tol_eig=1e-10)
    p1 = _constant_problem(1.0, n=128)
    pair1 = principal_eigenpair(assemble_operator(p1.grid, p1.field), p1.f, tols)
    h1 = p1.grid.axes[0].h
    discrete1 = 2.0 * (1.0 - math.cos(math.pi * h1)) / h1**2
    rel_pi = abs(pair1.lambda1 - math.pi**2) / math.pi**2
    rel_disc = abs(pair1.lambda1 - discrete1) / discrete1

    p2 = _constant_problem(1.0, n=64, dim=2)
    pair2 = principal_eigenpair(assemble_operator(p2.grid, p2.field), p2.f, tols)
    rel_2d = abs(pair2.lambda1 - 2 * math.pi**2) / (2 * math.pi**2)
    elapsed = time.perf_counter() - t0
    _check(
        2,
        "eigenvalue oracle",
        rel_pi <= 5e-3 and rel_disc <= 5e-4 and rel_2d <= 1e-2 and elapsed < 30.0,
        f"1D off pi^2 by {rel_pi:.1e}, off discrete by {rel_disc:.1e}, "
        f"2D off 2pi^2 by {rel_2d:.1e}, {elapsed:.1f}s",
    )


def test_criterion_03_series_closed_forms():
    # at s <= 0.9 the terms beyond n = 1024 sum to below 0.9^1024 / 0.1
    s = 0.1 * np.arange(10)
    err_q = np.max(np.abs(q_partial(harmonic(), 1024, s) + np.log1p(-s)))
    err_d = np.max(np.abs(q_derivative(log_kind(), s, n=1024) - (1 - np.log1p(-s))))
    worst = max(err_q, err_d)
    _check(3, "series closed forms", worst <= 1e-8, f"max error {worst:.2e}")


def test_criterion_04_dichotomy():
    all_data = diagnose(harmonic(), _constant_problem(1.0))
    log_report = diagnose(log_kind(), _constant_problem(1.0))
    K = log_report.series_profile.K
    zeta3 = diagnose(
        custom([1.0, 0.125], tail="power-law", tail_exponent=-3.0),
        _constant_problem(1.0),
    )
    K3 = zeta3.series_profile.K
    ok = (
        all_data.verdict == "ExistsAllData"
        and K.is_finite
        and abs(K.value - 2.0) <= 1e-8
        and math.isfinite(log_report.lambda_exist)
        and math.isfinite(log_report.lambda_nonexist)
        and K3.is_finite
        and abs(K3.value - 1.2020569031595942) <= K3.tail_bound  # zeta(3)
        and math.isfinite(zeta3.lambda_exist)
        and math.isfinite(zeta3.lambda_nonexist)
    )
    _check(
        4,
        "dichotomy",
        ok,
        f"harmonic={all_data.verdict}, K={K.value!r}, zeta(3) tail K={K3.value!r}",
    )


def test_criterion_05_threshold_bracket():
    report = diagnose(log_kind(), _constant_problem(1.0, n=128))
    rel_exist = abs(report.lambda_exist - 16.0) / 16.0
    rel_non = abs(report.lambda_nonexist - 2 * math.pi**2) / (2 * math.pi**2)
    sweep = lambda_sweep(log_kind(), _constant_problem(1.0), [8.0, 16.0, 18.0, 20.0])
    pattern = [v for _, v in sweep.rows]
    expected = [
        "ExistsCertified",
        "Indeterminate",
        "Indeterminate",
        "NonexistenceProven",
    ]
    ok = (
        rel_exist <= 5e-3
        and rel_non <= 1e-2
        and report.lambda_exist < report.lambda_nonexist
        and pattern == expected
    )
    _check(
        5,
        "threshold bracket",
        ok,
        f"exist off by {rel_exist:.1e}, nonexist off by {rel_non:.1e}, sweep={pattern}",
    )


def test_criterion_06_constructive_scheme(harmonic_run, residual_inputs):
    p = _constant_problem(2.0)
    x = p.grid.axes[0].nodes
    exact = -np.expm1(-x * (1 - x))
    err = float(np.max(np.abs(harmonic_run.converged_u.values - exact)))
    sups = [s for _, s in harmonic_run.sup_history]
    monotone = all(b <= a + 1e-12 for a, b in zip(sups, sups[1:]))
    budget = 10 * (1e-12 + 1e-8)
    residuals = []
    u = np.clip(_aux(p).values, 0.0, None)
    inputs = residual_inputs(p)
    for n in (2, 4, 8, 16, 32):
        u_n = GridFunction(grid=p.grid, values=q_partial_inverse(harmonic(), n, u))
        residuals.append(weak_residual(harmonic(), p, u_n, n, *inputs))
    worst_res = max(residuals)
    ok = err <= 1e-6 and monotone and worst_res <= budget
    _check(
        6,
        "constructive scheme",
        ok,
        f"limit error {err:.2e}, sup monotone {monotone}, "
        f"weak residual {worst_res:.2e} vs {budget:.2e}",
    )


def test_criterion_07_sup_bound_and_tail_decay(harmonic_run, flat_run, flat_orders):
    # The sup bound certifies runs that settled on a solution; the flat run
    # exhausts its schedule by design and is covered by the decay envelope.
    sigma = 1.0
    converged_ok = True
    for run in (harmonic_run, flat_run):
        if run.converged:
            converged_ok &= sup_norm(run.converged_u) <= sigma + 1e-6
    # measure{u_n >= M} stays under the envelope C n (sigma/M)^n, with C
    # anchored at the first order
    M = 1.2 * sigma
    ratio = sigma / M
    rows = [(n, measure_above(u_n, M)) for n, u_n in flat_orders[1].items()]
    n1, m1 = rows[0]
    scale = m1 / (n1 * ratio**n1)
    decay_ok = all(m <= scale * n * ratio**n for n, m in rows[1:])
    _check(
        7,
        "sup bound and tail decay",
        converged_ok and decay_ok,
        f"converged sup <= sigma+1e-6: {converged_ok}, "
        f"decay envelope passed: {decay_ok}",
    )


def test_criterion_08_flat_zone(flat_run, flat_orders):
    # 16x(1-x) = 2 has roots 1/2 -+ sqrt(2)/4, so {v >= 2} has width sqrt(2)/2
    h = 1.0 / 128
    zone = flat_zone(log_kind(), _constant_problem(32.0), flat_run.executed[-1])
    measure = zone.measure
    measure_ok = abs(measure - math.sqrt(2) / 2) <= 2 * h
    v, u_by_n = flat_orders
    inner = v.values >= 2.1
    mean_ok = False
    best = math.inf
    for n, u_n in u_by_n.items():
        if n <= 10**4:
            gap = float(np.mean(np.abs(u_n.values[inner] - 1.0)))
            best = min(best, gap)
            if gap <= 0.01:
                mean_ok = True
    _check(
        8,
        "flat zone",
        measure_ok and mean_ok,
        f"measure {measure:.6f} vs sqrt(2)/2 = {math.sqrt(2) / 2:.6f} (+-2h), "
        f"best mean gap on {{v >= 2.1}} = {best:.2e}",
    )


def test_criterion_09_monotonicity_suite():
    rng = np.random.default_rng(20260823)
    ss = np.linspace(0.0, 3.0, 41)
    ok = True
    detail = ""
    for case in range(20):
        vals = rng.uniform(0.2, 2.0, size=int(rng.integers(3, 12)))
        vals[-2:] = np.maximum(vals[-2:], 0.25)
        if rng.random() < 0.5:
            seq = custom(vals.tolist(), tail="repeat-ratio")
        else:
            seq = custom(
                vals.tolist(),
                tail="power-law",
                tail_exponent=float(rng.uniform(-3.0, 2.0)),
            )
        n = int(rng.integers(1, 33))

        nested = np.all(q_partial(seq, n + 1, ss) >= q_partial(seq, n, ss) - 1e-14)

        ys = q_partial(seq, n, ss)
        back = q_partial_inverse(seq, n, ys, Tolerances(tol_invert=1e-10))
        round_trip = np.max(
            np.abs(q_partial(seq, n, back) - ys) / np.maximum(1.0, ys)
        ) <= 1e-10

        u_hi = q_partial_inverse(seq, n + 1, ys, Tolerances(tol_invert=1e-10))
        pointwise = np.all(u_hi <= back + 2e-10)

        if not (nested and round_trip and pointwise):
            ok = False
            detail = (
                f"case {case}: nesting {nested}, round trip {round_trip}, "
                f"pointwise {pointwise}"
            )
            break
    _check(9, "monotonicity suite", ok, detail or "20 randomized sequences")


def test_criterion_10_determinism(tmp_path, capsys):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(
        "[domain]\nn_cells = 128\n\n[data]\nlambda_scale = 10.0\n\n"
        "[series]\nkind = log\n"
    )
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    code1 = entry(["analyze", "--config", str(cfg), "--out", str(out1)])
    code2 = entry(["analyze", "--config", str(cfg), "--out", str(out2)])
    capsys.readouterr()
    identical = out1.read_bytes() == out2.read_bytes()
    body = "\n".join(
        l for l in out1.read_text().splitlines() if not l.startswith("#")
    )
    parses = json.loads(body)["verdict"] == "ExistsCertified"
    _check(
        10,
        "determinism",
        code1 == 0 and code2 == 0 and identical and parses,
        f"byte-identical: {identical}",
    )
