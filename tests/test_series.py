"""Coefficient sequences: exact radii, boundary sums, partial sums and
their monotone inverse, full-series evaluation."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from porolab.errors import DomainError, InvalidSequence
from porolab.series import (
    KStatus,
    boundary_sum,
    custom,
    geometric,
    harmonic,
    log_kind,
    make_sequence,
    power_law,
    profile,
    q_derivative,
    q_partial,
    q_partial_inverse,
)

_POSITIVE = st.floats(1e-3, 1e3)


# ---------------------------------------------------------------------------
# factories and coefficient access
# ---------------------------------------------------------------------------


def test_harmonic_coefficients():
    seq = harmonic()
    np.testing.assert_allclose(seq.coefficients(5), [1, 1 / 2, 1 / 3, 1 / 4, 1 / 5])


def test_log_kind_coefficients():
    a = log_kind().coefficients(6)
    assert a[0] == 1.0
    assert a[1] == 0.5
    assert a[5] == pytest.approx(1 / 30)


def test_geometric_coefficients():
    seq = geometric(3.0)
    np.testing.assert_allclose(seq.coefficients(4), [3, 9, 27, 81])


def test_power_law_coefficients():
    seq = power_law(-2.0)
    np.testing.assert_allclose(seq.coefficients(4), [1, 1 / 4, 1 / 9, 1 / 16])


def test_custom_repeat_ratio_tail():
    seq = custom([1.0, 2.0])
    # tail continues with ratio 2
    np.testing.assert_allclose(seq.coefficients(5), [1, 2, 4, 8, 16])


def test_custom_power_law_tail_explicit_exponent():
    seq = custom([2.0, 1.0], tail="power-law", tail_exponent=-2.0)
    # a_m = a_2 (m/2)^-2 = 4/m^2 beyond the list
    a = seq.coefficients(10)
    assert a[3] == pytest.approx(0.25)
    assert a[9] == pytest.approx(0.04)


def test_custom_power_law_tail_fitted_exponent():
    # last two values 1, 1/2 at positions 2, 3 fit p = log(.5)/log(1.5)
    seq = custom([1.0, 1.0, 0.5], tail="power-law")
    p = math.log(0.5) / math.log(1.5)
    assert seq.coefficients(6)[5] == pytest.approx(0.5 * (6 / 3) ** p)


@pytest.mark.parametrize(
    "values,err",
    [
        ([], "at least one value"),
        ([0.0, 1.0], "a_1 must be strictly positive"),
        ([1.0, -0.5], "nonnegative"),
        ([1.0], "last two listed values"),
        ([1.0, 0.0], "last two listed values"),
    ],
)
def test_custom_rejects_bad_values(values, err):
    with pytest.raises(InvalidSequence, match=err):
        custom(values)


def test_custom_power_law_tail_exponent_is_finite():
    # the quotient 1e-300 / 1e300 underflows to 0; the fitted exponent must not
    seq = custom([1.0, 1e300, 1e-300], tail="power-law")
    assert seq.rate == pytest.approx(-600 * math.log(10) / math.log(1.5))
    assert boundary_sum(seq, tol=1e-8).is_finite
    with pytest.raises(InvalidSequence, match="exponent must be finite"):
        custom([1.0, 0.5], tail="power-law", tail_exponent=math.inf)


def test_geometric_rejects_nonpositive_ratio():
    with pytest.raises(InvalidSequence):
        geometric(0.0)
    with pytest.raises(InvalidSequence):
        geometric(-1.0)


def test_make_sequence_dispatch():
    assert make_sequence("harmonic").label == "harmonic"
    assert make_sequence("geometric", ratio=2.0).rate == 2.0
    assert make_sequence("power-law", exponent=1.5).rate == 1.5
    assert make_sequence("custom", values=[1, 2]).head == (1.0, 2.0)
    with pytest.raises(InvalidSequence):
        make_sequence("fibonacci")
    with pytest.raises(InvalidSequence):
        make_sequence("geometric")


# ---------------------------------------------------------------------------
# radius of convergence
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "seq,sigma",
    [
        (harmonic(), 1.0),
        (log_kind(), 1.0),
        (power_law(3.0), 1.0),
        (geometric(4.0), 0.25),
        (geometric(0.5), 2.0),
        (custom([1.0, 0.5], tail="power-law"), 1.0),
    ],
)
def test_radius_closed_forms(seq, sigma):
    assert seq.sigma == sigma


def test_radius_custom_repeat_ratio():
    assert custom([1.0, 2.0]).sigma == 0.5


def test_radius_supercritical_growth_is_last_ratio():
    # a_m = m^m for m <= 60, continued with the ratio 60^60 / 59^59
    m = np.arange(1, 61, dtype=float)
    vals = (m**m).tolist()
    seq = custom(vals)
    assert seq.sigma == vals[-2] / vals[-1]
    assert seq.sigma == pytest.approx(1 / 163, rel=1e-2)


def test_radius_factorial_decay_is_last_ratio():
    import scipy.special as sps

    m = np.arange(1, 161, dtype=float)
    vals = np.exp(-sps.gammaln(m + 1)).tolist()  # 1/m!
    seq = custom(vals, tail="repeat-ratio")
    assert seq.sigma == vals[-2] / vals[-1]
    assert seq.sigma == pytest.approx(160.0, rel=1e-12)


@pytest.mark.parametrize(
    "build",
    [
        lambda: geometric(1e-320),
        lambda: custom([1e300, 1e-10]),
        lambda: custom([1e-300, 1e300]),
    ],
)
def test_radius_zero_or_infinite_in_float64_rejected(build):
    with pytest.raises(InvalidSequence, match="radius of convergence"):
        build()


# ---------------------------------------------------------------------------
# boundary sum
# ---------------------------------------------------------------------------


def test_boundary_sum_log_kind_telescopes_to_two():
    st = boundary_sum(log_kind(), tol=1e-8)
    assert st.is_finite
    assert st.value == pytest.approx(2.0, abs=1e-8)
    assert st.tail_bound < 1e-8 * st.value


def test_boundary_sum_harmonic_diverges():
    st = boundary_sum(harmonic(), tol=1e-8)
    assert st.is_divergent
    assert st.partial_sum is not None and st.cutoff is not None


def test_boundary_sum_geometric_at_radius_diverges():
    st = boundary_sum(geometric(2.0), tol=1e-8)
    assert st.is_divergent
    assert st.partial_sum == 256.0  # every term is 1


def test_boundary_sum_power_law_vs_zeta_two():
    st = boundary_sum(power_law(-2.0), tol=1e-8, m_max=40000)
    assert st.is_finite
    assert st.value == pytest.approx(math.pi**2 / 6, abs=1e-7)


def test_boundary_sum_power_law_inconclusive_at_small_m_max():
    # the enclosure at M = 256 is wider than tol * value
    st = boundary_sum(power_law(-2.0), tol=1e-14, m_max=256)
    assert st.status == "inconclusive"


def test_boundary_sum_power_law_divergent_exponent():
    st = boundary_sum(power_law(-1.0), tol=1e-8)
    assert st.is_divergent
    st = boundary_sum(power_law(1.0), tol=1e-8)
    assert st.is_divergent


def test_boundary_sum_custom_power_law_tail():
    seq = custom([2.0, 1.0], tail="power-law", tail_exponent=-2.0)
    st = boundary_sum(seq, tol=1e-8, m_max=40000)
    exact = 3.0 + 4.0 * (math.pi**2 / 6 - 1.0 - 0.25)
    assert st.is_finite
    assert st.value == pytest.approx(exact, abs=1e-6)


@pytest.mark.parametrize("m_max", [64, 256])
@pytest.mark.parametrize(
    "p", [-1.00001, -1.0001, -1.001, -1.01, -1.5, -2.0, -3.0, -6.0, -12.0, -40.0]
)
def test_boundary_sum_power_law_encloses_zeta(p, m_max):
    st = boundary_sum(power_law(p), tol=1e-8, m_max=m_max)
    assert st.is_finite
    assert abs(st.value - float(mpmath.zeta(-p))) <= st.tail_bound


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    head=st.lists(st.one_of(st.just(0.0), _POSITIVE), max_size=6),
    last=st.lists(_POSITIVE, min_size=2, max_size=2),
    p=st.floats(-8.0, -1.0001),
)
def test_boundary_sum_custom_power_law_tail_encloses_hurwitz_zeta(head, last, p):
    vals = [1.0, *head, *last]
    seq = custom(vals, tail="power-law", tail_exponent=p)
    st_ = boundary_sum(seq, tol=1e-8)
    assert st_.is_finite
    L = len(vals)
    c = mpmath.mpf(vals[-1]) / mpmath.mpf(L) ** p
    exact = mpmath.fsum(vals) + c * mpmath.zeta(-p, L + 1)
    assert abs(st_.value - float(exact)) <= st_.tail_bound


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    head=st.lists(st.one_of(st.just(0.0), _POSITIVE), max_size=6),
    last=st.lists(_POSITIVE, min_size=2, max_size=2),
)
def test_boundary_sum_repeat_ratio_tail_diverges(head, last):
    seq = custom([1.0, *head, *last])
    assert seq.sigma == last[0] / last[1]
    st_ = boundary_sum(seq, tol=1e-8)
    assert st_.is_divergent
    assert st_.partial_sum > 0


# ---------------------------------------------------------------------------
# partial sums and the inverse
# ---------------------------------------------------------------------------


def test_q_partial_small_cases():
    seq = log_kind()
    assert q_partial(seq, 1, 0.7) == pytest.approx(0.7)
    assert q_partial(seq, 2, 0.7) == pytest.approx(0.7 + 0.7**2 / 2)
    assert q_partial(seq, 2, 0.0) == 0.0


def test_q_partial_vectorized():
    seq = harmonic()
    ss = np.array([0.0, 0.3, 1.2])
    out = q_partial(seq, 3, ss)
    expect = ss + ss**2 / 2 + ss**3 / 3
    np.testing.assert_allclose(out, expect, rtol=1e-14)


def test_q_partial_is_increasing():
    seq = log_kind()
    ss = np.linspace(0.0, 4.0, 200)
    qs = q_partial(seq, 7, ss)
    assert np.all(np.diff(qs) > 0)


def test_q_partial_inverse_linear_case():
    # n = 1 reduces to y / a_1
    seq = geometric(2.0)
    assert q_partial_inverse(seq, 1, 3.0) == pytest.approx(1.5, rel=1e-12)


def test_q_partial_inverse_quadratic_case():
    # log kind Q_2(s) = s + s^2/2, root -1 + sqrt(1 + 2y)
    seq = log_kind()
    y = 0.25
    s = q_partial_inverse(seq, 2, y)
    assert s == pytest.approx(math.sqrt(1.5) - 1.0, rel=1e-10)


def test_q_partial_inverse_round_trip_high_degree():
    seq = log_kind()
    ss = np.linspace(0.0, 3.0, 31)
    for n in (1, 2, 5, 33, 256):
        ys = q_partial(seq, n, ss)
        back = q_partial_inverse(seq, n, ys)
        resid = np.abs(q_partial(seq, n, back) - ys)
        assert np.max(resid / np.maximum(1.0, ys)) <= 1e-10


def test_q_partial_inverse_zero_and_negative():
    seq = harmonic()
    assert q_partial_inverse(seq, 5, 0.0) == 0.0
    with pytest.raises(ValueError):
        q_partial_inverse(seq, 5, -0.1)


def test_q_partial_inverse_preserves_shape():
    seq = harmonic()
    y = np.linspace(0.0, 2.0, 12).reshape(3, 4)
    s = q_partial_inverse(seq, 4, y)
    assert s.shape == (3, 4)
    np.testing.assert_allclose(q_partial(seq, 4, s), y, atol=1e-10)


def test_q_partial_inverse_huge_argument():
    # steep polynomial far from the origin; bracket must still collapse
    seq = custom([1.0, 2.0])
    s = q_partial_inverse(seq, 64, 1e90)
    assert abs(q_partial(seq, 64, s) - 1e90) <= 1e-10 * 1e90


def test_q_partial_inverse_monotone_in_y():
    seq = log_kind()
    ys = np.linspace(0.0, 10.0, 50)
    ss = q_partial_inverse(seq, 9, ys)
    assert np.all(np.diff(ss) > 0)


def test_q_partial_inverse_rejects_overflowing_coefficients():
    # a_m = 1e10^m is +inf from m = 31 on, but every boundary term
    # a_m sigma^m is 1: in t = 1e10 s the root of t/(1 - t) = 1/8 is 1/9
    seq = geometric(1e10)
    for n in (16, 32, 64):
        assert q_partial_inverse(seq, n, 0.125) == pytest.approx(1e-10 / 9, rel=1e-9)
    # a power tail has sigma = 1, and its term m^400 overflows from m = 6 on
    with pytest.raises(DomainError, match="a_6 "):
        q_partial_inverse(power_law(400), 8, 1.0)
    # the root in t = s/sigma overflows although sigma * t would not
    with pytest.raises(DomainError, match="beyond float64"):
        q_partial_inverse(custom([0.001, 0.001, 547]), 1, 3.29e299)


def test_underflowing_boundary_terms_are_domain_errors():
    # sigma = 1e-40: b_8 = 1e-320 is subnormal and b_9 = b_10 = 0, though
    # every raw a_m up to m = 16 is a normal number; Q_10(1) is 1e40 + 9
    seq = custom([1.0] * 9 + [1e40])
    for evaluate in (
        lambda: q_partial(seq, 10, 1.0),
        lambda: q_partial_inverse(seq, 10, 1e40),
        lambda: q_derivative(seq, 1.0, n=10),
    ):
        with pytest.raises(DomainError, match=r"a_8 sigma\^8 .* underflows"):
            evaluate()
    # below the first subnormal term Q_n is still evaluated in t
    assert q_partial(seq, 7, 1.0) == pytest.approx(7.0, rel=1e-12)
    # sigma = 1e-170 scales both listed values to 0
    with pytest.raises(DomainError, match=r"a_1 sigma\^1 .* underflows"):
        q_partial_inverse(custom([1e-170, 1.0]), 2, 1.0)


def _mp_root(values, n, y, start):
    """Root of Q_n(s) = y for custom(values) with its exact repeat-ratio
    tail, polished by Newton in 40 digits from ``start``."""
    with mpmath.workdps(40):
        a = [mpmath.mpf(v) for v in values]
        rate = a[-1] / a[-2]
        a += [a[-1] * rate**k for k in range(1, n - len(a) + 1)]
        coeffs = [*reversed(a[:n]), 0]  # highest degree first, no constant
        s = mpmath.mpf(start)
        for _ in range(20):
            q, dq = mpmath.polyval(coeffs, s, derivative=True)
            step = (q - y) / dq
            s -= step
            if abs(step) <= mpmath.mpf(10) ** -30 * s:
                return float(s)
    raise AssertionError("mpmath Newton did not settle")


@pytest.mark.parametrize(
    "values, n, y, root",
    [
        ([1.0, 2.0], 1024, 1e100, 0.6255168896053649),
        ([1.0, 2.0], 1024, 1e200, 0.7836921989723407),
        ([762.0, 0.0, 0.0, 774.0, 31.25], 657, 3e11, 24.799861234447686),
        ([1.0, 0.1], 512, 1000.0, 9.901610649506463),
    ],
)
def test_q_partial_inverse_matches_mpmath_root(values, n, y, root):
    # raw a_m over- or underflow on these ratio tails; a_m sigma^m do not
    exact = _mp_root(values, n, y, start=root)
    s = q_partial_inverse(custom(values), n, y)
    assert abs(s - exact) <= 4 * np.spacing(exact)


def _inversion_slack(seq, n, y, s, tol):
    """Distance to the exact root allowed by |Q_n(s) - y| <= tol * max(1, y)."""
    dq = q_derivative(seq, s, n=n)
    return tol * np.maximum(1.0, y) / dq + 4 * np.finfo(float).eps * s



@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    head=_POSITIVE,
    middle=st.lists(st.one_of(st.just(0.0), _POSITIVE), max_size=4),
    last=st.lists(_POSITIVE, min_size=2, max_size=2),
    tail=st.sampled_from(["repeat-ratio", "power-law"]),
    n=st.integers(1, 1023),
    ys=st.lists(st.floats(0.0, 1e300), min_size=1, max_size=8),
)
def test_q_partial_inverse_properties(head, middle, last, tail, n, ys):
    tol = 1e-12
    seq = custom([head, *middle, *last], tail=tail)
    ys = np.sort(np.asarray(ys))
    terms = seq.boundary_terms(n + 1)
    if not np.all(np.isfinite(terms[:n])):
        with pytest.raises(DomainError):
            q_partial_inverse(seq, n, ys, tol=tol)
        return
    try:
        s = q_partial_inverse(seq, n, ys, tol=tol)
    except DomainError:
        # only a root beyond float64 in t = s/sigma
        with np.errstate(over="ignore"):
            assert np.any(np.isinf(ys / terms[0]))
        return
    assert np.all(np.abs(q_partial(seq, n, s) - ys) <= tol * np.maximum(1.0, ys))
    slack = _inversion_slack(seq, n, ys, s, tol)
    assert np.all(np.diff(s) >= -(slack[1:] + slack[:-1]))
    if np.isfinite(terms[n]):
        s_next = q_partial_inverse(seq, n + 1, ys, tol=tol)
        assert np.all(
            s_next <= s + slack + _inversion_slack(seq, n + 1, ys, s_next, tol)
        )


# ---------------------------------------------------------------------------
# partial sums against closed forms of the full series
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("s", [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
def test_q_full_harmonic_closed_form(s):
    # -log(1 - s); the terms beyond n = 1024 sum to below 0.9^1024 / 0.1
    val = q_partial(harmonic(), 1024, s)
    assert abs(val - (-math.log1p(-s))) <= 1e-8


@pytest.mark.parametrize("s", [0.0, 0.3, 0.6, 0.9, 0.999])
def test_q_full_log_kind_closed_form(s):
    # beyond n the terms sum to below s^n / n^2 / (1 - s): 3e-13 at s = 0.999
    val = q_partial(log_kind(), 16384, s)
    exact = 2 * s + (1 - s) * math.log1p(-s) if s > 0 else 0.0
    assert abs(val - exact) <= 1e-8


@pytest.mark.parametrize("s", [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
def test_q_derivative_log_kind_closed_form(s):
    val = q_derivative(log_kind(), s, n=1024)
    assert abs(val - (1.0 - math.log1p(-s))) <= 1e-8


def test_q_derivative_partial_matches_difference_quotient():
    seq = harmonic()
    s, h = 1.7, 1e-6
    d = q_derivative(seq, s, n=9)
    fd = (q_partial(seq, 9, s + h) - q_partial(seq, 9, s - h)) / (2 * h)
    assert d == pytest.approx(fd, rel=1e-8)
    assert q_derivative(seq, np.array([0.0, s]), n=9)[1] == d


def test_q_full_on_boundary_terms():
    # sum (1e10 s)^m at s = 5e-11 is 1, though a_m = 1e10^m overflows;
    # sum 0.1^(m-1) 9^m = 9/(1 - 0.9) = 90, though 0.1^(m-1) underflows
    assert q_partial(geometric(1e10), 1024, 5e-11) == pytest.approx(1.0, rel=1e-12)
    assert q_partial(custom([1.0, 0.1]), 1024, 9.0) == pytest.approx(90.0, rel=1e-12)


def test_q_full_geometric_closed_form():
    # sum (rs)^m = rs/(1-rs)
    val = q_partial(geometric(0.5), 1024, 1.2)
    rs = 0.6
    assert val == pytest.approx(rs / (1 - rs), rel=1e-9)


# ---------------------------------------------------------------------------
# profile
# ---------------------------------------------------------------------------


def test_profile_log_kind():
    prof = profile(log_kind())
    assert prof.sigma == 1.0
    assert prof.K.is_finite
    assert prof.K.value == pytest.approx(2.0, abs=1e-8)


def test_profile_harmonic_divergent():
    prof = profile(harmonic())
    assert prof.sigma == 1.0
    assert prof.K.is_divergent


def test_profile_supercritical_list_diverges_at_its_radius():
    # m^m for m <= 60 and a repeat-ratio tail: a_m sigma^m is constant beyond
    m = np.arange(1, 61, dtype=float)
    vals = (m**m).tolist()
    prof = profile(custom(vals))
    assert prof.sigma == vals[-2] / vals[-1]
    assert prof.K.is_divergent


def test_kstatus_flags():
    assert KStatus(status="finite", value=1.0).is_finite
    assert KStatus(status="divergent").is_divergent
    assert not KStatus(status="inconclusive").is_finite
