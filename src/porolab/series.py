"""Coefficient sequences and their power series.

A sequence {a_m} (m >= 1, a_m >= 0, a_1 > 0, infinitely many positive terms)
defines the nonlinearity Q(s) = sum a_m s^m.  Every sequence is a list of
head values followed by one tail rule, and carries its exact radius of
convergence sigma, fixed by that rule: 1 for a power or log tail, 1/rate for
a ratio tail.  From the shape of the tail this module decides whether the
boundary sum sum a_m sigma^m converges (with a certificate, never a guess),
and it evaluates the partial sums Q_n, their derivatives Q_n' and their
inverses on the boundary terms a_m sigma^m in t = s/sigma; the full series Q
is never summed.  All operations are pure; sequences are immutable and safe
to share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DomainError, InvalidSequence, NoConvergence

TAILS = ("repeat-ratio", "power-law")

RULE_RATIO = "ratio"
RULE_POWER = "power"
RULE_LOG = "log"


@dataclass(frozen=True)
class CoefficientSequence:
    """Immutable coefficient sequence {a_m}, m >= 1, with its radius sigma.

    a_m = head[m-1] for the listed values; beyond them the tail rule, from
    ``anchor = (L, a_L)``, gives a_L rate^(m-L) (``ratio``), a_L (m/L)^rate
    (``power``) or 1/(m(m-1)) (``log``).  A sigma that is 0 or +inf in
    float64 is rejected with InvalidSequence.
    """

    label: str
    sigma: float
    rule: str
    rate: float = 0.0
    head: tuple[float, ...] = ()
    anchor: tuple[int, float] = (1, 1.0)

    def __post_init__(self):
        if not 0.0 < self.sigma < math.inf:
            raise InvalidSequence(
                f"radius of convergence of {self.label} is {self.sigma!r} in "
                "float64; it must be positive and finite"
            )

    def coefficients(self, n: int) -> np.ndarray:
        """Vector (a_1, ..., a_n).  Overflowing entries become +inf."""
        out = np.empty(n)
        k = min(n, len(self.head))
        out[:k] = self.head[:k]
        m = np.arange(k + 1, n + 1, dtype=float)
        L, a_L = self.anchor
        with np.errstate(over="ignore"):
            if self.rule == RULE_RATIO:
                out[k:] = a_L * self.rate ** (m - L)
            elif self.rule == RULE_POWER:
                out[k:] = a_L * (m / L) ** self.rate
            else:
                out[k:] = 1.0 / (m * (m - 1.0))
        return out

    def boundary_terms(self, n: int) -> np.ndarray:
        """Vector (b_1, ..., b_n), b_m = a_m sigma^m: Q(s) = sum b_m t^m in
        t = s/sigma.  Overflowing entries become +inf.

        With sigma = 1 these are the coefficients.  Otherwise the tail is a
        ratio tail: its head is formed in logs, so that neither a_m nor
        sigma^m overflows on its own (b_m itself still may under- or
        overflow), and beyond it every term is a_L sigma^L.
        """
        if self.sigma == 1.0:
            return self.coefficients(n)
        L, a_L = self.anchor
        k = min(n, len(self.head))
        a = np.array(self.head[:k] + (a_L,))
        m = np.append(np.arange(1.0, k + 1.0), L)
        with np.errstate(divide="ignore", over="ignore"):
            terms = np.exp(np.log(a) + m * math.log(self.sigma))
        return terms[np.minimum(np.arange(n), k)]


def harmonic() -> CoefficientSequence:
    """a_m = 1/m; radius 1, boundary sum divergent."""
    return CoefficientSequence("harmonic", 1.0, RULE_POWER, rate=-1.0)


def log_kind() -> CoefficientSequence:
    """a_1 = 1, a_m = 1/(m(m-1)) for m >= 2; radius 1, boundary sum 2."""
    return CoefficientSequence("log", 1.0, RULE_LOG, head=(1.0,))


def geometric(ratio: float) -> CoefficientSequence:
    """a_m = ratio^m; radius 1/ratio, all boundary terms equal 1."""
    if not (ratio > 0 and math.isfinite(ratio)):
        raise InvalidSequence("geometric ratio must be a positive finite real")
    ratio = float(ratio)
    return CoefficientSequence(
        f"geometric(ratio={ratio:g})", 1.0 / ratio, RULE_RATIO, rate=ratio, anchor=(0, 1.0)
    )


def power_law(exponent: float) -> CoefficientSequence:
    """a_m = m^exponent; radius 1 for every exponent."""
    if not math.isfinite(exponent):
        raise InvalidSequence("power-law exponent must be finite")
    exponent = float(exponent)
    return CoefficientSequence(
        f"power-law(exponent={exponent:g})", 1.0, RULE_POWER, rate=exponent
    )


def custom(
    values: Iterable[float],
    tail: str = "repeat-ratio",
    tail_exponent: float | None = None,
) -> CoefficientSequence:
    """Finite list of leading coefficients plus a tail rule.

    ``repeat-ratio`` extends geometrically with the ratio of the last two
    listed values, so sigma = a_{L-1}/a_L; ``power-law`` extends with
    a_m = a_L (m/L)^p where p is ``tail_exponent`` or, when omitted, is
    fitted to the last two values, so sigma = 1.  Zero-extension is not
    offered: a valid sequence needs infinitely many positive terms.
    """
    vals = tuple(float(v) for v in values)
    if not vals:
        raise InvalidSequence("custom sequence needs at least one value")
    if vals[0] <= 0:
        raise InvalidSequence("a_1 must be strictly positive")
    if any(v < 0 or not math.isfinite(v) for v in vals):
        raise InvalidSequence("coefficients must be nonnegative finite reals")
    if tail not in TAILS:
        raise InvalidSequence(
            f"unknown tail rule {tail!r}; use 'repeat-ratio' or 'power-law'"
        )
    if len(vals) < 2 or vals[-1] <= 0 or vals[-2] <= 0:
        raise InvalidSequence(
            "tail rules need the last two listed values strictly positive"
        )
    L = len(vals)
    label = f"custom({L} values, tail={tail})"
    if tail == "repeat-ratio":
        return CoefficientSequence(
            label, vals[-2] / vals[-1], RULE_RATIO,
            rate=vals[-1] / vals[-2], head=vals, anchor=(L, vals[-1]),
        )
    p = tail_exponent
    if p is None:
        # logs of each value: their quotient may overflow or underflow
        p = (math.log(vals[-1]) - math.log(vals[-2])) / math.log(L / (L - 1))
    if not math.isfinite(p):
        raise InvalidSequence("power-law tail exponent must be finite")
    return CoefficientSequence(
        label, 1.0, RULE_POWER, rate=float(p), head=vals, anchor=(L, vals[-1])
    )


def make_sequence(kind: str, **params) -> CoefficientSequence:
    """Dispatch constructor used by the config layer."""
    kind = kind.strip().lower()
    if kind == "harmonic":
        return harmonic()
    if kind == "log":
        return log_kind()
    if kind == "geometric":
        if params.get("ratio") is None:
            raise InvalidSequence("geometric kind requires a ratio")
        return geometric(params["ratio"])
    if kind == "power-law":
        if params.get("exponent") is None:
            raise InvalidSequence("power-law kind requires an exponent")
        return power_law(params["exponent"])
    if kind == "custom":
        if params.get("values") is None:
            raise InvalidSequence("custom kind requires a list of values")
        return custom(
            params["values"],
            tail=params.get("tail") or "repeat-ratio",
            tail_exponent=params.get("tail_exponent"),
        )
    raise InvalidSequence(f"unknown sequence kind {kind!r}")


# ---------------------------------------------------------------------------
# Boundary sum  K = sum a_m sigma^m
# ---------------------------------------------------------------------------

STATUS_FINITE = "finite"
STATUS_DIVERGENT = "divergent"
STATUS_INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class KStatus:
    """Outcome of the boundary-sum test.

    ``finite`` carries a certified value and tail bound (half-width of the
    enclosure); ``divergent`` carries the partial sum at m_max;
    ``inconclusive`` means no certificate fired within m_max and is reported
    as such, never silently resolved.
    """

    status: str
    value: float | None = None
    tail_bound: float | None = None
    partial_sum: float | None = None
    cutoff: int | None = None
    detail: str = ""

    @property
    def is_finite(self) -> bool:
        return self.status == STATUS_FINITE

    @property
    def is_divergent(self) -> bool:
        return self.status == STATUS_DIVERGENT


def boundary_sum(seq: CoefficientSequence, tol: float, m_max: int = 256) -> KStatus:
    """Decide convergence of K = sum a_m sigma^m from the shape of the tail.

    A log tail telescopes.  A ratio tail has a_m sigma^m constant and
    diverges.  A power tail c m^p diverges for p >= -1; for p < -1 the
    tail beyond each doubling cutoff M = 64, ..., m_max is enclosed by the
    Euler-Maclaurin sums through the g'(M)/12 and the g'''(M)/720 terms
    (g = c x^p is completely monotone, so the remainder alternates in sign
    and is bounded by the first omitted term; Graham, Knuth and Patashnik,
    *Concrete Mathematics*, 9.5).  When no enclosure is narrower than
    tol * K the result is inconclusive.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    eps = np.finfo(float).eps

    if seq.rule == RULE_LOG:
        # telescoping: the tail beyond M is exactly 1/M
        M = min(m_max, 4096)
        partial = float(np.sum(seq.boundary_terms(M)))
        value = partial + 1.0 / M
        return KStatus(
            status=STATUS_FINITE,
            value=value,
            tail_bound=16 * eps * value,
            partial_sum=partial,
            cutoff=M,
        )

    if seq.rule == RULE_RATIO:
        return KStatus(
            status=STATUS_DIVERGENT,
            partial_sum=float(np.sum(seq.boundary_terms(m_max))),
            cutoff=m_max,
            detail="geometric tail: a_m sigma^m is constant",
        )
    (L, a_L), p = seq.anchor, seq.rate
    if p >= -1.0:
        return KStatus(
            status=STATUS_DIVERGENT,
            partial_sum=float(np.sum(seq.boundary_terms(m_max))),
            cutoff=m_max,
            detail="integral comparison: sum of m^p diverges for p >= -1",
        )

    cuts = [M for M in (64 << k for k in range(m_max.bit_length())) if M < m_max]
    for M in [*cuts, m_max]:
        if M < L:
            continue
        g = a_L * (M / L) ** p
        integral = g * M / (-1.0 - p)
        d1 = g * p / M  # g'(M)
        d3 = d1 * (p - 1.0) / M * (p - 2.0) / M  # g'''(M)
        upper = integral - g / 2.0 - d1 / 12.0
        lower = upper + d3 / 720.0
        partial = float(np.sum(seq.boundary_terms(M)))
        value = partial + (upper + lower) / 2.0
        # rounding: any order of summing M terms each good to (|p|/2 + 2) ulps,
        # and a few ulps in each Euler-Maclaurin term
        rounding = eps * (
            (M + abs(p) + 4.0) * partial
            + 8.0 * (integral + g / 2.0 - d1 / 12.0 - d3 / 720.0)
        )
        half = (upper - lower) / 2.0 + rounding
        if half < tol * value:
            return KStatus(
                status=STATUS_FINITE,
                value=value,
                tail_bound=half,
                partial_sum=partial,
                cutoff=M,
            )
    return KStatus(
        status=STATUS_INCONCLUSIVE,
        partial_sum=float(np.sum(seq.boundary_terms(m_max))),
        cutoff=m_max,
        detail=f"no convergence certificate within m_max={m_max}",
    )


# ---------------------------------------------------------------------------
# Partial sums Q_n and their inverses
# ---------------------------------------------------------------------------


def _horner(coeffs: np.ndarray, s):
    """Q(s) = sum coeffs[m-1] s^m via Horner; s scalar or ndarray."""
    s = np.asarray(s, dtype=float)
    acc = np.zeros_like(s)
    # in place: a fresh array per coefficient doubled the memory traffic
    for a in coeffs[::-1]:
        acc *= s
        acc += a
    out = acc * s
    return np.where(s == 0.0, 0.0, out)


def _horner_with_derivative(coeffs: np.ndarray, s):
    """(Q(s), Q'(s)) in one pass."""
    s = np.asarray(s, dtype=float)
    p = np.full_like(s, coeffs[-1])
    dp = np.zeros_like(s)
    for a in coeffs[-2::-1]:
        dp *= s
        dp += p
        p *= s
        p += a
    q = np.where(s == 0.0, 0.0, p * s)
    dq = p + s * dp
    return q, dq


def _finite_terms(seq: CoefficientSequence, n: int) -> np.ndarray:
    """boundary_terms(n), or DomainError where a term overflows float64 (Q_n
    is then +inf at every s > 0) or where sigma^m scales a positive a_m to a
    zero or subnormal b_m, which drops that term or its precision."""
    terms = seq.boundary_terms(n)
    bad = ~np.isfinite(terms)
    if seq.sigma != 1.0:  # a ratio tail: every a_m beyond the head is positive
        positive = np.array(seq.head[:n] + (1.0,) * (n - len(seq.head))) > 0.0
        bad |= positive & (terms < np.finfo(float).tiny)
    if np.any(bad):
        m = int(np.flatnonzero(bad)[0]) + 1
        fault = "overflows" if np.isinf(terms[m - 1]) else "underflows"
        raise DomainError(f"boundary term a_{m} sigma^{m} of {seq.label} {fault} float64")
    return terms


def q_partial(seq: CoefficientSequence, n: int, s):
    """Partial sum Q_n(s) = sum_{m<=n} a_m s^m; strictly increasing for s > 0.

    Evaluated as sum b_m t^m on the checked boundary terms (_finite_terms)
    in t = s/sigma.  ``s`` may be a scalar or an array (elementwise).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    arr = np.asarray(s, dtype=float)
    if np.any(arr < 0):
        raise ValueError("s must be nonnegative")
    out = _horner(_finite_terms(seq, n), arr / seq.sigma)
    return float(out) if np.ndim(s) == 0 else out


def q_partial_inverse(
    seq: CoefficientSequence,
    n: int,
    y,
    tol: float = 1e-12,
    max_iter: int = 200,
):
    """Solve Q_n(s) = y for s >= 0 (elementwise for arrays).

    The root is found in t = s/sigma, where Q_n = sum b_m t^m on the
    boundary terms b_m = a_m sigma^m, and returned as sigma * t; along a
    ratio tail b_m is constant where a_m under- or overflows.  Monotone Newton
    iteration: the terms are nonnegative, so Q_n is increasing and convex
    in t >= 0, and Newton started above the root decreases monotonically
    onto it (Kelley, *Solving Nonlinear Equations with Newton's Method*,
    SIAM 2003).  The start is the cap min_m (y/b_m)^(1/m) over m = 1, the
    powers of two and n: each positive term gives Q_n >= b_m t^m.  Only
    nodes that have not stopped are re-evaluated.  The one stop rule is
    that Q_n is finite and |Q_n - y| <= max(tol * max(1, y), n eps Q_n).
    Its second term bounds the rounding of Horner's rule over n nonnegative
    terms (Higham, *Accuracy and Stability of Numerical Algorithms*, 5.1),
    below which float64 cannot place the root.  An iterate whose Q_n
    overflows never stops and ends in NoConvergence.  DomainError is raised
    when a boundary term over- or underflows (see _finite_terms) or the
    start cap in t is not finite.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if tol <= 0:
        raise ValueError("tol must be positive")
    y_arr = np.asarray(y, dtype=float).ravel()
    if np.any(y_arr < 0):
        raise ValueError("y must be nonnegative")
    terms = _finite_terms(seq, n)

    # in logs, so that y/b_m cannot overflow before its m-th root is taken
    t = np.full_like(y_arr, np.inf)
    with np.errstate(divide="ignore", over="ignore"):
        log_y = np.log(y_arr)
        for m in {1 << k for k in range(n.bit_length())} | {n}:
            if terms[m - 1] > 0.0:
                np.minimum(t, np.exp((log_y - math.log(terms[m - 1])) / m), out=t)
    active = np.flatnonzero(y_arr > 0.0)
    if not np.all(np.isfinite(t[active])):
        raise DomainError(
            f"a root of Q_{n} for {seq.label} lies beyond float64 in t = s/sigma"
        )
    target = tol * np.maximum(1.0, y_arr)
    rounding = n * np.finfo(float).eps

    for _ in range(max_iter):
        if not active.size:
            break
        x = t[active]
        with np.errstate(over="ignore", invalid="ignore"):
            q, dq = _horner_with_derivative(terms, x)
            f = q - y_arr[active]
            # a node that stops still takes the Newton step already
            # computed, which squares its error at no extra cost
            t[active] = x - f / dq
            stop = np.isfinite(q) & (
                np.abs(f) <= np.maximum(target[active], rounding * q)
            )
        active = active[~stop]
    if active.size:
        raise NoConvergence(
            f"partial-sum inversion did not reach tol={tol} in {max_iter} iterations"
        )
    t *= seq.sigma
    return float(t[0]) if np.ndim(y) == 0 else t.reshape(np.shape(y))


def q_derivative(seq: CoefficientSequence, s, n: int):
    """Q_n'(s) = sum_{m<=n} m a_m s^(m-1) = sum m b_m t^(m-1) / sigma in
    t = s/sigma: the exact derivative of the partial sum at any s >= 0,
    elementwise for an array ``s``."""
    if n < 1:
        raise ValueError("n must be >= 1")
    arr = np.asarray(s, dtype=float)
    if np.any(arr < 0):
        raise ValueError("s must be nonnegative")
    _, dq = _horner_with_derivative(_finite_terms(seq, n), arr / seq.sigma)
    out = dq / seq.sigma
    return float(out) if np.ndim(s) == 0 else out


# ---------------------------------------------------------------------------
# Series profile (sigma and K together)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeriesProfile:
    """Radius plus boundary-sum status at the truncation used."""

    sigma: float
    K: KStatus
    m_max: int
    tol: float


def profile(
    seq: CoefficientSequence, m_max: int = 256, tol: float = 1e-8
) -> SeriesProfile:
    """The radius sigma and the boundary sum status in one shot."""
    return SeriesProfile(
        sigma=seq.sigma, K=boundary_sum(seq, tol, m_max), m_max=m_max, tol=tol
    )
