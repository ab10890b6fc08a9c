"""Coefficient sequences and their power series.

A sequence {a_m} (m >= 1, a_m >= 0, a_1 > 0, infinitely many positive terms)
defines the nonlinearity Q(s) = sum a_m s^m.  This module estimates the radius
of convergence sigma, decides whether the boundary sum sum a_m sigma^m
converges (with a certificate, never a guess), and evaluates / inverts the
partial sums Q_n.  All operations are pure; sequences are immutable and safe
to share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DomainError, InvalidSequence, NoConvergence

KIND_HARMONIC = "harmonic"
KIND_LOG = "log"
KIND_GEOMETRIC = "geometric"
KIND_POWER_LAW = "power-law"
KIND_CUSTOM = "custom"

TAIL_REPEAT_RATIO = "repeat-ratio"
TAIL_POWER_LAW = "power-law"

# Root-test window verdict factors: the estimate is declared 0 when the window
# maximum of a_m^(1/m) reaches m_max / SIGMA_CUTOFF_FACTOR, and +inf when it
# drops below SIGMA_CUTOFF_FACTOR / m_max.  Factorial-type decay has
# a_m^(1/m) ~ e/m, so the infinity cutoff must sit above e/m_max; sequences
# like m^m have a_m^(1/m) = m and trip the zero cutoff.
SIGMA_CUTOFF_FACTOR = 4.0

_Q_FULL_TERM_CAP = 2_000_000


@dataclass(frozen=True)
class CoefficientSequence:
    """Immutable coefficient sequence {a_m}, m >= 1.

    ``values``/``tail``/``tail_exponent`` are only meaningful for the custom
    kind; ``ratio`` for geometric; ``exponent`` for power-law.
    ``sigma_closed_form`` is set for the built-in kinds and None for custom.
    """

    kind: str
    ratio: float | None = None
    exponent: float | None = None
    values: tuple[float, ...] | None = None
    tail: str | None = None
    tail_exponent: float | None = None
    sigma_closed_form: float | None = None

    def a(self, m: int) -> float:
        """Coefficient a_m for a single index m >= 1."""
        if m < 1:
            raise ValueError("coefficient index must be >= 1")
        if self.kind == KIND_HARMONIC:
            return 1.0 / m
        if self.kind == KIND_LOG:
            return 1.0 if m == 1 else 1.0 / (m * (m - 1))
        if self.kind == KIND_GEOMETRIC:
            return self.ratio**m
        if self.kind == KIND_POWER_LAW:
            return float(m) ** self.exponent
        # custom
        vals = self.values
        if m <= len(vals):
            return vals[m - 1]
        last = vals[-1]
        length = len(vals)
        if self.tail == TAIL_REPEAT_RATIO:
            return last * (vals[-1] / vals[-2]) ** (m - length)
        return last * (m / length) ** self.tail_exponent

    def coefficients(self, n: int) -> np.ndarray:
        """Vector (a_1, ..., a_n).  Overflowing entries become +inf."""
        m = np.arange(1, n + 1, dtype=float)
        if self.kind == KIND_HARMONIC:
            return 1.0 / m
        if self.kind == KIND_LOG:
            out = np.empty(n)
            out[0] = 1.0
            if n > 1:
                out[1:] = 1.0 / (m[1:] * (m[1:] - 1.0))
            return out
        with np.errstate(over="ignore"):
            if self.kind == KIND_GEOMETRIC:
                return self.ratio**m
            if self.kind == KIND_POWER_LAW:
                return m**self.exponent
            vals = np.asarray(self.values)
            length = len(vals)
            if n <= length:
                return vals[:n].astype(float).copy()
            out = np.empty(n)
            out[:length] = vals
            tail_m = m[length:]
            if self.tail == TAIL_REPEAT_RATIO:
                r = vals[-1] / vals[-2]
                out[length:] = vals[-1] * r ** (tail_m - length)
            else:
                out[length:] = vals[-1] * (tail_m / length) ** self.tail_exponent
            return out

    @property
    def label(self) -> str:
        if self.kind == KIND_GEOMETRIC:
            return f"geometric(ratio={self.ratio:g})"
        if self.kind == KIND_POWER_LAW:
            return f"power-law(exponent={self.exponent:g})"
        if self.kind == KIND_CUSTOM:
            return f"custom({len(self.values)} values, tail={self.tail})"
        return self.kind


def harmonic() -> CoefficientSequence:
    """a_m = 1/m; radius 1, boundary sum divergent."""
    return CoefficientSequence(kind=KIND_HARMONIC, sigma_closed_form=1.0)


def log_kind() -> CoefficientSequence:
    """a_1 = 1, a_m = 1/(m(m-1)) for m >= 2; radius 1, boundary sum 2."""
    return CoefficientSequence(kind=KIND_LOG, sigma_closed_form=1.0)


def geometric(ratio: float) -> CoefficientSequence:
    """a_m = ratio^m; radius 1/ratio, all boundary terms equal 1."""
    if not (ratio > 0 and math.isfinite(ratio)):
        raise InvalidSequence("geometric ratio must be a positive finite real")
    return CoefficientSequence(
        kind=KIND_GEOMETRIC, ratio=float(ratio), sigma_closed_form=1.0 / ratio
    )


def power_law(exponent: float) -> CoefficientSequence:
    """a_m = m^exponent; radius 1 for every exponent."""
    if not math.isfinite(exponent):
        raise InvalidSequence("power-law exponent must be finite")
    return CoefficientSequence(
        kind=KIND_POWER_LAW, exponent=float(exponent), sigma_closed_form=1.0
    )


def custom(
    values: Iterable[float],
    tail: str = TAIL_REPEAT_RATIO,
    tail_exponent: float | None = None,
) -> CoefficientSequence:
    """Finite list of leading coefficients plus a tail rule.

    ``repeat-ratio`` extends geometrically with the ratio of the last two
    listed values; ``power-law`` extends with a_m = a_L (m/L)^p where p is
    ``tail_exponent`` or, when omitted, is fitted to the last two values.
    Zero-extension is not offered: a valid sequence needs infinitely many
    positive terms.
    """
    vals = tuple(float(v) for v in values)
    if not vals:
        raise InvalidSequence("custom sequence needs at least one value")
    if vals[0] <= 0:
        raise InvalidSequence("a_1 must be strictly positive")
    if any(v < 0 or not math.isfinite(v) for v in vals):
        raise InvalidSequence("coefficients must be nonnegative finite reals")
    if tail not in (TAIL_REPEAT_RATIO, TAIL_POWER_LAW):
        raise InvalidSequence(
            f"unknown tail rule {tail!r}; use {TAIL_REPEAT_RATIO!r} or {TAIL_POWER_LAW!r}"
        )
    if len(vals) < 2 or vals[-1] <= 0 or vals[-2] <= 0:
        raise InvalidSequence(
            "tail rules need the last two listed values strictly positive"
        )
    p = tail_exponent
    if tail == TAIL_POWER_LAW:
        if p is None:
            length = len(vals)
            p = math.log(vals[-1] / vals[-2]) / math.log(length / (length - 1))
        p = float(p)
    else:
        p = None
    return CoefficientSequence(
        kind=KIND_CUSTOM, values=vals, tail=tail, tail_exponent=p
    )


def make_sequence(kind: str, **params) -> CoefficientSequence:
    """Dispatch constructor used by the config layer."""
    kind = kind.strip().lower()
    if kind == KIND_HARMONIC:
        return harmonic()
    if kind == KIND_LOG:
        return log_kind()
    if kind == KIND_GEOMETRIC:
        if "ratio" not in params or params["ratio"] is None:
            raise InvalidSequence("geometric kind requires a ratio")
        return geometric(params["ratio"])
    if kind == KIND_POWER_LAW:
        if "exponent" not in params or params["exponent"] is None:
            raise InvalidSequence("power-law kind requires an exponent")
        return power_law(params["exponent"])
    if kind == KIND_CUSTOM:
        if "values" not in params or params["values"] is None:
            raise InvalidSequence("custom kind requires a list of values")
        return custom(
            params["values"],
            tail=params.get("tail") or TAIL_REPEAT_RATIO,
            tail_exponent=params.get("tail_exponent"),
        )
    raise InvalidSequence(f"unknown sequence kind {kind!r}")


# ---------------------------------------------------------------------------
# Radius of convergence
# ---------------------------------------------------------------------------


def radius_of_convergence(
    seq: CoefficientSequence, m_max: int = 256
) -> tuple[float, str]:
    """Radius of convergence of sum a_m s^m, with a method tag.

    Built-in kinds return their closed form.  Custom sequences get a
    root-test surrogate: 1 over the maximum of a_m^(1/m) on a sliding window
    ending at m_max.  Window maxima at or beyond m_max/4 report 0; below
    4/m_max report +inf (the limsup is not computable from finitely many
    terms, so extreme estimates are collapsed to the extreme radii).
    """
    if m_max < 16:
        raise ValueError("m_max must be at least 16")
    if seq.sigma_closed_form is not None:
        return float(seq.sigma_closed_form), "closed-form"
    window = max(8, m_max // 16)
    lo = max(1, m_max - window + 1)
    coeffs = seq.coefficients(m_max)
    while True:
        m = np.arange(lo, m_max + 1, dtype=float)
        a = coeffs[lo - 1 : m_max]
        pos = a > 0
        if pos.any():
            with np.errstate(divide="ignore"):
                roots = np.exp(np.log(a[pos]) / m[pos])
            break
        if lo == 1:
            raise InvalidSequence("sequence has no positive coefficients")
        lo = max(1, lo - window)  # window landed on a zero run; widen toward a_1
    wmax = float(np.max(roots))
    if wmax >= m_max / SIGMA_CUTOFF_FACTOR:
        return 0.0, "root-test"
    if wmax <= SIGMA_CUTOFF_FACTOR / m_max:
        return math.inf, "root-test"
    return 1.0 / wmax, "root-test"


# ---------------------------------------------------------------------------
# Boundary sum  K = sum a_m sigma^m
# ---------------------------------------------------------------------------

STATUS_FINITE = "finite"
STATUS_DIVERGENT = "divergent"
STATUS_INCONCLUSIVE = "inconclusive"
STATUS_SKIPPED = "skipped"


@dataclass(frozen=True)
class KStatus:
    """Outcome of the boundary-sum test.

    ``finite`` carries a certified value and tail bound (half-width of the
    enclosure); ``divergent`` carries the partial sum at the cutoff;
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


def _terms(seq: CoefficientSequence, s: float, m: int) -> np.ndarray:
    coeffs = seq.coefficients(m)
    with np.errstate(over="ignore", invalid="ignore"):
        powers = s ** np.arange(1, m + 1, dtype=float)
        t = coeffs * powers
    return np.nan_to_num(t, nan=np.inf, posinf=np.inf)


def _divergent(seq, s, m_max, ceiling, detail) -> KStatus:
    t = _terms(seq, s, m_max)
    csum = np.cumsum(t)
    over = np.nonzero(csum > ceiling)[0]
    cutoff = int(over[0]) + 1 if over.size else m_max
    partial = float(csum[cutoff - 1])
    return KStatus(
        status=STATUS_DIVERGENT,
        partial_sum=partial,
        cutoff=cutoff,
        detail=detail,
    )


def _certify_with_bound(seq, s, tol, m_max, bound_at):
    """Try doubling cutoffs; certify once the tail enclosure is below tol*value.

    ``bound_at(M) -> (estimate, half_width)`` encloses the tail sum beyond M.
    """
    cuts = []
    c = 64
    while c < m_max:
        cuts.append(c)
        c *= 2
    cuts.append(m_max)
    for M in cuts:
        est, half = bound_at(M)
        if est is None:
            continue
        partial = float(np.sum(_terms(seq, s, M)))
        value = partial + est
        if value > 0 and half < tol * value:
            return KStatus(
                status=STATUS_FINITE,
                value=value,
                tail_bound=half,
                partial_sum=partial,
                cutoff=M,
            )
    return None


def boundary_sum(
    seq: CoefficientSequence,
    sigma: float,
    tol: float,
    m_max: int = 256,
    ceiling: float = 1e12,
) -> KStatus:
    """Decide convergence of sum a_m sigma^m with a certificate.

    Built-in kinds use comparison with their closed forms (telescoping for
    the log kind, integral test for power laws, geometric sums); custom
    sequences use the geometric or power-law structure of their tail rule.
    When no certificate fires within m_max the result is inconclusive.
    """
    if not (0 < sigma < math.inf):
        raise ValueError("boundary_sum requires 0 < sigma < +inf")
    if tol <= 0:
        raise ValueError("tol must be positive")
    s = float(sigma)
    eps = np.finfo(float).eps

    if seq.kind == KIND_HARMONIC:
        if s < 1.0:
            res = _certify_with_bound(
                seq,
                s,
                tol,
                m_max,
                lambda M: (
                    (b := s ** (M + 1) / ((M + 1) * (1.0 - s))) / 2.0,
                    b / 2.0,
                ),
            )
            if res:
                return res
        else:
            detail = (
                "harmonic comparison: partial sums exceed ln(M+1)"
                if s == 1.0
                else "terms are unbounded"
            )
            return _divergent(seq, s, m_max, ceiling, detail)

    elif seq.kind == KIND_LOG:
        if s < 1.0:
            res = _certify_with_bound(
                seq,
                s,
                tol,
                m_max,
                # tail <= sum_{m>M} s^m / (M(M+1)) enclosed in [0, b]
                lambda M: (
                    (b := s ** (M + 1) / (M * (M + 1) * (1.0 - s))) / 2.0,
                    b / 2.0,
                ),
            )
            if res:
                return res
        elif s == 1.0:
            # telescoping: the tail beyond M is exactly 1/M
            M = min(m_max, 4096)
            partial = float(np.sum(_terms(seq, s, M)))
            value = partial + 1.0 / M
            return KStatus(
                status=STATUS_FINITE,
                value=value,
                tail_bound=16 * eps * value,
                partial_sum=partial,
                cutoff=M,
            )
        else:
            return _divergent(seq, s, m_max, ceiling, "terms are unbounded")

    elif seq.kind == KIND_GEOMETRIC:
        q = seq.ratio * s
        if q < 1.0:
            M = min(m_max, 4096)
            partial = float(np.sum(_terms(seq, s, M)))
            value = partial + q ** (M + 1) / (1.0 - q)
            return KStatus(
                status=STATUS_FINITE,
                value=value,
                tail_bound=16 * eps * value,
                partial_sum=partial,
                cutoff=M,
            )
        return _divergent(seq, s, m_max, ceiling, "geometric term ratio >= 1")

    elif seq.kind == KIND_POWER_LAW:
        p = seq.exponent
        res = _power_law_status(seq, s, p, 1.0, tol, m_max, ceiling)
        if res:
            return res

    else:  # custom
        vals = seq.values
        L = len(vals)
        if seq.tail == TAIL_REPEAT_RATIO:
            rho = vals[-1] / vals[-2]
            q = rho * s
            if q < 1.0:
                M = max(L, min(m_max, 4096))
                partial = float(np.sum(_terms(seq, s, M)))
                a_M = seq.a(M)
                tail = a_M * (s**M) * q / (1.0 - q)
                value = partial + tail
                return KStatus(
                    status=STATUS_FINITE,
                    value=value,
                    tail_bound=16 * eps * max(value, tail),
                    partial_sum=partial,
                    cutoff=M,
                )
            return _divergent(
                seq, s, m_max, ceiling, "custom geometric tail has ratio*s >= 1"
            )
        # power-law tail: a_m = c m^p beyond the list
        p = seq.tail_exponent
        c = vals[-1] / L**p
        res = _power_law_status(seq, s, p, c, tol, m_max, ceiling, start=L)
        if res:
            return res

    # No certificate fired; last resort is the configured divergence ceiling.
    partial = float(np.sum(_terms(seq, s, m_max)))
    if partial > ceiling:
        return _divergent(
            seq, s, m_max, ceiling, "partial sum exceeded divergence ceiling"
        )
    return KStatus(
        status=STATUS_INCONCLUSIVE,
        partial_sum=partial,
        cutoff=m_max,
        detail=f"no convergence certificate within m_max={m_max}",
    )


def _power_law_status(seq, s, p, c, tol, m_max, ceiling, start=1):
    """Certificates for tails behaving like c*m^p s^m from index ``start`` on."""
    if s > 1.0:
        return _divergent(seq, s, m_max, ceiling, "terms are unbounded")
    if s == 1.0:
        if p >= -1.0:
            return _divergent(
                seq, s, m_max, ceiling, "integral comparison: sum of m^p diverges"
            )

        def bound_at(M):
            if M < start:
                return None, None
            k = -1.0 - p
            hi = c * M ** (p + 1.0) / k
            lo = c * (M + 1.0) ** (p + 1.0) / k
            return (lo + hi) / 2.0, (hi - lo) / 2.0

        return _certify_with_bound(seq, s, tol, m_max, bound_at)

    # s < 1: geometric majorant once (1+1/M)^max(p,0) * s < 1
    def bound_at(M):
        if M < start:
            return None, None
        rate = (1.0 + 1.0 / M) ** max(p, 0.0) * s
        if rate >= 1.0:
            return None, None
        t_next = c * (M + 1.0) ** p * s ** (M + 1.0)
        b = t_next / (1.0 - rate)
        return b / 2.0, b / 2.0

    return _certify_with_bound(seq, s, tol, m_max, bound_at)


# ---------------------------------------------------------------------------
# Partial sums Q_n and their inverses
# ---------------------------------------------------------------------------


def _horner(coeffs: np.ndarray, s):
    """Q(s) = sum coeffs[m-1] s^m via Horner; s scalar or ndarray."""
    s = np.asarray(s, dtype=float)
    acc = np.zeros_like(s)
    for a in coeffs[::-1]:
        acc = acc * s + a
    out = acc * s
    return np.where(s == 0.0, 0.0, out)


def _horner_with_derivative(coeffs: np.ndarray, s):
    """(Q(s), Q'(s)) in one pass."""
    s = np.asarray(s, dtype=float)
    p = np.full_like(s, coeffs[-1])
    dp = np.zeros_like(s)
    for a in coeffs[-2::-1]:
        dp = dp * s + p
        p = p * s + a
    q = np.where(s == 0.0, 0.0, p * s)
    dq = p + s * dp
    return q, dq


def q_partial(seq: CoefficientSequence, n: int, s):
    """Partial sum Q_n(s) = sum_{m<=n} a_m s^m; strictly increasing for s > 0.

    ``s`` may be a scalar or an array (evaluated elementwise).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    arr = np.asarray(s, dtype=float)
    if np.any(arr < 0):
        raise ValueError("s must be nonnegative")
    out = _horner(seq.coefficients(n), arr)
    return float(out) if np.ndim(s) == 0 else out


def q_partial_inverse(
    seq: CoefficientSequence,
    n: int,
    y,
    tol: float = 1e-12,
    max_iter: int = 200,
):
    """Solve Q_n(s) = y for s >= 0 (elementwise for arrays).

    Monotone Newton iteration.  Q_n has nonnegative coefficients, so it is
    increasing and convex on s >= 0, and Newton started above the root
    decreases monotonically onto it (Kelley, *Solving Nonlinear Equations
    with Newton's Method*, SIAM 2003).  The start is the power cap
    min_m (y/a_m)^(1/m) over m = 1, the powers of two and n: every positive
    coefficient gives Q_n(s) >= a_m s^m, hence an upper bound on the root.
    Where Q_n or Q_n' overflows, s is halved instead; from below the root a
    Newton step lands above it again.  Only nodes that have not converged
    are re-evaluated.  A node stops when |Q_n(s) - y| <= tol * max(1, y),
    when a step moves s by at most 4 ulps, or when its residual above the
    root stops falling: there float64 cannot place the root any better.  A
    coefficient that overflows float64 raises DomainError: Q_n is then +inf
    at every s > 0 and has no usable root.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if tol <= 0:
        raise ValueError("tol must be positive")
    y_arr = np.asarray(y, dtype=float).ravel()
    if np.any(y_arr < 0):
        raise ValueError("y must be nonnegative")
    coeffs = seq.coefficients(n)
    overflowed = np.flatnonzero(~np.isfinite(coeffs))
    if overflowed.size:
        m = int(overflowed[0]) + 1
        raise DomainError(
            f"coefficient a_{m} of {seq.label} overflows float64; "
            f"Q_{n} cannot be inverted"
        )
    eps = np.finfo(float).eps

    # in logs, so that y/a_m cannot overflow when a_m is tiny; a_1 > 0
    with np.errstate(divide="ignore"):
        log_y = np.log(y_arr)
    s = np.full_like(y_arr, np.inf)
    for m in {1 << k for k in range(n.bit_length())} | {n}:
        if coeffs[m - 1] > 0.0:
            np.minimum(s, np.exp((log_y - math.log(coeffs[m - 1])) / m), out=s)
    target = tol * np.maximum(1.0, y_arr)
    active = np.flatnonzero(y_arr > 0.0)
    # Above the root, exact Newton lowers the residual at every step.  A
    # residual that fails to drop below the least one seen above the root is
    # rounding noise of the Horner evaluation: the float64 floor for the node.
    least = np.full(active.size, np.inf)

    for _ in range(max_iter):
        if not active.size:
            break
        x = s[active]
        with np.errstate(over="ignore", invalid="ignore"):
            q, dq = _horner_with_derivative(coeffs, x)
            f = q - y_arr[active]
            finite = np.isfinite(q) & np.isfinite(dq)
            step = np.where(finite, f / dq, 0.5 * x)
        hit = np.abs(f) <= target[active]
        floor = finite & (f >= least)
        # a node that meets the residual still takes the Newton step already
        # computed, which squares its error at no extra cost
        s[active] = np.where(floor | (hit & ~finite), x, x - step)
        keep = ~(hit | floor | (np.abs(step) <= 4.0 * eps * x))
        active = active[keep]
        least = np.where(finite & (f > 0.0), np.minimum(least, f), least)[keep]
    if active.size:
        raise NoConvergence(
            f"partial-sum inversion did not reach tol={tol} in {max_iter} iterations"
        )
    return float(s[0]) if np.ndim(y) == 0 else s.reshape(np.shape(y))


def _sigma_estimate(seq: CoefficientSequence) -> float:
    if seq.sigma_closed_form is not None:
        return float(seq.sigma_closed_form)
    sigma, _ = radius_of_convergence(seq)
    return sigma


def q_full(seq: CoefficientSequence, s: float, tol: float = 1e-10) -> float:
    """Full series Q(s), adaptively truncated.

    Terms are summed until the geometric tail majorant
    a_m s^m / (1 - s/sigma_hat) drops below ``tol``.  Requires s < sigma.
    """
    sigma_hat = _sigma_estimate(seq)
    if s < 0:
        raise ValueError("s must be nonnegative")
    if s >= sigma_hat:
        raise DomainError(f"s={s} is outside [0, sigma={sigma_hat})")
    if s == 0.0:
        return 0.0
    shrink = 1.0 - s / sigma_hat if math.isfinite(sigma_hat) else 1.0
    total = 0.0
    block = 256
    start = 1
    while start <= _Q_FULL_TERM_CAP:
        stop = start + block - 1
        coeffs = seq.coefficients(stop)[start - 1 :]
        powers = s ** np.arange(start, stop + 1, dtype=float)
        t = coeffs * powers
        total += float(np.sum(t))
        if t[-1] / shrink < tol:
            return total
        start = stop + 1
    raise NoConvergence("q_full truncation cap reached; s may be too close to sigma")


def q_derivative(
    seq: CoefficientSequence,
    s: float,
    tol: float = 1e-10,
    n: int | None = None,
) -> float:
    """Q'(s) = sum m a_m s^(m-1).

    With ``n`` given, the exact derivative of the partial sum Q_n (any
    s >= 0); otherwise the full series with the same adaptive truncation as
    q_full (requires s < sigma).
    """
    if s < 0:
        raise ValueError("s must be nonnegative")
    if n is not None:
        if n < 1:
            raise ValueError("n must be >= 1")
        _, dq = _horner_with_derivative(seq.coefficients(n), np.asarray(s, float))
        return float(dq)
    sigma_hat = _sigma_estimate(seq)
    if s >= sigma_hat:
        raise DomainError(f"s={s} is outside [0, sigma={sigma_hat})")
    if s == 0.0:
        return float(seq.a(1))
    r = s / sigma_hat if math.isfinite(sigma_hat) else 0.0
    total = 0.0
    block = 256
    start = 1
    while start <= _Q_FULL_TERM_CAP:
        stop = start + block - 1
        m = np.arange(start, stop + 1, dtype=float)
        coeffs = seq.coefficients(stop)[start - 1 :]
        t = m * coeffs * s ** (m - 1.0)
        total += float(np.sum(t))
        # tail of sum m a_m s^(m-1) against the geometric envelope at stop
        if r < 1.0:
            majorant = t[-1] * (r / (1.0 - r) + r / (stop * (1.0 - r) ** 2))
        else:
            majorant = math.inf
        if majorant < tol:
            return total
        start = stop + 1
    raise NoConvergence(
        "q_derivative truncation cap reached; s may be too close to sigma"
    )


# ---------------------------------------------------------------------------
# Series profile (sigma and K together)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeriesProfile:
    """Radius estimate plus boundary-sum status at the truncation used."""

    sigma: float
    sigma_method: str
    K: KStatus
    m_max: int
    tol: float

    @property
    def sigma_is_zero(self) -> bool:
        return self.sigma == 0.0


def profile(
    seq: CoefficientSequence,
    m_max: int = 256,
    tol: float = 1e-8,
    ceiling: float = 1e12,
) -> SeriesProfile:
    """Compute sigma and the boundary sum status in one shot.

    sigma = 0 skips the boundary sum (no nontrivial solution exists);
    sigma = +inf records the trivially-divergent case.
    """
    sigma, method = radius_of_convergence(seq, m_max)
    if sigma == 0.0:
        k = KStatus(status=STATUS_SKIPPED, detail="sigma = 0")
    elif math.isinf(sigma):
        k = KStatus(
            status=STATUS_DIVERGENT,
            detail="sigma = +inf: boundary sum trivially divergent",
        )
    else:
        k = boundary_sum(seq, sigma, tol, m_max=m_max, ceiling=ceiling)
    return SeriesProfile(sigma=sigma, sigma_method=method, K=k, m_max=m_max, tol=tol)
