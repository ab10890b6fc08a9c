"""Coefficient sequences and their power series.

A sequence {a_m} (m >= 1, a_m >= 0, a_1 > 0, infinitely many positive terms)
defines the nonlinearity Q(s) = sum a_m s^m.  Every sequence carries its exact
radius of convergence sigma, fixed by its tail rule: 1 for the harmonic, log
and power-law kinds and for a power-law tail, 1/ratio for the geometric kind,
and a_{L-1}/a_L for a repeat-ratio tail after L listed values.  From the shape
of that tail this module decides whether the boundary sum sum a_m sigma^m
converges (with a certificate, never a guess), and it evaluates / inverts the
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

_Q_FULL_TERM_CAP = 2_000_000


@dataclass(frozen=True)
class CoefficientSequence:
    """Immutable coefficient sequence {a_m}, m >= 1, with its radius sigma.

    ``values``/``tail``/``tail_exponent`` are only meaningful for the custom
    kind; ``ratio`` for geometric; ``exponent`` for power-law.  A sigma that
    is 0 or +inf in float64 is rejected with InvalidSequence.
    """

    kind: str
    sigma: float
    ratio: float | None = None
    exponent: float | None = None
    values: tuple[float, ...] | None = None
    tail: str | None = None
    tail_exponent: float | None = None

    def __post_init__(self):
        if not 0.0 < self.sigma < math.inf:
            raise InvalidSequence(
                f"radius of convergence of {self.label} is {self.sigma!r} in "
                "float64; it must be positive and finite"
            )

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
    return CoefficientSequence(kind=KIND_HARMONIC, sigma=1.0)


def log_kind() -> CoefficientSequence:
    """a_1 = 1, a_m = 1/(m(m-1)) for m >= 2; radius 1, boundary sum 2."""
    return CoefficientSequence(kind=KIND_LOG, sigma=1.0)


def geometric(ratio: float) -> CoefficientSequence:
    """a_m = ratio^m; radius 1/ratio, all boundary terms equal 1."""
    if not (ratio > 0 and math.isfinite(ratio)):
        raise InvalidSequence("geometric ratio must be a positive finite real")
    return CoefficientSequence(
        kind=KIND_GEOMETRIC, sigma=1.0 / ratio, ratio=float(ratio)
    )


def power_law(exponent: float) -> CoefficientSequence:
    """a_m = m^exponent; radius 1 for every exponent."""
    if not math.isfinite(exponent):
        raise InvalidSequence("power-law exponent must be finite")
    return CoefficientSequence(
        kind=KIND_POWER_LAW, sigma=1.0, exponent=float(exponent)
    )


def custom(
    values: Iterable[float],
    tail: str = TAIL_REPEAT_RATIO,
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
    if tail not in (TAIL_REPEAT_RATIO, TAIL_POWER_LAW):
        raise InvalidSequence(
            f"unknown tail rule {tail!r}; use {TAIL_REPEAT_RATIO!r} or {TAIL_POWER_LAW!r}"
        )
    if len(vals) < 2 or vals[-1] <= 0 or vals[-2] <= 0:
        raise InvalidSequence(
            "tail rules need the last two listed values strictly positive"
        )
    if tail == TAIL_REPEAT_RATIO:
        return CoefficientSequence(
            kind=KIND_CUSTOM, sigma=vals[-2] / vals[-1], values=vals, tail=tail
        )
    p = tail_exponent
    if p is None:
        length = len(vals)
        # logs of each value: their quotient may overflow or underflow
        p = (math.log(vals[-1]) - math.log(vals[-2])) / math.log(length / (length - 1))
    if not math.isfinite(p):
        raise InvalidSequence("power-law tail exponent must be finite")
    return CoefficientSequence(
        kind=KIND_CUSTOM, sigma=1.0, values=vals, tail=tail, tail_exponent=float(p)
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


def _power_tail(seq: CoefficientSequence) -> tuple[int, float, float] | None:
    """(L, a_L, p) with a_m = a_L (m/L)^p for every m >= L, or None for a
    geometric tail (a_m sigma^m constant from some index on)."""
    if seq.kind == KIND_HARMONIC:
        return 1, 1.0, -1.0
    if seq.kind == KIND_POWER_LAW:
        return 1, 1.0, seq.exponent
    if seq.kind == KIND_CUSTOM and seq.tail == TAIL_POWER_LAW:
        return len(seq.values), seq.values[-1], seq.tail_exponent
    return None


def _geometric_partial_sum(seq: CoefficientSequence, m_max: int) -> float:
    """sum_{m <= m_max} a_m sigma^m for a tail whose terms a_m sigma^m are constant."""
    if seq.kind == KIND_GEOMETRIC:
        return float(m_max)  # every term is ratio^m / ratio^m = 1
    vals = np.asarray(seq.values[:m_max])
    m = np.arange(1, vals.size + 1, dtype=float)
    # in logs, so that neither a_m nor sigma^m overflows on its own
    with np.errstate(divide="ignore", over="ignore"):
        head = np.exp(np.log(vals) + m * math.log(seq.sigma))
    return float(np.sum(np.pad(head, (0, m_max - head.size), mode="edge")))


def boundary_sum(seq: CoefficientSequence, tol: float, m_max: int = 256) -> KStatus:
    """Decide convergence of K = sum a_m sigma^m from the shape of the tail.

    The log kind telescopes.  A geometric tail has a_m sigma^m constant and
    diverges.  A power-law tail c m^p diverges for p >= -1; for p < -1 the
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

    if seq.kind == KIND_LOG:
        # telescoping: the tail beyond M is exactly 1/M
        M = min(m_max, 4096)
        partial = float(np.sum(seq.coefficients(M)))
        value = partial + 1.0 / M
        return KStatus(
            status=STATUS_FINITE,
            value=value,
            tail_bound=16 * eps * value,
            partial_sum=partial,
            cutoff=M,
        )

    tail = _power_tail(seq)
    if tail is None:
        return KStatus(
            status=STATUS_DIVERGENT,
            partial_sum=_geometric_partial_sum(seq, m_max),
            cutoff=m_max,
            detail="geometric tail: a_m sigma^m is constant",
        )
    L, a_L, p = tail
    if p >= -1.0:
        return KStatus(
            status=STATUS_DIVERGENT,
            partial_sum=float(np.sum(seq.coefficients(m_max))),
            cutoff=m_max,
            detail="integral comparison: sum of m^p diverges for p >= -1",
        )

    # sigma = 1, so the terms are the coefficients themselves
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
        partial = float(np.sum(seq.coefficients(M)))
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
        partial_sum=float(np.sum(seq.coefficients(m_max))),
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


def q_full(seq: CoefficientSequence, s: float, tol: float = 1e-10) -> float:
    """Full series Q(s), adaptively truncated.

    Terms are summed until the geometric tail majorant
    a_m s^m / (1 - s/sigma) drops below ``tol``.  Requires s < sigma.
    """
    sigma = seq.sigma
    if s < 0:
        raise ValueError("s must be nonnegative")
    if s >= sigma:
        raise DomainError(f"s={s} is outside [0, sigma={sigma})")
    if s == 0.0:
        return 0.0
    shrink = 1.0 - s / sigma
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
    sigma = seq.sigma
    if s >= sigma:
        raise DomainError(f"s={s} is outside [0, sigma={sigma})")
    if s == 0.0:
        return float(seq.coefficients(1)[0])
    r = s / sigma
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
