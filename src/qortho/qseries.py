"""Core q-analysis kernels: q-Pochhammer symbols, q-numbers, basic
hypergeometric series and Jackson's q-exponential.

All kernels are written against a generic real scalar: they work with
Python floats by default, and with ``decimal.Decimal`` values, in the
thread's decimal context, when higher precision is required.  A series
on real floats is summed on their exact Decimals, in a decimal context
of its own (`_escalated`).  A nonterminating sum stops by one rule of
its scalar type, `_stop_target`, and every series or product raises
NonConvergenceError past `_MAX_TERMS` terms or factors.  No function
keeps state; everything here is a pure function of its arguments.
"""

from __future__ import annotations

import cmath
import decimal
import functools
import math
import numbers
import sys
from typing import NamedTuple

__all__ = [
    "QSeriesError",
    "DomainError",
    "NonConvergenceError",
    "SeriesDivergenceError",
    "DenominatorZeroError",
    "TailError",
    "QParams",
    "NeumaierSum",
    "q_pochhammer",
    "q_pochhammer_inf",
    "q_number",
    "phi_2_1",
    "phi_3_2",
    "jackson_Eq",
]

# Tolerance used to decide that a numerator parameter equals q^{-n} exactly
# (terminating series detection).  Absorbs float noise in parameter
# construction only; every terminating use in practice is an exact q^{-n}.
TERMINATION_RTOL = 1e-10
# smallest normal float: a result below it has no relative accuracy to keep
_FLOAT_MIN = sys.float_info.min
# digits the Decimal kernels carry beyond the working precision: at 30 digits
# their unit roundoff is 5e-32
_GUARD_DIGITS = 2
# digits a Decimal pass of a real float sum carries beyond what its
# estimate needs, and the working digits of the Decimal build of a series
# whose float build overflowed, which only steers the sum (its
# termination); the sizes of Decimals are read by `_log10`, in no context
_FIRST_DPS = 25
# consecutive terms below rel_tol that end a nonterminating series sum
_SMALL_RUN = 10
# terms of any series, and factors of any product, past which it raises
# NonConvergenceError rather than silently truncating
_MAX_TERMS = 10000


class QSeriesError(Exception):
    """Base class for q-series evaluation failures."""


class DomainError(QSeriesError, ValueError):
    """A parameter lies outside the admissible domain."""


class NonConvergenceError(QSeriesError, RuntimeError):
    """A series or product failed to converge within _MAX_TERMS."""


class SeriesDivergenceError(QSeriesError, ValueError):
    """Nonterminating basic series with |z| >= 1."""


class DenominatorZeroError(QSeriesError, ZeroDivisionError):
    """A denominator Pochhammer factor vanishes before termination."""


class TailError(QSeriesError, RuntimeError):
    """A truncated-series tail could not be certified below tolerance."""


def _log10(x) -> float:
    """log10 |x| as a float, in no decimal context: math.log10 of a float,
    and of a Decimal its adjusted exponent plus the float log10 of its
    mantissa, so a Decimal of any exponent has one; -inf at a zero
    Decimal.  The steering of every Decimal's size reads it."""
    if not isinstance(x, decimal.Decimal):
        return math.log10(abs(x))
    if not x:
        return -math.inf
    e = x.adjusted()
    return e + math.log10(float(x.copy_abs().scaleb(-e, _EXACT)))


def _float_held(x, quantity: str, point) -> float:
    """The float of the number x, where a float holds it: finite, and
    nonzero unless x is 0.  Otherwise NonConvergenceError naming the
    quantity and the point (q, a, b): a limit of the floats, not of the
    domain, so what reads the quantity cannot be formed.  The one
    float-range rule of the verify store, its sums and records, and the
    operator's matrix."""
    f = float(x)
    if math.isfinite(f) and (f or not x):
        return f
    raise NonConvergenceError(f"{quantity} leaves the float range at {tuple(point)}")


def _power(x, n: int):
    """x ** n in x's scalar type; for a float, the inf of its sign where
    it overflows, which Python raises as OverflowError."""
    try:
        return x**n
    except OverflowError:
        return math.copysign(math.inf, x) ** abs(n)


def _ln(x):
    """Natural log in x's scalar type: a Decimal's in the thread's decimal
    context, else math.log."""
    return x.ln() if isinstance(x, decimal.Decimal) else math.log(x)


def _sqrt(x):
    """Square root in x's scalar type: a Decimal's in the thread's decimal
    context, else x ** 0.5."""
    return x.sqrt() if isinstance(x, decimal.Decimal) else x**0.5


def _exp(x):
    """Exponential in x's scalar type: a Decimal's in the thread's decimal
    context, cmath.exp of a complex, else math.exp; inf where it overflows."""
    if isinstance(x, decimal.Decimal):
        return x.exp()
    try:
        return cmath.exp(x) if isinstance(x, complex) else math.exp(x)
    except OverflowError:
        return math.inf


def _finite(x) -> bool:
    """Whether the scalar x is finite: a Decimal of any size, else a real
    or complex number."""
    return x.is_finite() if isinstance(x, decimal.Decimal) else cmath.isfinite(x)


def _require_finite(*values) -> None:
    """DomainError for an infinite or nan argument of a kernel, which no
    product or series of it can take."""
    if not all(map(_finite, values)):
        raise DomainError(f"arguments must be finite, got {values}")


def _require_index(name: str, n) -> None:
    """DomainError unless n, a degree or index, is a nonnegative
    `numbers.Integral`: a float or Decimal of integral value is not."""
    if not (isinstance(n, numbers.Integral) and n >= 0):
        raise DomainError(f"{name} must be a nonnegative integer, not {n!r}")


def _floats_only(route: str, *values) -> None:
    """DomainError for a Decimal among the arguments of a route whose
    arithmetic mixes them with float constants."""
    if any(isinstance(v, decimal.Decimal) for v in values):
        raise DomainError(f"{route} takes floats, not Decimals")


def _zero(x):
    """The zero of x's scalar type: a Decimal's, else the float 0.0 * x."""
    return x * 0 if isinstance(x, decimal.Decimal) else 0.0 * x


def _context(prec: int, *traps) -> decimal.Context:
    """A decimal context of prec digits, set in every field, so nothing of
    `decimal.DefaultContext` reaches it: round half even, an exponent
    range no entry leaves, and InvalidOperation, DivisionByZero, Overflow
    and the given signals trapped."""
    return decimal.Context(
        prec=prec,
        rounding=decimal.ROUND_HALF_EVEN,
        Emin=decimal.MIN_EMIN,
        Emax=decimal.MAX_EMAX,
        capitals=1,
        clamp=0,
        flags=[],
        traps=[decimal.InvalidOperation, decimal.DivisionByZero, decimal.Overflow, *traps],
    )


# exact products, sums and scalings of Decimals: a result that would need
# rounding raises Inexact.  Division never runs here, since a quotient is
# rarely exact
_EXACT = _context(decimal.MAX_PREC, decimal.Inexact)


@functools.lru_cache(maxsize=None)
def _working_context(dps: int) -> decimal.Context:
    """The decimal context of the kernels of dps working digits: correctly
    rounded arithmetic at dps + _GUARD_DIGITS digits.  Every kernel runs
    its arithmetic in a `decimal.localcontext` of it, or through its
    methods, never in the thread's own context, and leaves that block
    before each yield, since its generators resume from any caller.  The
    one exception is `polynomials._recurrence_entries`, which forms p's
    own scalars in its reader's context: the verify store reads it only
    inside its own `context`."""
    return _context(dps + _GUARD_DIGITS)


def _stop_target(x) -> float:
    """The rel_tol of a nonterminating sum in x's scalar type, the one
    stop rule: 1e-20 for a Decimal, whose kernels carry at least 30
    digits, else 1e-12.  The public kernels read it from their q, the
    verify store from its p's."""
    return 1e-20 if isinstance(x, decimal.Decimal) else 1e-12


class NeumaierSum:
    """Compensated (Neumaier) accumulator.

    Keeps a running error term so that alternating q-series lose only
    O(eps * sum |t_k|) absolutely instead of O(eps * n * max partial sum).
    """

    __slots__ = ("_s", "_c", "max_abs_term")

    def __init__(self, zero=0.0):
        self._s = zero
        self._c = zero
        self.max_abs_term = abs(zero)

    def add(self, term):
        t = self._s + term
        if abs(self._s) >= abs(term):
            self._c += (self._s - t) + term
        else:
            self._c += (term - t) + self._s
        self._s = t
        a = abs(term)
        if a > self.max_abs_term:
            self.max_abs_term = a

    @property
    def value(self):
        return self._s + self._c


class _Validated:
    """Mixin for a named tuple whose ``__new__`` checks its fields: ``_make``,
    and with it ``_replace``, builds through that check as well."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class _QParamsFields(NamedTuple):
    q: float
    a: float
    b: float


class QParams(_Validated, _QParamsFields):
    """Parameter triple (q, a, b) with 0 < q < 1, 0 < a < 1/q, b < 0 finite.

    The lowest weight l is derived from a = q^(2l-1).  The derived
    operator constants alpha, beta1, beta2 of the Jacobi-matrix
    realization are exposed read-only.
    """

    __slots__ = ()

    def __new__(cls, q, a, b):
        if not (0 < q < 1):
            raise DomainError("q must lie strictly in (0, 1)")
        if not (0 < a):
            raise DomainError("a must be positive")
        if not (a * q < 1):
            raise DomainError("a must be smaller than 1/q")
        if not (b < 0):
            raise DomainError("b must be negative")
        if not (b > -math.inf):
            raise DomainError("b must be finite")
        return super().__new__(cls, q, a, b)

    @classmethod
    def from_l(cls, q, l, b):
        """Construct from the lowest weight l > 0 via a = q^(2l-1)."""
        if not (l > 0):
            raise DomainError("l must be positive")
        if not (0 < q < 1):
            raise DomainError("q must lie strictly in (0, 1)")
        return cls(q=q, a=q ** (2 * l - 1), b=b)

    @property
    def l(self):
        """Lowest weight, l = (1 + ln a / ln q) / 2."""
        return (1 + _ln(self.a) / _ln(self.q)) / 2

    @property
    def alpha(self):
        """(-b)^(1/2) q^l (1-q)."""
        return _sqrt(-self.b) * self.q**self.l * (1 - self.q)

    @property
    def beta1(self):
        """b (1+q)."""
        return self.b * (1 + self.q)

    @property
    def beta2(self):
        """b q + q^(2l) (b+1); note q^(2l) = a q."""
        return self.b * self.q + self.a * self.q * (self.b + 1)


def q_pochhammer(a, q, n: int):
    """Finite q-shifted factorial (a;q)_n = prod_{k<n} (1 - a q^k).  At a
    real 0 <= q <= 1 it stops at its first factor that rounds to exactly 1
    (|a q^k| below half the spacing of the scalars below 1, 2^-54 for
    floats and 5 10^-(prec+1) for Decimals rounded to nearest at prec
    digits): |a q^k| never grows and rounding is monotone, so every later
    factor is 1 too, and the result has the bits of the full product.
    1 - z keeps the imaginary part of a complex z, so that factor is not 1."""
    if n < 0:
        raise DomainError("q_pochhammer order must be nonnegative")
    out = 1.0 if isinstance(a, float) and isinstance(q, float) else a * 0 + 1
    stops = not isinstance(q, complex) and 0 <= q <= 1
    aqk = a
    for _ in range(n):
        factor = 1 - aqk
        if stops and factor == 1:
            break
        out = out * factor
        aqk = aqk * q
    return out


def _as_negative_q_power(u, q):
    """Return j if u == q^(-j) for an integer j >= 0 (within tolerance),
    j = round(-ln u / ln q) in u's scalar type; None for any other u, a
    complex or non-finite one among them."""
    if not _finite(u):
        return None
    try:
        if u == 1:
            return 0
        if not (u > 1):
            return None
    except TypeError:
        return None  # complex parameters never terminate
    j = round(-_ln(u) / _ln(q))
    if j >= 0 and abs(u * q**j - 1) <= TERMINATION_RTOL:
        return int(j)
    return None


def q_pochhammer_inf(a, q):
    """Infinite product (a;q)_inf = prod_{k>=0} (1 - a q^k), 0 < q < 1, exact
    to the rounding of a's scalar type: the factors with |a q^k| >= 1/2, at
    most _MAX_TERMS of them, times exp(-sum_{j>=1} x^j / (j (1 - q^j))) for
    the rest, from x = a q^k on (each log(1 - x q^i) expanded, its geometric
    series in i summed; 1 - q^j is q (1 - q^(j-1)) + (1 - q), which does not
    cancel).  The sum stops at its first term at most the unit roundoff
    (2^-53, or 5 10^-prec in the thread's context for a Decimal), which
    bounds the rest as |x| < 1/2.  Exactly 0 at a = q^(-j), j >= 0 an integer.
    """
    _require_finite(a, q)
    if not (0 < q < 1):
        raise DomainError("q must lie strictly in (0, 1)")
    if _as_negative_q_power(a, q) is not None:
        return _zero(a)
    roundoff = decimal.Decimal(5).scaleb(-decimal.getcontext().prec) if isinstance(a, decimal.Decimal) else 2.0**-53
    out, x, k = 1, a, 0
    while not abs(x) < 0.5:
        if k == _MAX_TERMS:
            raise NonConvergenceError(f"(a;q)_inf did not converge within {k} factors (a={a}, q={q})")
        out, x, k = out * (1 - x), x * q, k + 1
    d = step = 1 - q
    power, j, total = x, 1, 0
    while True:
        term = power / (j * d)
        total += term
        if not abs(term) > roundoff:
            return out * _exp(-total) if _finite(out) else out
        power, j, d = power * x, j + 1, q * d + step


def q_number(a, q):
    """[a]_q = (q^(a/2) - q^(-a/2)) / (q^(1/2) - q^(-1/2))."""
    if not (0 < q < 1):
        raise DomainError("q must lie strictly in (0, 1)")
    if isinstance(q, decimal.Decimal):
        a = decimal.Decimal(a)  # exactly, so that a / 2 is a Decimal
    half = _sqrt(q)
    return (q ** (a / 2) - q ** (-a / 2)) / (half - 1 / half)


def _series_sum(step, one, n, rel_tol: float):
    """Compensated sum of term_0 = one and term_(k+1) = step(k, term_k);
    returns (value, max_abs_term).

    A terminating sum (n given) ends with term_n.  Otherwise the sum ends
    once _SMALL_RUN consecutive terms are below rel_tol of the running
    sum, the last of them included; Decimal terms are compared with the
    Decimals of the same floats.  Past _MAX_TERMS terms it raises
    :class:`NonConvergenceError`.  Its callers are `_phi_series`, whose
    step is the one term ratio of every basic hypergeometric series, and
    `jackson_Eq`.
    """
    acc = NeumaierSum(0 * one)
    floor = rel_tol * 1e-300
    if isinstance(one, decimal.Decimal):
        rel_tol, floor = decimal.Decimal(rel_tol), decimal.Decimal(floor)
    term = one
    run = 0
    k = 0
    while True:
        acc.add(term)
        if k == n or run >= _SMALL_RUN:
            return acc.value, acc.max_abs_term
        if k >= _MAX_TERMS:
            raise NonConvergenceError(f"basic series did not converge within {_MAX_TERMS} terms")
        term = step(k, term)
        k += 1
        if n is None:
            run = run + 1 if abs(term) <= rel_tol * abs(acc.value) + floor else 0


def _escalated(sum_fn, args, rel_tol):
    """sum_fn(*args)'s value, summed in Decimals when every argument is a
    real float (or int).

    sum_fn returns (value, max_abs_term).  A call with a Decimal or complex
    argument is returned as computed: Decimal arguments already run at the
    caller's working precision, and complex sums are not guarded.  A real
    call never sums in floats: each pass runs on the exact Decimals of the
    arguments, so no float rounding of a term or factor reaches the
    result.  A pass of dps digits runs in `_working_context(dps)`, at
    _GUARD_DIGITS more, and has absolute error about
    10^(log10 max|term| - dps + 2); the loop stops once that is below
    rel_tol |value|, or below rel_tol times the smallest normal float,
    which a float result cannot resolve anyway (exact zeros).  The needed
    precision depends on the (unknown) true magnitude of the result, so
    each pass re-targets from the latest value estimate and max|term|,
    _FIRST_DPS digits above what it needs, and at least doubles the digits
    of the pass before.  The test compares the float logs (`_log10`) of
    the two sides, so no Decimal log or power runs at the pass's own
    digits.
    """
    if not all(isinstance(v, (float, int)) for v in args):
        return sum_fn(*args)[0]
    log10_max, est = 0.0, 1.0
    log10_tol, log10_floor = math.log10(rel_tol), math.log10(_FLOAT_MIN)
    dps = 0
    while True:
        dps = max(2 * dps, _FIRST_DPS, int(log10_max - math.log10(rel_tol * max(est, _FLOAT_MIN)) + _FIRST_DPS))
        with decimal.localcontext(_working_context(dps)):
            value_d, max_abs_d = sum_fn(*map(decimal.Decimal, args))
        log10_max = _log10(max_abs_d) if max_abs_d else 0.0
        if log10_max - dps + 2 <= log10_tol + max(_log10(value_d), log10_floor):
            return float(value_d)
        est = min(float(abs(value_d)), sys.float_info.max)


def _phi_series(build, base, rel_tol: float):
    """Sum the basic hypergeometric series with r = s+1 normalization

        sum_k (n_1,...,n_r; q)_k / ((d_1,...,d_s; q)_k (q;q)_k) z^k

    of the parameters (numerators, denominators, q, z) = build(*base).
    Every term is the one before times
    z prod (1 - n_i q^k) / prod (1 - d_j q^k) / (1 - q^(k+1)).  A
    numerator q^(-n) ends the sum at term n; nonterminating series
    require |z| < 1 and stop at rel_tol (`_series_sum`), which also bounds
    the rounding of a real float sum (`_escalated`).  Callers pass the
    scalars they were given as base and form every derived parameter
    (q^-n, a q, ...) in build: a real float sum runs on build of the exact
    Decimals of base, which never sees a float-rounded one.  The float
    build only decides termination and divergence; one that overflows
    (q^-n at tiny q) is read on those Decimals too.
    A non-finite scalar in base raises DomainError.
    """
    _require_finite(*base)
    try:
        numerators, denominators, q, z = build(*base)
    except OverflowError:
        with decimal.localcontext(_working_context(_FIRST_DPS)):
            numerators, denominators, q, z = build(*map(decimal.Decimal, base))
    if not (0 < q < 1):
        raise DomainError("q must lie strictly in (0, 1)")

    terminate_at = None
    for u in numerators:
        j = _as_negative_q_power(u, q)
        if j is not None and (terminate_at is None or j < terminate_at):
            terminate_at = j

    # a denominator parameter q^{-j} zeroes the term denominators at k = j+1
    for d in denominators:
        j = _as_negative_q_power(d, q)
        if j is not None and (terminate_at is None or j < terminate_at):
            raise DenominatorZeroError(
                f"denominator parameter {d} equals q^-{j}; factor vanishes before termination"
            )

    if terminate_at is None and not abs(z) < 1:
        raise SeriesDivergenceError(
            f"nonterminating basic series needs |z| < 1, got |z| = {abs(z)}"
        )

    def _sum(*scalars):
        nums, dens, qq, zz = build(*scalars)
        qk = 1 + zz * 0

        def step(k, term):
            nonlocal qk
            ratio = zz
            for u in nums:
                ratio = ratio * (1 - u * qk)
            qk1 = qk * qq
            for d in dens:
                ratio = ratio / (1 - d * qk)
            qk = qk1
            return term * ratio / (1 - qk1)

        return _series_sum(step, 1 + zz * 0, terminate_at, rel_tol)

    return _escalated(_sum, base, rel_tol)


def phi_2_1(a, b, c, q, z):
    """2phi1(a, b; c; q, z), to `_stop_target(q)`."""
    return _phi_series(lambda a, b, c, q, z: ((a, b), (c,), q, z), (a, b, c, q, z), _stop_target(q))


def phi_3_2(a1, a2, a3, b1, b2, q, z):
    """3phi2(a1, a2, a3; b1, b2; q, z), to `_stop_target(q)`."""
    return _phi_series(
        lambda a1, a2, a3, b1, b2, q, z: ((a1, a2, a3), (b1, b2), q, z), (a1, a2, a3, b1, b2, q, z), _stop_target(q)
    )


def jackson_Eq(z, q):
    """Jackson's q-exponential E_q(z) = sum_n q^(n(n-1)/2) z^n / (q;q)_n.

    Equals the product (-z;q)_inf, hence vanishes at z = -q^(-j).  Near
    those zeros the alternating sum cancels almost completely; real float
    inputs are summed in Decimals at the precision the cancellation needs
    (`_escalated`).  The sum stops at `_stop_target(q)`.
    """
    _require_finite(z, q)
    if not (0 < q < 1):
        raise DomainError("q must lie strictly in (0, 1)")
    j = _as_negative_q_power(-z, q)
    if j is not None:
        return _zero(z)
    rel_tol = _stop_target(q)

    def _sum(zz, qq):
        qn = 1 + zz * 0  # q^n

        def step(n, term):
            nonlocal qn
            term = term * qn * zz / (1 - qn * qq)
            qn = qn * qq
            return term

        return _series_sum(step, 1 + zz * 0, None, rel_tol)

    return _escalated(_sum, (z, q), rel_tol)
