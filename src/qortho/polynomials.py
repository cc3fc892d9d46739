"""Big q-Laguerre and q-Meixner polynomial families.

Evaluation routes:

* terminating basic-hypergeometric series (the defining sums), summed
  by the series kernel of `qortho.qseries`, with automatic precision
  escalation when the alternating sum cancels past what 64-bit floats
  can resolve;
* upward three-term recurrence, absolutely stable on the arguments the
  identities use;
* the duality with the q-Meixner polynomials for whole sequences at
  spectral arguments a q^(j+1), b q^(j+1), where the polynomial values
  decay like q^(m^2/2) and forward recurrences lose all relative accuracy
  past degree j: each value is a terminating q-Meixner sum over a
  q-Pochhammer symbol;
* coefficient extraction from the closed generating function, a route
  independent of the recurrence and the duality.
"""

from __future__ import annotations

import contextlib
import decimal
import functools
import itertools
import math
import operator
from typing import NamedTuple, Optional

from qortho.qseries import (
    DomainError,
    NeumaierSum,
    QParams,
    TailError,
    Truncation,
    _as_negative_q_power,
    _context,
    _phi_series,
    _working_context,
    phi_2_1,
    q_pochhammer,
    q_pochhammer_inf,
)

__all__ = [
    "big_q_laguerre",
    "big_q_laguerre_phi21",
    "big_q_laguerre_recurrence",
    "big_q_laguerre_generating",
    "spectral_sequence",
    "match_spectral_point",
    "q_meixner",
    "dual_f",
    "dual_g",
    "generating_series",
    "generating_closed",
    "GeneratingDiagnostics",
    "q_inverse_meixner_relation",
    "classical_laguerre",
]

SPECTRAL_MATCH_RTOL = 1e-10
# working precision of the duality sequences and coefficient tables of float parameters
_WORKING_DPS = 30
# working precision of Decimal parameters, those of `verify --precision extended`
EXTENDED_DPS = 50


# exact products and sums of Decimals: a result that would need rounding
# raises Inexact.  Division never runs here, since a quotient is rarely exact
_EXACT = _context(decimal.MAX_PREC, decimal.Inexact)


def _context_of(p: QParams) -> decimal.Context:
    """The decimal context of p's Decimal tables, entries and sums:
    `_working_context` of _WORKING_DPS digits for float p and of
    EXTENDED_DPS for Decimal p, at `qseries._GUARD_DIGITS` more."""
    return _working_context(EXTENDED_DPS if isinstance(p.q, decimal.Decimal) else _WORKING_DPS)


def _exact_dot(xs, ys) -> decimal.Decimal:
    """sum_k xs[k] ys[k] of Decimals, every product and sum exact."""
    with decimal.localcontext(_EXACT):
        return sum(map(operator.mul, xs, ys))


# ---------------------------------------------------------------------------
# big q-Laguerre: series definitions


def _capped(t: Truncation) -> Truncation:
    """t with rel_tol at most 1e-13: the accuracy every polynomial series
    route keeps, whatever the caller's truncation asks."""
    return t._replace(rel_tol=min(t.rel_tol, 1e-13))


def _big_q_laguerre_params(n: int):
    """The `_phi_series` builder of P_n(x; a, b; q) on (x, a, b, q):
    3phi2(q^-n, 0, x; aq, bq; q, q)."""
    return lambda x, a, b, q: ((q**-n, 0 * q, x), (a * q, b * q), q, q)


def big_q_laguerre(n: int, x, p: QParams, t: Truncation = Truncation()) -> float:
    """P_n(x; a, b; q) via the terminating 3phi2 definition."""
    if n < 0:
        raise DomainError("degree must be nonnegative")
    return _phi_series(_big_q_laguerre_params(n), (x, p.a, p.b, p.q), _capped(t))


def big_q_laguerre_phi21(n: int, x, p: QParams, t: Truncation = Truncation()) -> float:
    """P_n via its 2phi1 form, (q^-n/b; q)_n^-1 2phi1(q^-n, aq/x; aq; q, x/b).

    Cross-check companion to :func:`big_q_laguerre`; requires x != 0.
    """
    if x == 0:
        raise DomainError("the 2phi1 form needs x != 0")
    value = _phi_series(
        lambda x, a, b, q: ((q**-n, a * q / x), (a * q,), q, x / b), (x, p.a, p.b, p.q), _capped(t)
    )
    return value / q_pochhammer(p.q**-n / p.b, p.q, n)


# ---------------------------------------------------------------------------
# recurrence route


def _recurrence_d(n, a, b, q):
    """Diagonal coefficient d_n = -ab q^(2n+1)(1+q) + q^(n+1)(a+ab+b)."""
    return -a * b * q ** (2 * n + 1) * (1 + q) + q ** (n + 1) * (a + a * b + b)


class _RecurrenceTable:
    """The coefficients of the three-term recurrence at one parameter set,

        A_n P_{n+1} = (x - d_n) P_n + C_n P_{n-1},
        A_n = (1-aq^(n+1))(1-bq^(n+1)),  C_n = ab q^(n+1)(1-q^n),

    in the scalars of p, extended on demand.  They do not depend on x, so
    one table serves every forward sweep of the set.  Each entry is the
    expression the sweeps formed inline, so reading it changes no bit.
    Decimal entries are built in the decimal context given, or without
    one in the thread's context of each extension."""

    def __init__(self, p: QParams, context: Optional[decimal.Context] = None):
        self.p = p
        self.A: list = []
        self.C: list = []
        self.d: list = []
        self.context = context
        self._scope = functools.partial(decimal.localcontext, context) if context else contextlib.nullcontext

    def upto(self, n: int) -> tuple:
        """The lists (A, C, d), with entries 0..n at least."""
        q, a, b = self.p.q, self.p.a, self.p.b
        with self._scope():
            for k in range(len(self.A), n + 1):
                self.A.append((1 - a * q ** (k + 1)) * (1 - b * q ** (k + 1)))
                self.C.append(a * b * q ** (k + 1) * (1 - q**k))
                self.d.append(_recurrence_d(k, a, b, q))
        return self.A, self.C, self.d


def _working_coefficients(p: QParams) -> _RecurrenceTable:
    """The recurrence table of p in Decimals in `_context_of(p)`, the
    scalars of the forward coefficient rows; its parameters are p's,
    exactly."""
    context = _context_of(p)
    with decimal.localcontext(context):
        return _RecurrenceTable(QParams(*map(decimal.Decimal, p)), context)


def big_q_laguerre_recurrence(n_max: int, x, p: QParams, *, coeffs: Optional[_RecurrenceTable] = None) -> list:
    """P_0(x), ..., P_{n_max}(x) by upward three-term recurrence.

    (1-aq^(n+1))(1-bq^(n+1)) P_{n+1} = (x - d_n) P_n + ab q^(n+1)(1-q^n) P_{n-1},
    seeded with P_0 = 1 (the n = 0 relation has no P_{-1} term).  The
    coefficients come from `coeffs`, a table of p shared with other
    sweeps, or from a table built for this call.
    """
    if coeffs is None:
        coeffs = _RecurrenceTable(p)
    elif coeffs.p != p:
        raise ValueError("recurrence table built for other parameters")
    q = p.q
    out = [1 + q * 0]
    if n_max == 0:
        return out
    A, C, d = coeffs.upto(n_max - 1)
    prev = 0 * q
    cur = out[0]
    for n in range(n_max):
        nxt = ((x - d[n]) * cur + C[n] * prev) / A[n]
        out.append(nxt)
        prev, cur = cur, nxt
    return out


# ---------------------------------------------------------------------------
# spectral arguments: matching and the duality sequences


def match_spectral_point(x, p: QParams) -> Optional[tuple]:
    """Identify x with a q^(j+1) or b q^(j+1) within relative tolerance.

    Returns ("a", j) or ("b", j), or None when x is not a spectral point.
    x and the tolerance are compared in the scalars of p, floats or Decimals.
    """
    q = p.q
    scalar = type(q)
    x, rtol = scalar(x), scalar(SPECTRAL_MATCH_RTOL)
    if x > 0:
        j = round(math.log(x / p.a) / math.log(q)) - 1
        if j >= 0 and abs(p.a * q ** (j + 1) - x) <= rtol * abs(x):
            return ("a", j)
    elif x < 0:
        j = round(math.log(x / p.b) / math.log(q)) - 1
        if j >= 0 and abs(p.b * q ** (j + 1) - x) <= rtol * abs(x):
            return ("b", j)
    return None


def spectral_sequence(p: QParams, branch: str, j: int, m_max: int) -> list:
    """P_0(lam), ..., P_{m_max}(lam) at lam = a q^(j+1) (branch "a") or
    b q^(j+1) (branch "b"), as Decimals in `_context_of(p)`.

    By the duality with the q-Meixner polynomials,

        P_m(first q^(j+1)) = M_j(q^-m; first, -second/first; q) / (q^-m/second; q)_m,

    with (first, second) = (a, b) on branch "a" and (b, a) on branch "b".
    The numerator is the terminating sum over k <= min(j, m) of
    c_k (q^-m; q)_k, c_k = (q^-j; q)_k z^k / ((first q; q)_k (q; q)_k) and
    z = q^(j+1) first/second.  The c_k do not depend on m; q^-m,
    (q^-m; q)_k and the denominator are carried from m to m + 1, by
    (q^-(m+1); q)_(k+1) = (1 - q^-(m+1)) (q^-m; q)_k and
    (q^-(m+1)/second; q)_(m+1) = (1 - q^-(m+1)/second) (q^-m/second; q)_m.
    An entry does not depend on m_max.
    """
    if branch not in ("a", "b"):
        raise DomainError("branch must be 'a' or 'b'")
    if j < 0:
        raise DomainError("spectral index must be nonnegative")
    if m_max < 0:
        raise DomainError("cut-off degree must be nonnegative")
    return list(itertools.islice(_duality_entries(p, branch, j), m_max + 1))


def _duality_entries(p: QParams, branch: str, j: int):
    """P_0(lam), P_1(lam), ... without end, by the method of
    `spectral_sequence`, one Decimal per next() in `_context_of(p)`; the
    c_k are built as the growing m first needs them, and each entry is the
    exact sum of the products c_k (q^-m; q)_k, divided once.  A caller
    that keeps the iterator extends its sequence from where it stopped."""
    context = _context_of(p)
    q, a, b = map(decimal.Decimal, p)
    first, second = (a, b) if branch == "a" else (b, a)
    with decimal.localcontext(context):
        z = q ** (j + 1) * first / second
    qm = decimal.Decimal(1)  # q^-m
    c = [qm]
    poch = [qm]  # (q^-m; q)_k, k = 0..min(m, j)
    denom = qm  # (q^-m/second; q)_m
    yield qm
    for m in itertools.count(1):
        with decimal.localcontext(context):
            if m <= j:
                k = m - 1
                c.append(c[k] * (1 - q ** (k - j)) * z / ((1 - first * q ** (k + 1)) * (1 - q ** (k + 1))))
            qm = qm / q
            shift = 1 - qm
            poch = [poch[0]] + [shift * v for v in poch[: min(j, m)]]
            denom *= 1 - qm / second
            value = _exact_dot(c, poch) / denom
        yield value


# ---------------------------------------------------------------------------
# q-Meixner family and duality


def q_meixner(n: int, m: int, bparam, c, q, t: Truncation = Truncation()) -> float:
    """M_n(q^-m; bparam, c; q) = 2phi1(q^-n, q^-m; bparam q; q, -q^(n+1)/c).

    Terminating at min(n, m); bparam may be negative.
    """
    if n < 0 or m < 0:
        raise DomainError("q-Meixner indices must be nonnegative")
    if not (0 < q < 1):
        raise DomainError("q must lie strictly in (0, 1)")
    if c == 0:
        raise DomainError("c must be nonzero")
    jz = _as_negative_q_power(bparam * q, q)
    if jz is not None and jz < min(n, m):
        raise DomainError(
            f"denominator parameter bparam*q = q^-{jz} vanishes before termination"
        )

    return _phi_series(
        lambda b, c, q: ((q**-n, q**-m), (b * q,), q, -(q ** (n + 1)) / c), (bparam, c, q), _capped(t)
    )


def dual_f(n: int, m: int, p: QParams) -> float:
    """f_n(q^-m; a, b | q) = P_m evaluated at the spectral point a q^(n+1),
    the float of entry m of `spectral_sequence`'s duality sequence."""
    return _dual_value(p, "a", n, m)


def dual_g(n: int, m: int, p: QParams) -> float:
    """g_n(q^-m; a, b | q) = P_m evaluated at the spectral point b q^(n+1)."""
    return _dual_value(p, "b", n, m)


def _dual_value(p: QParams, branch: str, j: int, m: int) -> float:
    if j < 0 or m < 0:
        raise DomainError("spectral index and degree must be nonnegative")
    return float(next(itertools.islice(_duality_entries(p, branch, j), m, None)))


# ---------------------------------------------------------------------------
# generating function


class GeneratingDiagnostics(NamedTuple):
    value: float
    terms_used: int
    tail_estimate: float


def _generating_coefficient_ratio(n, a, b, q):
    """Ratio of consecutive series weights (aq,bq;q)_n q^(-n(n-1)/2)/(q;q)_n."""
    return (1 - a * q ** (n + 1)) * (1 - b * q ** (n + 1)) * q ** (-n) / (1 - q ** (n + 1))


def generating_series(
    x,
    tvar,
    p: QParams,
    n_max: int,
    t: Truncation = Truncation(),
    *,
    strict: bool = False,
    diagnostics: bool = False,
):
    """Partial sum of sum_n (aq,bq;q)_n q^(-n(n-1)/2)/(q;q)_n P_n(x) t^n.

    The tail is monitored through the last terms; in strict mode an
    uncertified tail raises :class:`TailError`.  The series converges only
    for |t| inside a radius that shrinks with the depth of the spectral
    argument; elsewhere the partial sums plateau and the tail estimate
    reports that honestly.
    """
    a, b, q = p.a, p.b, p.q
    hit = match_spectral_point(x, p) if isinstance(x, float) else None
    overflowed = False
    if hit is not None:
        # the weights grow like q^(-n(n-1)/2) while P_n shrinks faster;
        # form each term from the Decimal duality entries, in whose exponent
        # range neither factor over/underflows
        seq = itertools.islice(_duality_entries(p, *hit), n_max + 1)
        terms = []
        with decimal.localcontext(_context_of(p)):
            qd, ad, bd, td = map(decimal.Decimal, (q, a, b, tvar))
            coef = tpow = decimal.Decimal(1)
            for n, value in enumerate(seq):
                terms.append(float(coef * value * tpow))
                coef *= _generating_coefficient_ratio(n, ad, bd, qd)
                tpow *= td
    else:
        pvals = big_q_laguerre_recurrence(n_max, x, p)
        terms = []
        coef = 1.0
        tpow = 1.0
        for n in range(n_max + 1):
            term = coef * pvals[n] * tpow
            if not math.isfinite(term) or abs(term) > 1e280:
                overflowed = True  # manifestly divergent partial sums
                break
            terms.append(term)
            coef *= _generating_coefficient_ratio(n, a, b, q)
            tpow *= tvar

    acc = NeumaierSum()
    for term in terms:
        acc.add(term)
    value = acc.value

    tail = math.inf
    if tvar == 0:
        tail = 0.0
    elif not overflowed and len(terms) >= 3:
        t1, t2 = abs(terms[-2]), abs(terms[-1])
        if t2 == 0.0:
            tail = 0.0
        elif t2 < t1:
            r = t2 / t1
            tail = t2 * r / (1 - r)
        else:
            tail = t2  # not decaying; tail cannot be certified
    if strict and not (tail <= t.rel_tol * (1 + abs(value))):
        raise TailError(
            f"generating-series tail {float(tail):.3e} not negligible at n_max={n_max}"
        )
    if diagnostics:
        return GeneratingDiagnostics(value, len(terms), tail)
    return value


def generating_closed(x, tvar, p: QParams, t: Truncation = Truncation()) -> float:
    """Closed form of the generating function:

        (-abq^2 t;q)_inf / (-bqt;q)_inf * 2phi1(aq/x, 0; -1/(bt); q, x/b).

    The factor t inside the numerator Pochhammer comes straight out of
    the q-binomial theorem and is required for the t -> 0 limit to be 1.
    t = 0 or x = 0 are routed through the series form.

    The (a, b) roles in the formula are interchangeable (the series
    weights are symmetric); at a spectral argument the arrangement that
    makes the 2phi1 terminate is used, which is the one the term-by-term
    resummation actually proves there.
    """
    a, b, q = p.a, p.b, p.q
    if tvar == 0:
        return 1.0
    if x == 0:
        return generating_series(x, tvar, p, n_max=64, t=t, strict=True)
    hit = match_spectral_point(x, p) if isinstance(x, float) else None
    if hit is not None and hit[0] == "b":
        a, b = b, a
    pref = q_pochhammer_inf(-a * b * q * q * tvar, q, t) / q_pochhammer_inf(-b * q * tvar, q, t)
    return pref * phi_2_1(a * q / x, 0.0, -1.0 / (b * tvar), q, x / b, t)


def _generating_closed_complex(x: float, tc: complex, p: QParams, branch: str, j: int) -> complex:
    """Closed generating function at complex t, in the form terminating at
    the given spectral argument (parameter roles swapped on the b branch)."""
    a, b, q = p.a, p.b, p.q
    if branch == "b":
        a, b = b, a
    t = Truncation(rel_tol=1e-16, max_terms=4000, small_run=6)
    pref = q_pochhammer_inf(-a * b * q * q * tc, q, t) / q_pochhammer_inf(-b * q * tc, q, t)
    return pref * phi_2_1(q**-j, 0.0, -1 / (b * tc), q, x / b, t)


# pi to 50 digits
_PI = decimal.Decimal("3.1415926535897932384626433832795028841971693993751")


@functools.lru_cache(maxsize=None)
def _roots_of_unity(m: int) -> tuple:
    """e^(2 pi i k / m), k = 0..m-1, each part the float nearest its exact
    value: i^s (cos x + i sin x) for s, r = divmod(4k, m) and x = pi r / (2m)
    in the first quadrant, with the Taylor sums of cos x and sin x in
    40-digit Decimals, so the multiples of pi/2 stay exact."""
    roots = []
    with decimal.localcontext(_working_context(40)):
        for k in range(m):
            s, r = divmod(4 * k, m)
            x = _PI * r / (2 * m)
            parts = [decimal.Decimal(0), decimal.Decimal(0)]  # cos x, sin x
            term, i = decimal.Decimal(1), 0
            while term > decimal.Decimal("1e-45"):
                parts[i % 2] += -term if i % 4 >= 2 else term
                i += 1
                term = term * x / i
            root = complex(*map(float, parts))
            for _ in range(s):  # times i, exactly: 0.0 - v keeps an exact zero positive
                root = complex(0.0 - root.imag, root.real)
            roots.append(root)
    return tuple(roots)


def big_q_laguerre_generating(n: int, x: float, p: QParams) -> float:
    """P_n(x) extracted as a Taylor coefficient of the closed generating
    function: a Cauchy sum over 256 points of a circle inside the first
    pole.  The route is independent of both the recurrence and the
    duality; x must be a spectral argument a q^(j+1) or b q^(j+1), where
    the closed form terminates, and p must be floats."""
    hit = match_spectral_point(x, p)
    if hit is None:
        raise DomainError(
            "generating-function extraction needs a spectral argument a q^(j+1) or b q^(j+1)"
        )
    branch, j = hit
    q = p.q
    radius = q ** (j - 1) / (abs(p.b) if branch == "a" else p.a)
    rho = 0.75 * radius
    m_samples = 256
    # c_n rho^n = (1/M) sum_k G(rho w_k) w_k^(-n), a real number, with
    # w_k = e^(2 pi i k / M) and w_k^(-n) = w_(-nk mod M)
    roots = _roots_of_unity(m_samples)
    total = math.fsum(
        (_generating_closed_complex(x, rho * w, p, branch, j) * roots[-n * k % m_samples]).real
        for k, w in enumerate(roots)
    )
    gcoef = total / m_samples / rho**n
    weight = (
        q_pochhammer(p.a * q, q, n)
        * q_pochhammer(p.b * q, q, n)
        * q ** (-n * (n - 1) / 2.0)
        / q_pochhammer(q, q, n)
    )
    return gcoef / weight


# ---------------------------------------------------------------------------
# base inversion q -> 1/q


def q_inverse_meixner_relation(n: int, x, bparam, c, q, t: Truncation = Truncation()):
    """Both sides of M_n(x; b, c; 1/q) = (-q^-n/c; q)_n P_n(qx/b; 1/b, -c; q).

    The left side is the terminating sum rewritten factor-by-factor into
    base q < 1 (summing at base 1/q > 1 overflows):

        M_n(x; b, c; 1/q) = sum_k (q^-n;q)_k (1/x;q)_k / ((q/b;q)_k (q;q)_k)
                            (-qx/(bc))^k.

    The right side's prefactor is forced by the x = 1 normalization
    M_n(1; b, c; 1/q) = 1 together with P_n's value at the argument q/b;
    an exact rational expansion at n = 2 confirms it.

    Returns (lhs, rhs).
    """
    if not (0 < q < 1):
        raise DomainError("q must lie strictly in (0, 1)")
    if bparam == 0 or c == 0 or x == 0:
        raise DomainError("x, bparam and c must be nonzero")
    jz = _as_negative_q_power(q / bparam, q)
    if jz is not None and jz < n:
        raise DomainError("denominator parameter q/b vanishes before termination")

    t, base = _capped(t), (x, bparam, c, q)
    lhs = _phi_series(lambda x, b, c, q: ((q**-n, 1 / x), (q / b,), q, -q * x / (b * c)), base, t)
    p_n = _big_q_laguerre_params(n)
    rhs = _phi_series(lambda x, b, c, q: p_n(q * x / b, 1 / b, -c, q), base, t)
    return lhs, q_pochhammer(-(q**-n) / c, q, n) * rhs


# ---------------------------------------------------------------------------
# classical Laguerre polynomials


def classical_laguerre(n: int, alpha, x) -> float:
    """L_n^(alpha)(x) by the standard three-term recurrence."""
    if n < 0:
        raise DomainError("degree must be nonnegative")
    prev = 1.0 + x * 0
    if n == 0:
        return prev
    cur = 1 + alpha - x
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 1 + alpha - x) * cur - (k + alpha) * prev) / (k + 1)
    return cur
