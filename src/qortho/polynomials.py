"""Big q-Laguerre and q-Meixner polynomial families.

Evaluation routes:

* terminating basic-hypergeometric series (the defining sums), with
  automatic precision escalation when the alternating sum cancels past
  what 64-bit floats can resolve;
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

import cmath
import functools
import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional, Union

import mpmath

from qortho.qseries import (
    DomainError,
    NeumaierSum,
    QParams,
    TailError,
    Truncation,
    _as_negative_q_power,
    phi_2_1,
    q_pochhammer,
    q_pochhammer_inf,
)

__all__ = [
    "Family",
    "Method",
    "PolyEval",
    "poly_eval",
    "big_q_laguerre",
    "big_q_laguerre_phi21",
    "big_q_laguerre_recurrence",
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
# working precision of the duality sequences and the coefficient tables
_WORKING_DPS = 30


# ---------------------------------------------------------------------------
# terminating series kernel


def _terminating_sum(n, step, one):
    """Compensated sum of term_0 = one and term_(k+1) = step(k, term_k),
    k < n; returns (value, max_abs_term).

    Each caller's step writes out the next term in full, left to right
    (term * factor * ... / (...)); regrouping the factors into one ratio
    moves the last bits of the records.
    """
    acc = NeumaierSum(0 * one)
    term = one
    for k in range(n):
        acc.add(term)
        term = step(k, term)
    acc.add(term)
    return acc.value, acc.max_abs_term


def _escalated(sum_fn, args, rel_tol):
    """sum_fn(*args)'s value, re-run in mpmath when float rounding is above
    rel_tol relative accuracy.

    sum_fn returns (value, max_abs_term).  A call with an mpmath argument
    already runs at the caller's working precision and is returned as
    computed; otherwise the needed precision depends on the (unknown) true
    magnitude of the result, so the working precision is raised
    iteratively: each pass re-targets from the latest value estimate.
    Capped at dps 400, past which the result is accepted with its
    (astronomically small) absolute error--this happens only for results
    that are exact zeros.
    """
    value, max_abs = sum_fn(*args)
    if any(isinstance(v, (mpmath.mpf, mpmath.mpc)) for v in args):
        return value
    noise = 1e-16 * max_abs * 8
    if noise <= 0.05 * rel_tol * max(abs(value), 1e-30):
        return value
    log10_max = math.log10(max(max_abs, 1.0))
    est = abs(value)
    value_mp = None
    for _ in range(4):
        dps = max(25, int(log10_max - math.log10(rel_tol * max(est, 1e-290)) + 25))
        dps = min(dps, 400)
        with mpmath.workdps(dps):
            mp_args = [mpmath.mpf(v) if isinstance(v, float) else v for v in args]
            value_mp, max_abs_mp = sum_fn(*mp_args)
            log10_max = float(mpmath.log10(max_abs_mp)) if max_abs_mp > 0 else 0.0
            achieved = mpmath.mpf(10) ** (log10_max - dps + 2)
            if dps >= 400 or achieved <= rel_tol * max(abs(value_mp), mpmath.mpf("1e-290")):
                return float(value_mp)
            est = float(abs(value_mp)) or 1e-290
    return float(value_mp)


# ---------------------------------------------------------------------------
# big q-Laguerre: series definitions


def _bigql_series_sum(n, x, a, b, q):
    """Terminating sum for 3phi2(q^-n, 0, x; aq, bq; q, q)."""
    return _terminating_sum(
        n,
        lambda k, term: (
            term
            * (1 - q ** (k - n))
            * (1 - x * q**k)
            * q
            / ((1 - a * q ** (k + 1)) * (1 - b * q ** (k + 1)) * (1 - q ** (k + 1)))
        ),
        1 + q * 0,
    )


def _big_q_laguerre_raw(n, x, a, b, q, rel_tol=1e-13):
    if n < 0:
        raise DomainError("degree must be nonnegative")
    return _escalated(functools.partial(_bigql_series_sum, n), (x, a, b, q), rel_tol)


def big_q_laguerre(n: int, x, p: QParams, t: Truncation = Truncation()) -> float:
    """P_n(x; a, b; q) via the terminating 3phi2 definition."""
    return _big_q_laguerre_raw(n, x, p.a, p.b, p.q, rel_tol=min(t.rel_tol, 1e-13))


def big_q_laguerre_phi21(n: int, x, p: QParams, t: Truncation = Truncation()) -> float:
    """P_n via its 2phi1 form, (q^-n/b; q)_n^-1 2phi1(q^-n, aq/x; aq; q, x/b).

    Cross-check companion to :func:`big_q_laguerre`; requires x != 0.
    """
    if x == 0:
        raise DomainError("the 2phi1 form needs x != 0")
    a, b, q = p.a, p.b, p.q

    def _sum(xx, aa, bb, qq):
        z = xx / bb
        value, max_abs = _terminating_sum(
            n,
            lambda k, term: (
                term
                * (1 - qq ** (k - n))
                * (1 - aa * qq / xx * qq**k)
                * z
                / ((1 - aa * qq ** (k + 1)) * (1 - qq ** (k + 1)))
            ),
            1 + qq * 0,
        )
        pref = 1 + qq * 0
        for k in range(n):
            pref = pref * (1 - qq ** (k - n) / bb)
        return value / pref, max_abs * abs(1 / pref)

    return _escalated(_sum, (x, a, b, q), min(t.rel_tol, 1e-13))


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
    mpmath entries are built at the precision in effect when the table
    was made."""

    def __init__(self, p: QParams):
        self.p = p
        self.A: list = []
        self.C: list = []
        self.d: list = []
        self.prec = mpmath.mp.prec

    def upto(self, n: int) -> tuple:
        """The lists (A, C, d), with entries 0..n at least."""
        q, a, b = self.p.q, self.p.a, self.p.b
        with mpmath.workprec(self.prec):
            for k in range(len(self.A), n + 1):
                self.A.append((1 - a * q ** (k + 1)) * (1 - b * q ** (k + 1)))
                self.C.append(a * b * q ** (k + 1) * (1 - q**k))
                self.d.append(_recurrence_d(k, a, b, q))
        return self.A, self.C, self.d


def _working_coefficients(p: QParams, dps: int) -> _RecurrenceTable:
    """The recurrence table of p rounded to dps digits, the scalars of the
    forward coefficient rows."""
    with mpmath.workdps(dps):
        return _RecurrenceTable(QParams(q=mpmath.mpf(p.q), a=mpmath.mpf(p.a), b=mpmath.mpf(p.b)))


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


def match_spectral_point(x, p: QParams, j_max: int = 500) -> Optional[tuple]:
    """Identify x with a q^(j+1) or b q^(j+1) within relative tolerance.

    Returns ("a", j) or ("b", j), or None when x is not a spectral point.
    """
    q = p.q
    if x > 0:
        j = round(math.log(x / p.a) / math.log(q)) - 1
        if 0 <= j <= j_max and abs(p.a * q ** (j + 1) - x) <= SPECTRAL_MATCH_RTOL * abs(x):
            return ("a", j)
    elif x < 0:
        j = round(math.log(x / p.b) / math.log(q)) - 1
        if 0 <= j <= j_max and abs(p.b * q ** (j + 1) - x) <= SPECTRAL_MATCH_RTOL * abs(x):
            return ("b", j)
    return None


def spectral_sequence(p: QParams, branch: str, j: int, m_max: int) -> list:
    """P_0(lam), ..., P_{m_max}(lam) at lam = a q^(j+1) (branch "a") or
    b q^(j+1) (branch "b"), as mpmath floats at _WORKING_DPS digits.

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
    return list(itertools.islice(_duality_entries(p, branch, j, _WORKING_DPS), m_max + 1))


def _duality_entries(p: QParams, branch: str, j: int, dps: int):
    """P_0(lam), P_1(lam), ... without end, by the method of
    `spectral_sequence`, one entry per next() at dps digits; the c_k are
    built as the growing m first needs them.  A caller that keeps the
    iterator extends its sequence from where it stopped; at _WORKING_DPS
    digits it has the bits `spectral_sequence` gives."""
    with mpmath.workdps(dps):
        q, a, b = mpmath.mpf(p.q), mpmath.mpf(p.a), mpmath.mpf(p.b)
        first, second = (a, b) if branch == "a" else (b, a)
        z = q ** (j + 1) * first / second
    c = [mpmath.mpf(1)]
    qm = mpmath.mpf(1)  # q^-m
    poch = [qm]  # (q^-m; q)_k, k = 0..min(m, j)
    denom = qm  # (q^-m/second; q)_m
    yield qm
    for m in itertools.count(1):
        with mpmath.workdps(dps):
            if m <= j:
                k = m - 1
                c.append(c[k] * (1 - q ** (k - j)) * z / ((1 - first * q ** (k + 1)) * (1 - q ** (k + 1))))
            qm = qm / q
            shift = 1 - qm
            poch = [poch[0]] + [shift * v for v in poch[: min(j, m)]]
            denom *= 1 - qm / second
            value = mpmath.fdot(c, poch) / denom
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
    kmax = min(n, m)
    jz = _as_negative_q_power(bparam * q, q)
    if jz is not None and jz < kmax:
        raise DomainError(
            f"denominator parameter bparam*q = q^-{jz} vanishes before termination"
        )

    def _sum(bb, cc, qq):
        z = -(qq ** (n + 1)) / cc
        return _terminating_sum(
            kmax,
            lambda k, term: (
                term
                * (1 - qq ** (k - n))
                * (1 - qq ** (k - m))
                * z
                / ((1 - bb * qq ** (k + 1)) * (1 - qq ** (k + 1)))
            ),
            1 + qq * 0,
        )

    return _escalated(_sum, (bparam, c, q), min(t.rel_tol, 1e-13))


def dual_f(n: int, m: int, p: QParams, t: Truncation = Truncation()) -> float:
    """f_n(q^-m; a, b | q) = P_m evaluated at the spectral point a q^(n+1)."""
    return float(spectral_sequence(p, "a", n, m)[m])


def dual_g(n: int, m: int, p: QParams, t: Truncation = Truncation()) -> float:
    """g_n(q^-m; a, b | q) = P_m evaluated at the spectral point b q^(n+1)."""
    return float(spectral_sequence(p, "b", n, m)[m])


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
        # form each term in mpmath so neither factor over/underflows
        seq = spectral_sequence(p, hit[0], hit[1], n_max)
        terms = []
        with mpmath.workdps(_WORKING_DPS):
            qm, am, bm, tm = map(mpmath.mpf, (q, a, b, tvar))
            coef = mpmath.mpf(1)
            tpow = mpmath.mpf(1)
            for n in range(n_max + 1):
                terms.append(float(coef * seq[n] * tpow))
                coef *= _generating_coefficient_ratio(n, am, bm, qm)
                tpow *= tm
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
    # terminating 2phi1(q^-j, 0; -1/(b t); q, x/b), j+1 terms
    z = x / b
    value, _ = _terminating_sum(
        j,
        lambda k, term: term * (1 - q ** (k - j)) * z / ((1 + q**k / (b * tc)) * (1 - q ** (k + 1))),
        1 + 0j,
    )
    return pref * value


def _bigql_from_generating(n: int, x: float, p: QParams) -> float:
    """P_n(x) extracted as a Taylor coefficient of the closed generating
    function via FFT on a circle inside the first pole."""
    import numpy as np

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
    samples = np.empty(m_samples, dtype=complex)
    for k in range(m_samples):
        tc = rho * cmath.exp(2j * cmath.pi * k / m_samples)
        samples[k] = _generating_closed_complex(x, tc, p, branch, j)
    # Cauchy coefficients: c_n rho^n = (1/M) sum_k G(rho e^(i th_k)) e^(-i n th_k)
    coeffs = np.fft.fft(samples) / m_samples
    gcoef = coeffs[n].real / rho**n
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

    def _lhs_sum(xx, bb, cc, qq):
        z = -qq * xx / (bb * cc)
        return _terminating_sum(
            n,
            lambda k, term: (
                term
                * (1 - qq ** (k - n))
                * (1 - qq**k / xx)
                * z
                / ((1 - qq ** (k + 1) / bb) * (1 - qq ** (k + 1)))
            ),
            1 + qq * 0,
        )

    lhs = _escalated(_lhs_sum, (x, bparam, c, q), min(t.rel_tol, 1e-13))
    pref = 1 + q * 0
    for k in range(n):
        pref = pref * (1 + q ** (k - n) / c)
    rhs = pref * _big_q_laguerre_raw(n, q * x / bparam, 1 / bparam, -c, q, rel_tol=min(t.rel_tol, 1e-13))
    return lhs, rhs


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


# ---------------------------------------------------------------------------
# evaluation dispatch


class Family(str, Enum):
    BIG_Q_LAGUERRE = "big-q-laguerre"
    Q_MEIXNER = "q-meixner"
    CLASSICAL_LAGUERRE = "classical-laguerre"


class Method(str, Enum):
    SERIES_DEF = "series"
    RECURRENCE = "recurrence"
    GENERATING = "generating"


@dataclass(frozen=True)
class PolyEval:
    """One polynomial evaluation request: family, degree, argument,
    parameters and the evaluation route to use."""

    family: Family
    degree: int
    argument: float
    params: Union[QParams, tuple, float]
    method: Method = Method.SERIES_DEF


def poly_eval(ev: PolyEval, t: Truncation = Truncation()) -> float:
    """Evaluate a :class:`PolyEval` request."""
    if ev.degree < 0:
        raise DomainError("degree must be nonnegative")
    if ev.family is Family.BIG_Q_LAGUERRE:
        if not isinstance(ev.params, QParams):
            raise DomainError("big q-Laguerre evaluation needs QParams")
        if ev.method is Method.SERIES_DEF:
            return float(big_q_laguerre(ev.degree, ev.argument, ev.params, t))
        if ev.method is Method.RECURRENCE:
            return float(big_q_laguerre_recurrence(ev.degree, ev.argument, ev.params)[-1])
        return _bigql_from_generating(ev.degree, ev.argument, ev.params)
    if ev.family is Family.Q_MEIXNER:
        bparam, c, q = ev.params
        if ev.method is not Method.SERIES_DEF:
            raise DomainError("q-Meixner supports the series route only")
        return float(q_meixner(ev.degree, int(ev.argument), bparam, c, q, t))
    if ev.family is Family.CLASSICAL_LAGUERRE:
        if ev.method is Method.SERIES_DEF:
            # monomial form sum_k (-1)^k binom(n+alpha, n-k) x^k / k!
            alpha = ev.params
            n = ev.degree
            total = 0.0
            for k in range(n + 1):
                binom = 1.0
                for i in range(n - k):
                    binom *= (alpha + k + 1 + i) / (i + 1)
                total += (-1) ** k * binom * ev.argument**k / math.factorial(k)
            return total
        return float(classical_laguerre(ev.degree, ev.params, ev.argument))
    raise DomainError(f"unknown family {ev.family}")
