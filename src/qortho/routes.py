"""Cross-check routes of the polynomial families that no CLI command
runs: P_n by its 2phi1 form, the dual functions f_n and g_n as floats,
the generating function (its partial sums, its closed form and the
extraction of P_n as a Taylor coefficient of it), and the interrelation
of the q-Meixner and big q-Laguerre families under q -> 1/q.

Each is independent of, or a second reading of, a route of
`qortho.polynomials`, and the tests hold the two to each other.
"""

from __future__ import annotations

import decimal
import functools
import itertools
import math
from typing import NamedTuple

from qortho.qseries import (
    DomainError,
    NeumaierSum,
    NonConvergenceError,
    QParams,
    TailError,
    Truncation,
    _as_negative_q_power,
    _finite,
    _floats_only,
    _phi_series,
    _require_index,
    _working_context,
    phi_2_1,
    q_pochhammer,
    q_pochhammer_inf,
)
from qortho.polynomials import (
    EXTENDED_DPS,
    _big_q_laguerre_params,
    _capped,
    _context_of,
    _duality_entries,
    _label_of,
    _label_point,
    _require_label,
    _roles,
    big_q_laguerre_recurrence,
)

__all__ = [
    "big_q_laguerre_phi21",
    "big_q_laguerre_generating",
    "dual_f",
    "dual_g",
    "generating_series",
    "generating_closed",
    "GeneratingDiagnostics",
    "q_inverse_meixner_relation",
]


# ---------------------------------------------------------------------------
# big q-Laguerre: the 2phi1 form


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
# dual functions


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
    reports that honestly.  At a spectral point's label (branch, n) x the
    terms come from the duality sequence, p and tvar floats or Decimals;
    at a number x, whatever its value, from the float recurrence, all
    floats.  A non-finite x, or an n_max that is no nonnegative integer,
    raises DomainError.
    """
    _require_index("n_max", n_max)
    label = _label_of(x)
    if label is None and not abs(x) < math.inf:
        raise DomainError(f"generating_series needs a finite x, not {x!r}")
    a, b, q = p.a, p.b, p.q
    overflowed = False
    if label is not None:
        # the weights grow like q^(-n(n-1)/2) while P_n shrinks faster;
        # form each term from the Decimal duality entries, in whose exponent
        # range neither factor over/underflows
        seq = itertools.islice(_duality_entries(p, *label), n_max + 1)
        terms = []
        with decimal.localcontext(_context_of(p)):
            qd, ad, bd, td = map(decimal.Decimal, (q, a, b, tvar))
            coef = tpow = decimal.Decimal(1)
            for n, value in enumerate(seq):
                terms.append(float(coef * value * tpow))
                coef *= _generating_coefficient_ratio(n, ad, bd, qd)
                tpow *= td
    else:
        _floats_only("generating_series at a number", x, tvar, *p)
        pvals = big_q_laguerre_recurrence(n_max, x, p)
        terms = []
        coef = 1.0
        tpow = 1.0
        for n in range(n_max + 1):
            term = coef * pvals[n] * tpow
            if not _finite(term) or abs(term) > 1e280:
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
    weights are symmetric).  A number x takes the formula as written; a
    spectral point's label (branch, n) x, its point a q^(n+1) or b q^(n+1)
    by the arrangement that makes the 2phi1 terminate, a and b swapped on
    branch "b", the one the term-by-term resummation proves there.  The
    point and parameters are floats; t may be complex, as on the Cauchy
    circle of `big_q_laguerre_generating`.
    """
    label = _label_of(x)
    if label is not None:
        x = _label_point(p, label)
    _floats_only("generating_closed", x, tvar, *p)
    a, b, q = p.a, p.b, p.q
    if tvar == 0:
        return 1.0
    if x == 0:
        return generating_series(x, tvar, p, n_max=64, t=t, strict=True)
    if label is not None:
        a, b = _roles(label[0], a, b)
    pref = q_pochhammer_inf(-a * b * q * q * tvar, q, t) / q_pochhammer_inf(-b * q * tvar, q, t)
    return pref * phi_2_1(a * q / x, 0.0, -1.0 / (b * tvar), q, x / b, t)


# pi to 50 digits
_PI = decimal.Decimal("3.1415926535897932384626433832795028841971693993751")


@functools.lru_cache(maxsize=None)
def _roots_of_unity(m: int) -> tuple:
    """e^(2 pi i k / m), k = 0..m-1, each part the float nearest its exact
    value: i^s (cos x + i sin x) for s, r = divmod(4k, m) and x = pi r / (2m)
    in the first quadrant, with the Taylor sums of cos x and sin x in
    Decimals of EXTENDED_DPS digits, so the multiples of pi/2 stay exact."""
    roots = []
    with decimal.localcontext(_working_context(EXTENDED_DPS)):
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


def big_q_laguerre_generating(n: int, label, p: QParams) -> float:
    """P_n(x) extracted as a Taylor coefficient of the closed generating
    function: a Cauchy sum over 256 points of a circle inside the first
    pole.  The route is independent of both the recurrence and the
    duality; x is the spectral point of the label (branch, j), a q^(j+1)
    on branch "a" and b q^(j+1) on branch "b", where the closed form
    terminates, and p's parameters must be floats.  Where x, or the n-th
    power of the circle's radius, leaves the float range, the sum cannot
    be formed and NonConvergenceError is raised."""
    _floats_only("big_q_laguerre_generating", *p)
    branch, j = _require_label(label)
    q = p.q
    radius = q ** (j - 1) / abs(_roles(branch, p.a, p.b)[1])
    rho = 0.75 * radius
    if _label_point(p, label) == 0 or not -307 < n * math.log10(rho) < 308:
        raise NonConvergenceError(f"the Cauchy sum of P_{n} at {label} leaves the float range at {tuple(p)}")
    m_samples = 256
    # c_n rho^n = (1/M) sum_k G(rho w_k) w_k^(-n), a real number, with
    # w_k = e^(2 pi i k / M) and w_k^(-n) = w_(-nk mod M)
    roots = _roots_of_unity(m_samples)
    t = Truncation(rel_tol=1e-16, max_terms=4000)
    total = math.fsum(
        (generating_closed(label, rho * w, p, t) * roots[-n * k % m_samples]).real for k, w in enumerate(roots)
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
