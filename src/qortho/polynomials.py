"""Big q-Laguerre and q-Meixner polynomial families.

Evaluation routes:

* terminating basic-hypergeometric series (the defining sums), summed
  by the series kernel of `qortho.qseries` on the exact Decimals of
  float arguments, at the digits the alternating sum's cancellation
  needs;
* upward three-term recurrence, absolutely stable on the arguments the
  identities use;
* the duality with the q-Meixner polynomials for whole sequences at
  spectral arguments a q^(j+1), b q^(j+1), where the polynomial values
  decay like q^(m^2/2) and forward recurrences lose all relative accuracy
  past degree j: each value is a terminating q-Meixner sum over a
  q-Pochhammer symbol.

The cross-check routes that no command runs (the 2phi1 form, the dual
functions as floats, the generating function and the q -> 1/q relation)
live in `qortho.routes`.
"""

from __future__ import annotations

import decimal
import itertools
import numbers
import operator
from typing import Optional

from qortho.qseries import (
    DomainError,
    QParams,
    _EXACT,
    _as_negative_q_power,
    _phi_series,
    _require_index,
    _working_context,
)

__all__ = [
    "big_q_laguerre",
    "big_q_laguerre_recurrence",
    "spectral_sequence",
    "q_meixner",
    "classical_laguerre",
]

# rel_tol of the polynomial series routes, all terminating: the relative
# rounding error `_escalated` leaves in a sum of float arguments
_SERIES_REL_TOL = 1e-13
# working precision of the duality sequences and coefficient tables of float parameters
_WORKING_DPS = 30
# working precision of Decimal parameters, those of `verify --precision extended`
EXTENDED_DPS = 50


def _context_of(p: QParams) -> decimal.Context:
    """The decimal context of p's Decimal tables, entries and sums:
    `_working_context` of _WORKING_DPS digits for float p and of
    EXTENDED_DPS for Decimal p, at `qseries._GUARD_DIGITS` more."""
    return _working_context(EXTENDED_DPS if isinstance(p.q, decimal.Decimal) else _WORKING_DPS)


def _exact_dot(xs, ys) -> decimal.Decimal:
    """sum_k xs[k] ys[k] of Decimals, k over the shorter of the two, every
    product and sum exact."""
    with decimal.localcontext(_EXACT):
        return sum(map(operator.mul, xs, ys))


# ---------------------------------------------------------------------------
# big q-Laguerre: series definitions


def _big_q_laguerre_params(n: int):
    """The `_phi_series` builder of P_n(x; a, b; q) on (x, a, b, q):
    3phi2(q^-n, 0, x; aq, bq; q, q)."""
    return lambda x, a, b, q: ((q**-n, 0 * q, x), (a * q, b * q), q, q)


def big_q_laguerre(n: int, x, p: QParams) -> float:
    """P_n(x; a, b; q) via the terminating 3phi2 definition."""
    _require_index("degree", n)
    return _phi_series(_big_q_laguerre_params(n), (x, p.a, p.b, p.q), _SERIES_REL_TOL)


# ---------------------------------------------------------------------------
# recurrence route


def _recurrence_d(n, a, b, q):
    """Diagonal coefficient d_n = -ab q^(2n+1)(1+q) + q^(n+1)(a+ab+b)."""
    return -a * b * q ** (2 * n + 1) * (1 + q) + q ** (n + 1) * (a + a * b + b)


class _LazyList(list):
    """The values of an endless iterator, in a list that grows as they are
    first read, so each is computed once: the one lazily extended table of
    the package.  A source that raises is done, so its error is kept and
    raised again by every later read past the values it gave."""

    def __init__(self, source):
        super().__init__()
        self._source = source
        self._failure = None

    def upto(self, k: int) -> list:
        """The list, with the values 0..k at least."""
        while len(self) <= k:
            if self._failure is not None:
                raise self._failure
            try:
                self.append(next(self._source))
            except Exception as exc:
                self._failure = exc
                raise
        return self

    def at(self, k: int):
        """The value k; the hot path of every sum, which nearly always
        reads a value already computed."""
        return self[k] if k < len(self) else self.upto(k)[k]


def _recurrence_entries(p: QParams):
    """The coefficients (A_n, C_n, d_n), n = 0, 1, ... without end, of the
    three-term recurrence at p,

        A_n P_{n+1} = (x - d_n) P_n + C_n P_{n-1},
        A_n = (1-aq^(n+1))(1-bq^(n+1)),  C_n = ab q^(n+1)(1-q^n),

    in the scalars of p, Decimal ones in their reader's decimal context.
    They do not depend on x, so one `_LazyList` of them serves every
    forward sweep at p."""
    q, a, b = p.q, p.a, p.b
    for k in itertools.count():
        A = (1 - a * q ** (k + 1)) * (1 - b * q ** (k + 1))
        yield A, a * b * q ** (k + 1) * (1 - q**k), _recurrence_d(k, a, b, q)


def big_q_laguerre_recurrence(n_max: int, x, p: QParams, *, coeffs: Optional[_LazyList] = None) -> list:
    """P_0(x), ..., P_{n_max}(x) by upward three-term recurrence.

    (1-aq^(n+1))(1-bq^(n+1)) P_{n+1} = (x - d_n) P_n + ab q^(n+1)(1-q^n) P_{n-1},
    seeded with P_0 = 1 (the n = 0 relation has no P_{-1} term).  The
    coefficients come from `coeffs`, a `_LazyList` of
    `_recurrence_entries(p)` shared with other sweeps at p, or from one
    built for this call.
    """
    if n_max < 0:
        raise DomainError("degree must be nonnegative")
    if coeffs is None:
        coeffs = _LazyList(_recurrence_entries(p))
    q = p.q
    out = [1 + q * 0]
    prev, cur = 0 * q, out[0]
    for A, C, d in coeffs.upto(n_max - 1)[:n_max]:
        nxt = ((x - d) * cur + C * prev) / A
        out.append(nxt)
        prev, cur = cur, nxt
    return out


# ---------------------------------------------------------------------------
# spectral points: their labels and the duality sequences


def _require_label(label) -> tuple:
    """label, when it is ("a", n) or ("b", n), n a nonnegative integer:
    the name of the spectral point a q^(n+1) or b q^(n+1), exact where
    the float of the point underflows; else DomainError."""
    if not (isinstance(label, tuple) and len(label) == 2 and label[0] in ("a", "b")):
        raise DomainError(f"a label is ('a' or 'b', n), not {label!r}")
    _require_index("a label's index", label[1])
    return label


def _label_of(x) -> Optional[tuple]:
    """None for a number x, which a two-path route takes on its generic
    path whatever its value; else x, checked by `_require_label`."""
    return None if isinstance(x, numbers.Number) else _require_label(x)


def _roles(branch: str, a, b) -> tuple:
    """(first, second) of the branch: (a, b) on branch "a", whose spectral
    points are a q^(n+1), and (b, a) on branch "b", whose are b q^(n+1).
    Every formula of a branch is written in first and second."""
    return (a, b) if branch == "a" else (b, a)


def _label_point(p: QParams, label: tuple):
    """The point first q^(n+1) of the label (branch, n), a q^(n+1) or
    b q^(n+1), in p's scalars."""
    branch, n = label
    return _roles(branch, p.a, p.b)[0] * p.q ** (n + 1)


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
    _require_label((branch, j))
    if m_max < 0:
        raise DomainError("cut-off degree must be nonnegative")
    return list(itertools.islice(_duality_entries(p, branch, j), m_max + 1))


def _duality_coefficients(p: QParams, branch: str, j: int) -> list:
    """c_0, ..., c_j of the duality sum of `spectral_sequence` at lam =
    first q^(j+1), as Decimals in `_context_of(p)`."""
    q, a, b = map(decimal.Decimal, p)
    first, second = _roles(branch, a, b)
    with decimal.localcontext(_context_of(p)):
        z = q ** (j + 1) * first / second
        c = [decimal.Decimal(1)]
        for k in range(j):
            c.append(c[k] * (1 - q ** (k - j)) * z / ((1 - first * q ** (k + 1)) * (1 - q ** (k + 1))))
    return c


def _duality_meixner(p: QParams, branch: str, j: int, m: int) -> tuple:
    """(M, mass): M = M_j(q^-m; first, -second/first; q), the numerator of
    P_m(lam) in `spectral_sequence`, the exact sum of the products
    c_k (q^-m; q)_k, k <= min(j, m), the q-Pochhammer symbols formed in
    `_context_of(p)`; and the exact sum of their magnitudes, which scales
    the rounding of M."""
    q = decimal.Decimal(p.q)
    with decimal.localcontext(_context_of(p)):
        factors = [1 - q ** (k - m) for k in range(min(j, m))]
        poch = list(itertools.accumulate(factors, operator.mul, initial=decimal.Decimal(1)))
    c = _duality_coefficients(p, branch, j)
    return _exact_dot(c, poch), _exact_dot(map(abs, c), map(abs, poch))


def _duality_entries(p: QParams, branch: str, j: int):
    """P_0(lam), P_1(lam), ... without end, by the method of
    `spectral_sequence`, one Decimal per next() in `_context_of(p)`: each
    entry is the exact sum of the products c_k (q^-m; q)_k, divided once.
    A caller that keeps the iterator extends its sequence from where it
    stopped."""
    context = _context_of(p)
    q, second = decimal.Decimal(p.q), decimal.Decimal(_roles(branch, p.a, p.b)[1])
    c = _duality_coefficients(p, branch, j)
    qm = decimal.Decimal(1)  # q^-m
    poch = [qm]  # (q^-m; q)_k, k = 0..min(m, j)
    denom = qm  # (q^-m/second; q)_m
    yield qm
    for m in itertools.count(1):
        with decimal.localcontext(context):
            qm = qm / q
            shift = 1 - qm
            poch = [poch[0]] + [shift * v for v in poch[: min(j, m)]]
            denom *= 1 - qm / second
            value = _exact_dot(c, poch) / denom
        yield value


# ---------------------------------------------------------------------------
# q-Meixner family


def q_meixner(n: int, m: int, bparam, c, q) -> float:
    """M_n(q^-m; bparam, c; q) = 2phi1(q^-n, q^-m; bparam q; q, -q^(n+1)/c).

    Terminating at min(n, m); bparam may be negative.
    """
    _require_index("q-Meixner degree n", n)
    _require_index("q-Meixner index m", m)
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
        lambda b, c, q: ((q**-n, q**-m), (b * q,), q, -(q ** (n + 1)) / c), (bparam, c, q), _SERIES_REL_TOL
    )


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
