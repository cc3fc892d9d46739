"""The self-adjoint representation operator in the canonical orthonormal
basis f_n: its truncated matrix, its exact spectrum and eigensolver, and
the Decimal running products that the verify engines and the CLI read
(the eigencoefficient prefactors and the normalization constants c_n,
c'_n).

The operator acts tridiagonally with

    diag[n] = q^(n+1)(a+ab+b) - ab q^(2n+1)(1+q),
    off[n]  = sqrt(-ab) q^((n+2)/2) sqrt((1-q^(n+1))(1-aq^(n+1))(1-bq^(n+1))),

its eigenvalues are the two geometric sequences a q^(n+1), b q^(n+1),
and its eigenvector coefficients are weighted big q-Laguerre values.
The generator constructions, the non-self-adjoint pair (A1, A2) and the
coefficient vectors and normalization constants as floats, which no
command reads, live in `qortho.representation`.
"""

from __future__ import annotations

import bisect
import decimal
import functools
import itertools
import math
from typing import NamedTuple

from qortho.qseries import (
    DomainError,
    NonConvergenceError,
    QParams,
    Truncation,
    _sqrt,
    _Validated,
    _floats_only,
    _log10,
    q_pochhammer_inf,
)
from qortho.polynomials import (
    _context_of,
    _duality_entries,
    _duality_meixner,
    _label_point,
    _recurrence_d,
    _require_label,
    _roles,
    big_q_laguerre_recurrence,
)

__all__ = [
    "Tridiagonal",
    "SpectralPoints",
    "build_A",
    "spectrum_points",
    "eig_tridiagonal",
    "eig_tridiagonal_accuracy",
    "truncation_residuals",
]


class _TridiagonalFields(NamedTuple):
    dim: int
    diag: tuple
    lower: tuple  # lower[i] couples column i to row i+1
    upper: tuple  # upper[i] couples column i+1 to row i


class Tridiagonal(_Validated, _TridiagonalFields):
    """Tridiagonal matrix as tuples of floats; symmetric when lower and
    upper share storage."""

    __slots__ = ()

    def __new__(cls, dim, diag, lower, upper):
        if dim < 1:
            raise DomainError("dim must be a positive integer")
        if len(diag) != dim or len(lower) != dim - 1 or len(upper) != dim - 1:
            raise DomainError("inconsistent tridiagonal band lengths")
        if not all(map(math.isfinite, itertools.chain(diag, lower, upper))):
            raise DomainError("tridiagonal entries must be finite")
        return super().__new__(cls, dim, diag, lower, upper)

    @classmethod
    def symmetric(cls, diag, offdiag):
        off = tuple(map(float, offdiag))
        return cls(dim=len(diag), diag=tuple(map(float, diag)), lower=off, upper=off)

    @property
    def is_symmetric(self) -> bool:
        return self.lower is self.upper or self.lower == self.upper

    @property
    def offdiag(self) -> tuple:
        if not self.is_symmetric:
            raise DomainError("offdiag is only defined for the symmetric case")
        return self.lower

    def dense(self) -> list:
        """The dim x dim matrix as a list of rows."""
        m = [[0.0] * self.dim for _ in range(self.dim)]
        for i, d in enumerate(self.diag):
            m[i][i] = d
        for i, (lo, up) in enumerate(zip(self.lower, self.upper)):
            m[i + 1][i], m[i][i + 1] = lo, up
        return m

    def apply(self, v) -> list:
        """The product with the vector v, as a list."""
        v = list(map(float, v))
        if len(v) != self.dim:
            raise DomainError(f"vector of length {len(v)} for a {self.dim}-row matrix")
        out = [d * x for d, x in zip(self.diag, v)]
        for i, (lo, up) in enumerate(zip(self.lower, self.upper)):
            out[i + 1] += lo * v[i]
            out[i] += up * v[i + 1]
        return out


class SpectralPoints(NamedTuple):
    """The two geometric eigenvalue branches a q^(n+1) and b q^(n+1)."""

    upper: tuple
    lower: tuple

    def ranked(self) -> list:
        """The pairs (label, point) of both branches by decreasing magnitude
        of the point, the upper point first on a tie; the label of
        first q^(n+1) is (branch, n), branch "a" for upper and "b" for lower."""
        labelled = [(("a", n), x) for n, x in enumerate(self.upper)]
        labelled += [(("b", n), x) for n, x in enumerate(self.lower)]
        return sorted(labelled, key=lambda pair: -abs(pair[1]))


# ---------------------------------------------------------------------------
# operator assembly


def _a_diag(p: QParams, dim: int) -> tuple:
    return tuple(_recurrence_d(float(n), p.a, p.b, p.q) for n in range(dim))


def build_A(p: QParams, dim: int) -> Tridiagonal:
    """Symmetric tridiagonal matrix of the diagonalized operator, of
    float parameters."""
    _floats_only("build_A", *p)
    if dim < 1:
        raise DomainError("dim must be a positive integer")
    q, a, b = p.q, p.a, p.b
    c = math.sqrt(-a * b)
    off = tuple(
        c * q ** ((k + 2) / 2) * math.sqrt((1 - (qk := q ** (k + 1))) * (1 - a * qk) * (1 - b * qk))
        for k in map(float, range(dim - 1))
    )
    return Tridiagonal(dim=dim, diag=_a_diag(p, dim), lower=off, upper=off)


# ---------------------------------------------------------------------------
# eigencoefficient prefactors


def _pref_a_ratio(qm, q, a, b):
    """pref_{m+1}/pref_m for (-ab)^(-m/2) q^(-m(m+3)/4) ((aq,bq;q)_m/(q;q)_m)^(1/2),
    with qm = q^(m+1); Decimals, in the caller's working context."""
    return ((1 - a * qm) * (1 - b * qm) / (-a * b * q * qm * (1 - qm))).sqrt()


def _prefactor_entries(p: QParams, ratio_fn=_pref_a_ratio, start=1, branch: str = "a"):
    """start pref_0, start pref_1, ... without end, one Decimal per
    next(), in `_context_of(p)`: the running product of
    ratio_fn(q^(m+1), q, first, second), with q^(m+1) carried from step
    to step and (first, second) = (a, b), or (b, a) for branch "b".
    start, an int, float or Decimal, enters exactly and is rounded to the
    context, like every later entry.  A caller that keeps the iterator
    extends its list from where it stopped."""
    context = _context_of(p)
    q, a, b = map(decimal.Decimal, p)
    first, second = _roles(branch, a, b)
    pref, qm = context.plus(decimal.Decimal(start)), q
    while True:
        yield pref
        with decimal.localcontext(context):
            pref *= ratio_fn(qm, q, first, second)
            qm *= q


def _coefficient_entries(p: QParams, branch: str, j: int, prefs):
    """pref_0 P_0(lam), pref_1 P_1(lam), ... at lam = a q^(j+1) (branch
    "a") or b q^(j+1) (branch "b"), one Decimal per next(): each product
    of an entry of the iterable prefs and a duality entry of
    `_duality_entries`, rounded once in `_context_of(p)`.  With the
    prefactors of `_prefactor_entries` these are the eigencoefficients
    a_m(lam); with its other ratio functions, psi_m(lam) or phi_m(lam)."""
    multiply = _context_of(p).multiply
    for pref, v in zip(prefs, _duality_entries(p, branch, j)):
        yield multiply(pref, v)


def _unit_factors_from(s: float, q: float, n: int) -> int:
    """An index k < n, or n, from which every 1 - t q^(i+1), i < n and
    |t| <= |s|, rounds to 1.0, so that its log is an exact 0.0:
    |s q^(k+1)| <= 2^-55, and pow is within an ulp, so no later power
    exceeds q^(k+1) by 2^-51 relative.  The bisection finds such a k even
    where rounding breaks the order of the powers."""
    return bisect.bisect_left(range(n), True, key=lambda i: abs(s * q ** (i + 1.0)) <= 2.0**-55)


def _log10_prefactors(p: QParams, m_max: int) -> list:
    """log10 pref_0..pref_m_max in floats: the running sum of the logs
    of the ratios `_pref_a_ratio`, whose factors are 1.0 from
    `_unit_factors_from` on."""
    q, a, b = p.q, p.a, p.b
    log_ab, log_q = math.log10(-a * b), math.log10(q)
    k = _unit_factors_from(max(a, -b, 1.0), q, m_max)
    steps = []
    for m in map(float, range(k)):
        qm = q ** (m + 1)
        steps.append(
            -0.5 * log_ab - (2 * m + 4) / 4.0 * log_q
            + 0.5 * (math.log10(1 - a * qm) + math.log10(1 - b * qm) - math.log10(1 - qm))
        )
    # a step plus the exact 0.0 of its logs keeps its bits
    steps += [-0.5 * log_ab - (2 * m + 4) / 4.0 * log_q for m in map(float, range(k, m_max))]
    return list(itertools.accumulate(steps, initial=0.0))


def _a_coeff_logs(branch: str, j: int, m_max: int, prefs: list, p: QParams, coeffs) -> list:
    """Eigencoefficients a_0..a_{m_max} at the spectral point of index
    j >= m_max, as Decimals, from the forward three-term recurrence on the
    Decimal parameters p, in the caller's decimal context; prefs is
    pref_0..pref_m_max of `_prefactor_entries`, and coeffs the `_LazyList`
    of `_recurrence_entries(p)` that the rows at p share.

    The polynomial sequence becomes the minimal solution of the
    recurrence (and decays like q^(m^2/2)) only past degree ~j, so up to
    degree j forward steps keep full relative accuracy, at one step per
    degree where the duality closed form sums up to m + 1 terms.

    The name dates from the rows of signed logs this function once
    returned; perfbench times the forward rows under it, so it stays."""
    seq = big_q_laguerre_recurrence(m_max, _label_point(p, (branch, j)), p, coeffs=coeffs)
    return [pref * v for pref, v in zip(prefs, seq)]


def truncation_residuals(p: QParams, dim: int, labels) -> list:
    """r = |A[dim-1, dim] a_dim(lam)| for the exact eigenvalue
    lam = first q^(n+1) of each label (branch, n) in `labels`, with
    (first, second) = (a, b) on branch "a" and (b, a) on branch "b".  The
    exact eigenvector cut to dim rows satisfies every row of A_dim - lam
    but the last, and a_0 = 1 bounds its norm below, so A_dim has an
    eigenvalue within r of lam (Parlett, The Symmetric Eigenvalue
    Problem, 4.5).  By duality,

        a_d = pref_d M_n(q^-d; first, -second/first; q) / (q^-d/second; q)_d,

    the denominator equal to (-1/second)^d q^(-d(d+1)/2) (second q; q)_d;
    all but M_n is a float sum of logs, and r underflows to 0 or
    overflows to inf.  M_n, which may cancel far below its terms, is
    `_duality_meixner`'s exact dot on the exact Decimals of the
    parameters, in `_context_of(p)`, read by its `_log10`.  The label, not
    the float lam, names the point, so a point that underflowed has its
    radius too.

    Each radius also counts the rounding of its own float sum of logs,
    each of whose roundings errs by at most 2^-53 of its result.  log10 r
    has seven parts: the log of the off-diagonal's product, the two
    q-power logs, the prefactor log, d log10 |second|, the log of
    (second q; q)_d and that of M_n.  Each partial sum is at most S, the
    sum of their magnitudes plus 1, and c = 8 counts the parts and
    `_log10`'s one ulp; the prefactor log is itself a running sum, whose
    partial sums are the list of `_log10_prefactors`.  So r is raised to
    10^(log10 r + 2^-53 (c S + sum_m |log10 pref_m|)), at least
    |log10 r| ln 10 c 2^-53 r above the r of the rounded sum.

    The parameters are floats, dim a positive integer, and a label other
    than ("a" or "b", n), n a nonnegative integer, raises DomainError."""
    _floats_only("truncation_residuals", *p)
    if dim < 1:
        raise DomainError("dim must be a positive integer")
    labels = list(map(_require_label, labels))
    q, a, b = p.q, p.a, p.b
    log_q = math.log10(q)
    qi = [q ** float(i) for i in range(1, _unit_factors_from(max(a, -b), q, dim) + 1)]
    log_sq = {s: math.fsum(math.log10(1 - s * x) for x in qi) for s in (a, b)}
    qd = q**dim
    log_prod = 0.5 * math.log10(-a * b * (1 - qd) * (1 - a * qd) * (1 - b * qd))
    log_prefs = _log10_prefactors(p, dim)
    log_fixed = log_prod + (dim + 1) / 2 * log_q + log_prefs[dim] + dim * (dim + 1) / 2 * log_q
    size_fixed = 1 + abs(log_prod) + (dim + 1) ** 2 / 2 * abs(log_q) + abs(log_prefs[dim])
    size_prefs = math.fsum(map(abs, log_prefs))
    radii = []
    for branch, n in labels:
        second = _roles(branch, a, b)[1]
        log_second = dim * math.log10(abs(second))
        log_meixner = _log10(_duality_meixner(p, branch, n, dim))
        log_r = log_fixed + log_second - log_sq[second] + log_meixner
        # a zero M_n is an exact r = 0, with no rounding to count
        size = size_fixed + abs(log_second) + abs(log_sq[second]) + abs(log_meixner)
        slack = 2.0**-53 * (8 * size + size_prefs) if log_r > -math.inf else 0.0
        radii.append(math.inf if log_r > 300 else 10.0 ** (log_r + slack))
    return radii


# ---------------------------------------------------------------------------
# normalization constants


def _root(radicand):
    if not radicand > 0:
        raise DomainError(f"normalization radicand {radicand} not positive; parameter domain violated")
    return _sqrt(radicand)


def _c_ratio(qm, q, first, second):
    """c_{n+1}/c_n with qm = q^(n+1); Decimals, in the caller's working context."""
    return (q * (1 - first * qm) / ((1 - first * qm / second) * (1 - qm))).sqrt()


def _normalization_entries(p: QParams, branch: str, t: Truncation):
    """c_0, c_1, ... (branch "a") or c'_0, c'_1, ... (branch "b") without
    end, one Decimal per next(), in `_context_of(p)`.
    With (first, second) = (a, b), or (b, a) for c'_n, the big q-Laguerre
    Jackson weight gives (Koekoek, Lesky and Swarttouw, Hypergeometric
    Orthogonal Polynomials and Their q-Analogues, 14.11)

        c_n^2 = c_0^2 (first q; q)_n q^n / ((first q/second; q)_n (q; q)_n),
        c_0^2 = (second q; q)_inf / (second/first; q)_inf.

    c_0, common to the branch, is formed on the exact Decimals of p in the
    working context, as the ratios c_{n+1}/c_n multiply on.  For float p,
    whose records read floats, a c_0 whose float is 0 or not finite raises
    NonConvergenceError: a limit of the floats, not of the domain."""
    with decimal.localcontext(_context_of(p)):
        q, a, b = map(decimal.Decimal, p)
        first, second = _roles(branch, a, b)
        c0 = _root(q_pochhammer_inf(second * q, q, t) / q_pochhammer_inf(second / first, q, t))
    if not (isinstance(p.q, decimal.Decimal) or 0 < float(c0) < math.inf):
        name = "c_0" if branch == "a" else "c'_0"
        raise NonConvergenceError(f"the infinite products of {name} leave the parameters' number range at {tuple(p)}")
    yield from _prefactor_entries(p, _c_ratio, c0, branch)


# ---------------------------------------------------------------------------
# spectrum


def spectrum_points(p: QParams, N: int) -> SpectralPoints:
    """The first N exact eigenvalues on each branch, of float parameters."""
    _floats_only("spectrum_points", *p)
    if N < 1:
        raise DomainError("N must be a positive integer")
    upper, lower = (tuple(_label_point(p, (branch, n)) for n in range(N)) for branch in "ab")
    return SpectralPoints(upper=upper, lower=lower)


# Bisection steps allowed before the solve gives up.
_MAX_BISECTIONS = 120
# Bisection stops once a bracket is at most this times ||T|| wide.
_BRACKET_WIDTH = 1e-14
# Pivots smaller than this in magnitude are replaced by its negative.
_PIVMIN = 1e-290
# A Sturm count at a shift below this in magnitude walks every row.
_CUT_FLOOR = 1e-280
# The smallest positive normal float.
_SMALLEST_NORMAL = 2.0**-1022


def eig_tridiagonal_accuracy(tri: Tridiagonal) -> float:
    """Bound on the distance from each eigenvalue `eig_tridiagonal(tri)`
    returns to one of the matrix that `tri` rounds: the bracket width
    plus 16 units of roundoff of ||T||, for the float Sturm count (exact
    for a matrix a few units from T entrywise: Demmel, Dhillon and Ren,
    ETNA 3, 1995) and the rounded entries and targets.

    Two more terms cover what the count does at tiny entries, each by
    Weyl's inequality.  A pivot floored to -_PIVMIN counts a diagonal
    entry moved by at most 2 _PIVMIN.  An off-diagonal e whose square
    falls below the smallest normal float, rounded among the subnormals
    or to 0, counts some e' with |e' - e| <= |e|, so 2 max|e| over those
    bounds the norm of that change.  Neither term moves the bound where
    ||T|| is above about 1e-259 and every e^2 is normal."""
    norm = max(map(abs, tri.diag)) + 2 * max(map(abs, tri.offdiag), default=0.0)
    tiny = max((abs(x) for x in tri.offdiag if x * x < _SMALLEST_NORMAL), default=0.0)
    return (_BRACKET_WIDTH + 16 * 2.0**-53) * norm + 2 * _PIVMIN + 2 * tiny


def _sturm_rows(d, e) -> tuple:
    """The rows that `_sturm_count` reads for the diagonal d and the
    off-diagonal e: the pairs (d[i], e[i-1]^2), e[-1] = 0, and the minima
    over k >= j of -2(|d[k]| + sqrt(d[k]^2 + 2e[k-1]^2)), ascending."""
    e2 = [0.0, *(x * x for x in e)]
    reach = [-2 * (abs(x) + math.sqrt(x * x + 2 * y)) for x, y in zip(d, e2)]
    return list(zip(d, e2)), [*itertools.accumulate(reversed(reach), min)][::-1]


def _sturm_count(rows, x: float) -> int:
    """Number of eigenvalues below x: the negative pivots of the LDL^T
    factorization of T - x, for the rows (pairs, reach) of `_sturm_rows`,
    with the pivots d[i] - x - e[i-1]^2 / pivot[i-1] floored away from
    zero to -_PIVMIN.

    |x| >= -reach[j] means |d[k]| + 2e[k-1]^2/|x| <= |x|/4 for each k >= j.
    The loop stops at the first such row j where the pivot before it has
    the sign of -x and |piv| >= |x|/2.  The proof that the count is the
    full loop's:
      then |e[k-1]^2/piv| <= 2e[k-1]^2/|x|, so pivot k has the sign of -x
      and |piv| >= |x| - |d[k]| - 2e[k-1]^2/|x| >= 3|x|/4, at k = j and so
      on for every later k: each counts (x > 0) or none does (x < 0).
    Rounding, of reach and of the pivots, moves no pivot across the gap
    from 3|x|/4 to |x|/2, and |x| >= _CUT_FLOOR keeps them above _PIVMIN."""
    pairs, reach = rows
    n, ax = len(pairs), abs(x)
    cut = n if ax < _CUT_FLOOR else bisect.bisect_left(reach, -ax)
    count, piv, start = 0, 1.0, 0
    while True:
        for d, e2 in pairs[start:cut]:
            piv = d - x - e2 / piv
            if piv < _PIVMIN:
                count += 1
                if piv > -_PIVMIN:
                    piv = -_PIVMIN
        if cut == n:
            return count
        if (piv < 0) == (x > 0) and abs(piv) >= ax / 2:
            return count + n - cut if x > 0 else count
        start, cut = cut, cut + 1


def eig_tridiagonal(tri: Tridiagonal, near=None) -> list:
    """All eigenvalues of a symmetric tridiagonal matrix, ascending; or,
    given target points `near`, for each target the eigenvalue nearest
    to it (the lower one on a tie).

    Bisection on the Sturm count: eigenvalue k is the midpoint of the
    bracket that halves [lo, hi], the Gershgorin interval widened by
    1e-12 ||T||, towards the point where the count passes k, until it is
    at most `_BRACKET_WIDTH` ||T|| wide.  Deterministic, and accurate to
    `eig_tridiagonal_accuracy(tri)` even for the eigenvalues clustered
    near zero.  The float count is monotone in x (Demmel, Dhillon and
    Ren), so a level whose midpoint lies beyond a point already counted
    with the answer needs no count of its own; every count is kept for
    the later levels and indices.

    With `near`, each target t is widened to t +- rho, rho = w, 2w, 4w,
    ... for the bracket width w, until the count there differs.  Some
    computed eigenvalue then lies within rho + w of t, so every one at
    least as near has its bracket inside t +- (rho + 2w); the window
    t +- 2(rho + w) spares rho for the rounding of its ends, and only the
    indices counted in it are bisected.  Each result is bit for bit the
    pick from the full solve.
    """
    if not tri.is_symmetric:
        raise DomainError("eig_tridiagonal requires a symmetric matrix")
    d, e = tri.diag, tri.offdiag
    n = len(d)
    targets = None if near is None else [float(t) for t in near]
    if targets is not None and not all(map(math.isfinite, targets)):
        raise DomainError("eig_tridiagonal targets must be finite")
    if n == 1:
        return list(d) if targets is None else [d[0]] * len(targets)
    abs_e = [0.0, *map(abs, e), 0.0]
    rad = [x + y for x, y in zip(abs_e, abs_e[1:])]
    lo = min(x - r for x, r in zip(d, rad))
    hi = max(x + r for x, r in zip(d, rad))
    norm = max(abs(lo), abs(hi), 1e-300)
    lo, hi, width = lo - 1e-12 * norm, hi + 1e-12 * norm, _BRACKET_WIDTH * norm
    rows = _sturm_rows(d, e)
    xs, counts = [lo, hi], [0, n]  # every point counted, ascending

    def count(x: float) -> int:
        # no eigenvalue lies outside [lo, hi], so a window that covers it
        # ends the widening
        if x <= lo:
            return 0
        if x >= hi:
            return n
        i = bisect.bisect_left(xs, x)
        if xs[i] != x:
            xs.insert(i, x)
            counts.insert(i, _sturm_count(rows, x))
        return counts[i]

    @functools.cache
    def bisect_index(k: int) -> float:
        lob, hib = lo, hi
        for _ in range(_MAX_BISECTIONS):
            if hib - lob <= width:
                return 0.5 * (lob + hib)
            mid = 0.5 * (lob + hib)
            # xs[i - 1] < mid <= xs[i]: a count kept on either side may
            # already decide the level
            i = bisect.bisect_left(xs, mid)
            below = counts[i - 1] > k or (counts[i] > k and (xs[i] == mid or count(mid) > k))
            lob, hib = (lob, mid) if below else (mid, hib)
        raise NonConvergenceError("bisection failed to localize an eigenvalue")

    if targets is None:
        return [bisect_index(k) for k in range(n)]
    nearest = []
    for t in targets:
        rho = width
        while count(t + rho) <= count(t - rho):
            rho *= 2
        reach = 2 * (rho + width)
        ks = range(count(t - reach), count(t + reach))
        nearest.append(min(map(bisect_index, ks), key=lambda v: abs(v - t)))
    return nearest
