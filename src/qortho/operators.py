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
    _float_held,
    _sqrt,
    _Validated,
    _floats_only,
    q_pochhammer,
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
    float parameters; an entry that no float holds raises
    NonConvergenceError (`_float_held`)."""
    _floats_only("build_A", *p)
    if dim < 1:
        raise DomainError("dim must be a positive integer")
    q, a, b = p.q, p.a, p.b
    c = math.sqrt(-a * b)
    off = tuple(
        c * q ** ((k + 2) / 2) * math.sqrt((1 - (qk := q ** (k + 1))) * (1 - a * qk) * (1 - b * qk))
        for k in map(float, range(dim - 1))
    )
    diag = _a_diag(p, dim)
    # inside the domain an entry can still leave the float range, as
    # sqrt(-ab) does at a near 1/q = 1e30 and b = -1e300: the first entry
    # that is not finite raises
    for x in itertools.filterfalse(math.isfinite, itertools.chain(diag, off)):
        _float_held(x, "an entry of build_A", p)
    return Tridiagonal(dim=dim, diag=diag, lower=off, upper=off)


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
    Problem, 4.5).  By duality, a_d = pref_d M_n(q^-d; first,
    -second/first; q) / (q^-d/second; q)_d, so at d = dim

        r = sqrt(-ab q^(d+1) (1 - q^d)(1 - a q^d)(1 - b q^d))
            (|second|/|first|)^(d/2) q^(d(d-1)/4)
            sqrt((first q; q)_d / ((q; q)_d (second q; q)_d)) |M_n(q^-d)|,

    formed in `_context_of(p)`, of prec digits, on the exact Decimals of
    the parameters; M_n, which may cancel far below its terms, is
    `_duality_meixner`'s exact dot.  The label, not the float lam, names
    the point, so a point that underflowed has its radius too.

    r is rounded up.  Each rounding, a power's too, errs by at most
    u = 10^(1-prec) relative, and 1 - x magnifies the error of x at most
    kappa = 1/(1 - max(q, aq)) times.  So the factor before |M_n| is
    within (d + 4)^2 kappa u of its value, and each term c_k (q^-d; q)_k
    of M_n within 17 n kappa u.  r is raised to that factor times
    (1 + 2 (d + 4)^2 kappa u) (|M_n| + 34 n kappa u sum_k |c_k (q^-d; q)_k|),
    and its float to the next float up; an r above the float range is inf,
    and one below it 0.0.

    The parameters are floats, dim a positive integer, and a label other
    than ("a" or "b", n), n a nonnegative integer, raises DomainError."""
    _floats_only("truncation_residuals", *p)
    if dim < 1:
        raise DomainError("dim must be a positive integer")
    labels = list(map(_require_label, labels))
    context, d = _context_of(p), dim
    radii = []
    with decimal.localcontext(context):
        q, a, b = map(decimal.Decimal, p)
        qd = q**d
        fixed = -a * b * q * qd * (1 - qd) * (1 - a * qd) * (1 - b * qd) * q ** (d * (d - 1) // 2)
        fixed /= q_pochhammer(q, q, d)
        poch_a, poch_b = q_pochhammer(a * q, q, d), q_pochhammer(b * q, q, d)
        unit = decimal.Decimal(1).scaleb(1 - context.prec) / (1 - max(q, a * q))
        grow = 1 + 2 * (d + 4) ** 2 * unit
        for branch, n in labels:
            (first, second), (poch_first, poch_second) = _roles(branch, a, b), _roles(branch, poch_a, poch_b)
            meixner, mass = _duality_meixner(p, branch, n, d)
            scale = (fixed * abs(second / first) ** d * poch_first / poch_second).sqrt() * grow
            radii.append(scale * (abs(meixner) + 34 * n * unit * mass))
    return [math.nextafter(x, math.inf) if 0 < x < math.inf else x for x in map(float, radii)]


# ---------------------------------------------------------------------------
# normalization constants


def _root(radicand):
    if not radicand > 0:
        raise DomainError(f"normalization radicand {radicand} not positive; parameter domain violated")
    return _sqrt(radicand)


def _c_ratio(qm, q, first, second):
    """c_{n+1}/c_n with qm = q^(n+1); Decimals, in the caller's working context."""
    return (q * (1 - first * qm) / ((1 - first * qm / second) * (1 - qm))).sqrt()


def _normalization_entries(p: QParams, branch: str):
    """c_0, c_1, ... (branch "a") or c'_0, c'_1, ... (branch "b") without
    end, one Decimal per next(), in `_context_of(p)`.
    With (first, second) = (a, b), or (b, a) for c'_n, the big q-Laguerre
    Jackson weight gives (Koekoek, Lesky and Swarttouw, Hypergeometric
    Orthogonal Polynomials and Their q-Analogues, 14.11)

        c_n^2 = c_0^2 (first q; q)_n q^n / ((first q/second; q)_n (q; q)_n),
        c_0^2 = (second q; q)_inf / (second/first; q)_inf.

    c_0, common to the branch, is formed on the exact Decimals of p in the
    working context, as the ratios c_{n+1}/c_n multiply on.  For float p,
    whose records read floats, its float must hold it (`_float_held`)."""
    with decimal.localcontext(_context_of(p)):
        q, a, b = map(decimal.Decimal, p)
        first, second = _roles(branch, a, b)
        c0 = _root(q_pochhammer_inf(second * q, q) / q_pochhammer_inf(second / first, q))
    if not isinstance(p.q, decimal.Decimal):
        _float_held(c0, "c_0" if branch == "a" else "c'_0", p)
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
    ||T|| is above about 1e-259 and every e^2 is normal.  Where some e^2
    overflows, the solve is that of T 2^-k (`_overflow_scaled`), so the
    bound is that of T 2^-k times 2^k, plus 3 units of the subnormals for
    the entries the scaling rounds among them, by Weyl's inequality."""
    k, scaled = _overflow_scaled(tri)
    if k:
        return math.ldexp(eig_tridiagonal_accuracy(scaled) + 3 * 2.0**-1074, k)
    norm = max(map(abs, tri.diag)) + 2 * max(map(abs, tri.offdiag), default=0.0)
    tiny = max((abs(x) for x in tri.offdiag if x * x < _SMALLEST_NORMAL), default=0.0)
    return (_BRACKET_WIDTH + 16 * 2.0**-53) * norm + 2 * _PIVMIN + 2 * tiny


def _overflow_scaled(tri: Tridiagonal) -> tuple:
    """(k, T 2^-k), the matrix that `eig_tridiagonal` solves for T: (0, T)
    where every e^2 is finite, else k the binary exponent of T's largest
    entry, which brings every entry below 1 in magnitude.  A power of two
    scales exactly in binary, except for entries it moves among the
    subnormals."""
    if all(math.isfinite(x * x) for x in tri.offdiag):
        return 0, tri
    k = math.frexp(max(map(abs, (*tri.diag, *tri.offdiag))))[1]
    return k, Tridiagonal.symmetric(*([math.ldexp(x, -k) for x in band] for band in (tri.diag, tri.offdiag)))


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

    Where some off-diagonal e^2 overflows, the Sturm count would not be
    that of a nearby matrix: the solve is then that of T 2^-k
    (`_overflow_scaled`), on targets times 2^-k, and its results times
    2^k.
    """
    if not tri.is_symmetric:
        raise DomainError("eig_tridiagonal requires a symmetric matrix")
    targets = None if near is None else [float(t) for t in near]
    if targets is not None and not all(map(math.isfinite, targets)):
        raise DomainError("eig_tridiagonal targets must be finite")
    k, scaled = _overflow_scaled(tri)
    if k:
        scaled_near = None if targets is None else [math.ldexp(t, -k) for t in targets]
        return [math.ldexp(x, k) for x in eig_tridiagonal(scaled, scaled_near)]
    d, e = tri.diag, tri.offdiag
    n = len(d)
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
