"""Numerical verification engines for the orthogonality, unitarity,
duality and biorthogonality identities.

Every verifier returns a :class:`VerificationReport`, judged on its
sum's own scale max(|rhs|, M), M the sum of the magnitudes of its terms;
for a positive weight Cauchy-Schwarz gives M <= sqrt(h_i h_j), so a
verdict bounds a cosine.  A pass/fail verdict needs the truncation tail
certified below tolerance on that scale; otherwise the report carries
the third status "inconclusive".

Numerical strategy: every identity sum reads one connection matrix
u_mn = c_n a_m(lam_n), in one of its two directions, and one engine,
`_bilinear_sum`, forms its value.  One store per verify task, `_Store`,
holds the matrix.  The sums over the spectral index n read its rows, one
list per spectral branch, whose entries c_n a_m(lam_n) decay
geometrically in n; unitarity-rows reads their sums as they are, and
big-laguerre and sears scaled by Kc / (pref_i pref_j), since
w_n P_i P_j is that multiple of the unitarity-rows term.  The sums over
the basis index m read its columns: the eigencoefficients a_m(lam) of
each label, from the q-Meixner duality closed form, whose weight factors
balance within each product.  By the duality the q-Meixner sums are
label sums too (meixner dual-ff, meixner-negb dual-gg, eq-zero dual-fg,
term for term).  The store keeps each row sum and each label sum by its
unordered pair, so sears reads big-laguerre (0, 0) and big-laguerre reads
unitarity-rows, each scaling the kept M with the value.

One table, `_RECORDS`, describes each record id as data: its index grid,
the kept sum a cell reads (a row sum or a label sum), the scale of that
sum and its closed-form side, and the families are its ids grouped.  One
function, `_record`, runs every row; `run_identity_checks` runs a
family's records in the store's decimal context, entered once per
family, and `verify_record` runs one record the same way on a store of
its own, with the same bits.

Entries, the constants c_n they carry and Kc are Decimals of the exact
Decimals of p, correctly rounded in the store's context, `_context_of(p)`
(32 digits for float parameters, 52 for Decimal ones); their float copies
drive the stopping rule, and the products used are added exactly and
rounded once.  Each sum, and Kc, leaves once, as its float for float p.
The closed-form sides and the verdict are written once for both scalar
types, in the store's context; the q-Meixner norms and the sears
cross-check, independent halves, form their own products in p's scalars.
"""

from __future__ import annotations

import collections
import decimal
import functools
import itertools
import math
from typing import Callable, NamedTuple

from qortho.qseries import (
    DomainError,
    NonConvergenceError,
    QParams,
    Truncation,
    _SMALL_RUN,
    phi_2_1,
    q_pochhammer,
    q_pochhammer_inf,
)
from qortho.polynomials import (
    _context_of,
    _exact_dot,
    _LazyList,
    _recurrence_entries,
    _roles,
)
from qortho.operators import (
    _a_coeff_logs,
    _coefficient_entries,
    _normalization_entries,
    _prefactor_entries,
)
from qortho.reporting import VerificationReport

__all__ = [
    "VerificationReport",
    "verify_record",
    "IDENTITY_FAMILIES",
    "run_identity_checks",
]

DEFAULT_TOLERANCE = 1e-8


def _finalize(identity_id, p, indices, lhs, rhs, terms_used, tail, magnitude, tolerance, note="") -> VerificationReport:
    """lhs against rhs, with the tail and the residual both judged
    against tolerance * max(|rhs|, M), magnitude the M of lhs's sum."""
    residual = abs(lhs - rhs)
    bound = tolerance * max(float(abs(rhs)), magnitude)
    certified = tail <= bound
    status = ("pass" if residual <= bound else "fail") if certified else "inconclusive"
    return VerificationReport(
        identity_id=identity_id,
        params=p,
        indices=indices,
        lhs=float(lhs),
        rhs=float(rhs),
        residual=float(residual),
        terms_used=terms_used,
        tail_estimate=float(tail),
        tolerance=tolerance,
        status=status,
        note=note,
    )


# largest cut-offs of the sums over the spectral index n and the basis index m
_N_CAP, _M_CAP = 2000, 320


def _bilinear_sum(u: Callable[[int], tuple], v: Callable[[int], tuple], t: Truncation, hard_cap: int, context):
    """Certified sum over k of u_k v_k, the value of every identity sum:
    (Decimal value, terms used, tail estimate, M), with M the sum of the
    magnitudes of the terms used, the sum's condition scale (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., 4.2).

    u(k) and v(k) are the k-th entries as (Decimal, float copy) pairs, read
    in order of k up to k = hard_cap.  The products of the float copies
    drive only the stopping rule, M and the tail bound; a product that
    overflows is formed from the Decimal entries.  The sum stops once
    _SMALL_RUN consecutive terms are each at most rel_tol M AND the recent
    term ratios certify a geometric tail below the same target; the tail
    estimate is inf when they never do within the cap.  The value is the
    sum of the products used, every product and the sum exact, rounded
    once in the decimal context given, so cancellation among terms of
    size 1e9 leaves no float noise."""
    xs, ys = [], []
    total = 0.0
    recent = collections.deque(maxlen=_SMALL_RUN)
    run = 0
    tail = math.inf
    for k in range(hard_cap + 1):
        x, fx = u(k)
        y, fy = v(k)
        xs.append(x)
        ys.append(y)
        term = abs(fx * fy)
        if not math.isfinite(term):
            term = abs(float(context.multiply(x, y)))
            if math.isinf(term):
                raise NonConvergenceError("bilinear term overflow")
        total += term
        recent.append(term)
        if term <= t.rel_tol * total:
            run += 1
            if run >= _SMALL_RUN:
                nz = [f for f in recent if f > 0.0]
                if len(nz) < 2:
                    tail = 0.0
                    break
                r = max(b / a for a, b in zip(nz, nz[1:]))
                # geometric extrapolation needs a contraction; keep
                # summing until the extrapolated tail itself is below
                # the relative target, not merely the last term
                if r < 0.995:
                    est = nz[-1] * r / (1.0 - r)
                    if est <= t.rel_tol * total:
                        tail = est
                        break
                run = 0
        else:
            run = 0
    return context.plus(_exact_dot(xs, ys)), k + 1, tail, total


# ---------------------------------------------------------------------------
# constants shared by the closed-form sides


def _kc(p: QParams, t: Truncation):
    """(q, b/a, aq/b; q)_inf / ((aq, bq; q)_inf), in p's scalar type."""
    q, a, b = p.q, p.a, p.b
    return (
        q_pochhammer_inf(q, q, t)
        * q_pochhammer_inf(b / a, q, t)
        * q_pochhammer_inf(a * q / b, q, t)
        / (q_pochhammer_inf(a * q, q, t) * q_pochhammer_inf(b * q, q, t))
    )


# ---------------------------------------------------------------------------
# the connection matrix of one verify task


def _branch_of_label(label: int) -> tuple:
    """Integer eigenvalue label -> (branch, branch index); nonnegative
    labels are the positive branch, negative labels the negative one."""
    return ("a", label) if label >= 0 else ("b", -label - 1)


class _Store:
    """The connection matrix u_mn = c_n a_m(lam_n) of one verify task at
    one parameter set p, truncation t and largest index K, with the sums
    that the identity families read from it.  Each task builds its own.

    Every sequence is computed one value at a time, as a sum first reads
    it, and kept; no value depends on how far a sum reads, so each is
    computed once:
    - `prefs`, the prefactors pref_0, pref_1, ...;
    - `c[branch]`, the normalization constants c_n (branch "a") and c'_n
      (branch "b");
    - `column(label)`, the eigencoefficients a_m(lam) of an integer label
      (n >= 0 for a q^(n+1), -n-1 for b q^(n+1)), each product
      pref_m P_m(lam) of the duality entries rounded once;
    - `recurrence`, the recurrence coefficients (A_n, C_n, d_n) of
      `_recurrence_entries` on `decimal_p`, the exact Decimals of p;
    - `rows[branch]`, the rows n = 0, 1, ... of u_mn, m = 0..K.  The
      degrees m <= n come from a forward sweep on `recurrence`, the
      degrees above from the column of lam_n's label, so no entry
      depends on K.
    Entries are (Decimal, float copy) pairs.  unitarity-rows, big-laguerre
    and sears read `row_sum`; unitarity-columns, dual, biortho and the
    three q-Meixner families read `label_sum`.

    Every entry, constant and sum is a Decimal of the one decimal context
    `context`, `_context_of(p)`, set apart from the caller's; a row is
    formed in it whole, and `recurrence`, which has no context of its
    own, is read only there.  c_0, c'_0 and Kc are formed there too, on
    `decimal_p`.  `value` is the one way out: a sum, or Kc, of Decimal
    parameters leaves as it is, any other as its float."""

    def __init__(self, p: QParams, t: Truncation, K: int):
        self.p, self.t, self.K = p, t, K
        self.exact = isinstance(p.q, decimal.Decimal)
        self.context = _context_of(p)
        self.prefs = _LazyList(_prefactor_entries(p))
        self.c = {branch: _LazyList(_normalization_entries(p, branch, t)) for branch in "ab"}
        with decimal.localcontext(self.context):
            self.decimal_p = QParams(*map(decimal.Decimal, p))
        self.recurrence = _LazyList(_recurrence_entries(self.decimal_p))
        self.rows = {branch: _LazyList(self._rows(branch)) for branch in "ab"}
        self._columns: dict = {}
        self._sums: dict = {}
        self._row_sums: dict = {}
        # branch -> the degree-free part of the q-Meixner norm, which
        # _meixner_norm fills on its first cell of the branch
        self.meixner_quotients: dict = {}

    @functools.cached_property
    def kc(self):
        with decimal.localcontext(self.context):
            return self.value(_kc(self.decimal_p, self.t))

    def value(self, x: decimal.Decimal):
        """A sum as the verifiers read it: x itself for Decimal parameters, its float for float ones."""
        return x if self.exact else float(x)

    def label_c(self, label: int):
        """c_n of the label n >= 0 or c'_n of -n-1, read as a sum is."""
        branch, n = _branch_of_label(label)
        return self.value(self.c[branch].at(n))

    def column(self, label: int) -> _LazyList:
        if label not in self._columns:
            self._columns[label] = _LazyList(self._column(label))
        return self._columns[label]

    def _column(self, label: int):
        prefs = map(self.prefs.at, itertools.count())
        for x in _coefficient_entries(self.p, *_branch_of_label(label), prefs):
            yield x, float(x)

    def _rows(self, branch: str):
        K, c = self.K, self.c[branch]
        for n in itertools.count():
            with decimal.localcontext(self.context):
                top = min(n, K)
                coeffs = _a_coeff_logs(branch, n, top, self.prefs.upto(top), self.decimal_p, self.recurrence)
                if n < K:
                    column = self.column(n if branch == "a" else -n - 1)
                    coeffs += [column.at(m)[0] for m in range(n + 1, K + 1)]
                c_n = c.at(n)
                row = [c_n * x for x in coeffs]
            yield [(y, float(y)) for y in row]

    def label_sum(self, i: int, j: int):
        """Certified sum over m of a_m(lam_i) a_m(lam_j), (value, terms,
        tail, M), kept for the unordered pair {i, j}: exact products and
        their float copies commute, so (j, i) would give the same bits.  The
        value is a float for float parameters and a Decimal for Decimal ones."""
        key = (min(i, j), max(i, j))
        if key not in self._sums:
            value, *rest = _bilinear_sum(self.column(i).at, self.column(j).at, self.t, _M_CAP, self.context)
            self._sums[key] = self.value(value), *rest
        return self._sums[key]

    def row_sum(self, i: int, j: int):
        """sum_n u_in u_jn over the a-branch rows plus that over the
        b-branch rows: (value, terms, tail, M), kept by the unordered pair
        {i, j} as the label sums are.  Each branch stops at its own terms."""
        key = (min(i, j), max(i, j))
        if key not in self._row_sums:
            a, b = (
                _bilinear_sum(lambda n: rows.at(n)[i], lambda n: rows.at(n)[j], self.t, _N_CAP, self.context)
                for rows in self.rows.values()
            )
            self._row_sums[key] = self.value(self.context.add(a[0], b[0])), a[1] + b[1], a[2] + b[2], a[3] + b[3]
        return self._row_sums[key]


# ---------------------------------------------------------------------------
# the records: each cell's kept sum, scaled, against its closed form
#
# A cell reads the row sum of its degrees, or the label sum of f_n (label n)
# or g_n (label -n-1); the scale and the side take the degrees or labels
# the sum read.  Each q-Meixner term w_m M_n(q^-m) M_n2(q^-m) is a dual
# term a_m(lam_i) a_m(lam_j), and each biortho term psi_k(lam_i)
# phi_k(lam_j) a unitarity-columns one (psi = D a, phi = D^-1 a for a
# diagonal D).


def _row_sum(i: int, j: int, store: _Store):
    """The degrees (i, j) and their row sum (value, terms, tail, M)."""
    return (i, j), store.row_sum(i, j)


def _label_sum(i: int, j: int, store: _Store):
    """The labels (i, j) and their label sum (value, terms, tail, M); for
    i, j >= 0 the sum of f_i against f_j."""
    return (i, j), store.label_sum(i, j)


def _gg_sum(n: int, n2: int, store: _Store):
    """The label sum of g_n against g_n2."""
    return _label_sum(-n - 1, -n2 - 1, store)


def _fg_sum(n: int, n2: int, store: _Store):
    """The label sum of f_n against g_n2."""
    return _label_sum(n, -n2 - 1, store)


def _kc_over_prefs(m: int, m2: int, store: _Store):
    """Kc / (pref_m pref_m2): a row sum's terms c_n^2 a_m a_m2 are
    (pref_m pref_m2 / Kc) w_n P_m P_m2 (the factor -b/a is in c'_n^2)."""
    return store.value(decimal.Decimal(store.kc) / (store.prefs.at(m) * store.prefs.at(m2)))


def _c_product(i: int, j: int, store: _Store):
    """c_i c_j of the labels i, j: the columns of u_mn from the label sums."""
    return store.label_c(i) * store.label_c(j)


def _big_laguerre_norm(m: int, m2: int, store: _Store):
    """h_m delta_{m m2}, h_m = Kc (q;q)_m / ((aq, bq; q)_m) (-ab)^m q^(m(m+3)/2):
    the orthogonality of P_m and P_m2 over the two-branch discrete measure."""
    if m != m2:
        return 0
    p = store.p
    return (
        store.kc
        * q_pochhammer(p.q, p.q, m)
        / (q_pochhammer(p.a * p.q, p.q, m) * q_pochhammer(p.b * p.q, p.q, m))
        * (-p.a * p.b) ** m
        * p.q ** (m * (m + 3) // 2)
    )


def _sears_product(m: int, m2: int, store: _Store):
    """Kc, the closed-form product of the degree-zero sum."""
    return store.kc


def _inverse_c_squared(i: int, j: int, store: _Store):
    """delta_ij / c_i^2: the orthogonality of the dual functions under the
    weight (aq,bq;q)_m / ((q;q)_m (-abq^2)^m) q^(-m(m-1)/2), the squared
    prefactor."""
    return store.label_c(i) ** -2 if i == j else 0


def _meixner_norm(i: int, j: int, store: _Store):
    """delta_ij times the norm of M_n(q^-m; first, -second/first; q), with
    (first, second, n) = (a, b, n) for the label n >= 0 and (b, a, n) for
    -n-1: the orthogonality of meixner and of meixner-negb, b < 0."""
    if i != j:
        return 0
    branch, n = _branch_of_label(i)
    p, t = store.p, store.t
    q = p.q
    first, second = _roles(branch, p.a, p.b)
    quotients = store.meixner_quotients
    if branch not in quotients:
        quotients[branch] = q_pochhammer_inf(second / first, q, t) / q_pochhammer_inf(second * q, q, t)
    return (
        quotients[branch]
        * q_pochhammer(first * q / second, q, n)
        * q_pochhammer(q, q, n)
        / q_pochhammer(first * q, q, n)
        * q**-n
    )


def _delta(i: int, j: int, store: _Store):
    """delta_ij: the unitarity of u_mn."""
    return 1 if i == j else 0


def _vanishes(i: int, j: int, store: _Store):
    """0: the mixed cancellation
    sum_m (-1)^m q^(m(m-1)/2)/(q;q)_m M_n(q^-m; a,-b/a) M_n2(q^-m; b,-a/b)."""
    return 0


def _sears_cross_check(lhs, store: _Store):
    """(note, holds): the degree-zero sum against its equivalent
    basic-series form, prefactored 2phi1 evaluations at argument q."""
    p, t = store.p, store.t
    q, a, b = p.q, p.a, p.b
    lhs_phi = (
        q_pochhammer_inf(a * q / b, q, t)
        * q_pochhammer_inf(q, q, t)
        / q_pochhammer_inf(a * q, q, t)
        * phi_2_1(a * q, 0 * q, a * q / b, q, q, t)
        - (b / a)
        * q_pochhammer_inf(b * q / a, q, t)
        * q_pochhammer_inf(q, q, t)
        / q_pochhammer_inf(b * q, q, t)
        * phi_2_1(b * q, 0 * q, b * q / a, q, q, t)
    )
    cross = float(abs(lhs - lhs_phi))
    return f"basic-series form agrees to {cross:.3e}", cross <= 1e-11 * float(1 + abs(lhs))


def _e_q_zeros(lhs, store: _Store):
    """(note, holds) of eq-zero, whose every term is E_q at a zero."""
    return "every term reduces to E_q at a zero -q^-j", True


# ---------------------------------------------------------------------------
# sweep driver


class _Grid(NamedTuple):
    """The cells (i, j) of indices(K) x indices(K), those with i <= j
    unless full, K the largest index of a sweep."""

    indices: Callable[[int], range]
    full: bool = False

    def cells(self, K: int) -> list:
        ix = self.indices(K)
        return [(i, j) for i in ix for j in ix if self.full or i <= j]

    def holds(self, i: int, j: int) -> bool:
        """Whether (i, j), in either order, is a cell of the grid of some K."""
        ix = self.indices(abs(i) + abs(j))
        return i in ix and j in ix


_DEGREE_PAIRS = _Grid(lambda K: range(K + 1))
_DEGREE_GRID = _Grid(lambda K: range(K + 1), full=True)
# K+1 labels of each branch
_LABEL_PAIRS = _Grid(lambda K: range(-(K + 1), K + 1))
_ZERO_CELL = _Grid(lambda K: range(1))

# each record id's row: its index grid, the kept sum a cell reads, the scale
# of that sum (None: read as it is), its closed-form side and an optional
# check (lhs, store) -> (note, holds): a record passes only if it holds
_RECORDS = {
    "big-laguerre": (_DEGREE_PAIRS, _row_sum, _kc_over_prefs, _big_laguerre_norm),
    "sears": (_ZERO_CELL, _row_sum, _kc_over_prefs, _sears_product, _sears_cross_check),
    "unitarity-rows": (_DEGREE_PAIRS, _row_sum, None, _delta),
    "unitarity-columns": (_LABEL_PAIRS, _label_sum, _c_product, _delta),
    "dual-ff": (_DEGREE_PAIRS, _label_sum, None, _inverse_c_squared),
    "dual-gg": (_DEGREE_PAIRS, _gg_sum, None, _inverse_c_squared),
    "dual-fg": (_DEGREE_GRID, _fg_sum, None, _inverse_c_squared),
    "meixner": (_DEGREE_PAIRS, _label_sum, None, _meixner_norm),
    "meixner-negb": (_DEGREE_PAIRS, _gg_sum, None, _meixner_norm),
    "eq-zero": (_DEGREE_GRID, _fg_sum, None, _vanishes, _e_q_zeros),
    "biortho": (_LABEL_PAIRS, _label_sum, _c_product, _delta),
}


def _family(identity_id: str) -> str:
    """unitarity-rows and unitarity-columns form the family "unitarity", the
    three dual-* ids "dual"; every other id is a family of its own."""
    head = identity_id.partition("-")[0]
    return head if head in ("unitarity", "dual") else identity_id


# each family's ids, in the table's order
_FAMILIES = {fam: [rid for rid in _RECORDS if _family(rid) == fam] for fam in map(_family, _RECORDS)}

IDENTITY_FAMILIES = tuple(_FAMILIES)


def _record(identity_id: str, i: int, j: int, store: _Store, tolerance: float) -> VerificationReport:
    """The record of the cell (i, j) of the grid of identity_id: its kept
    sum, times the scale with the tail and M times its magnitude, against
    its closed form."""
    _, kept, scale, side, *check = _RECORDS[identity_id]
    indices, (lhs, terms, tail, total) = kept(i, j, store)
    if scale is not None:
        s = scale(*indices, store)
        size = abs(float(s))
        lhs, tail, total = s * lhs, size * tail, size * total
    note, holds = check[0](lhs, store) if check else ("", True)
    rep = _finalize(identity_id, store.p, (i, j), lhs, side(*indices, store), terms, tail, total, tolerance, note)
    if not holds and rep.status == "pass":
        rep = rep._replace(status="fail", note=note + " (cross-check failed)")
    return rep


def _check_tolerance(tolerance: float) -> None:
    """DomainError unless the verdict tolerance lies in (0, inf)."""
    if not 0 < tolerance < math.inf:
        raise DomainError("tolerance must be positive and finite")


def verify_record(
    identity_id: str,
    i: int,
    j: int,
    p: QParams,
    t: Truncation = Truncation(),
    tolerance: float = DEFAULT_TOLERANCE,
) -> VerificationReport:
    """The record of one identity id at the cell (i, j), on a store of its
    own and in that store's decimal context, as a sweep runs it: every
    record r of run_identity_checks(family, p, t, K, tolerance) equals
    verify_record(r.identity_id, *r.indices, p, t, tolerance) bit for bit."""
    if identity_id not in _RECORDS:
        raise DomainError(f"unknown identity id: {identity_id!r}")
    _check_tolerance(tolerance)
    if not _RECORDS[identity_id][0].holds(i, j):
        raise DomainError(f"{identity_id} has no cell {(i, j)}")
    store = _Store(p, t, max(i, j, 0))
    with decimal.localcontext(store.context):
        return _record(identity_id, i, j, store, tolerance)


def run_identity_checks(
    identity: str,
    p: QParams,
    t: Truncation = Truncation(),
    index_max: int = 8,
    tolerance: float = DEFAULT_TOLERANCE,
    store: _Store | None = None,
) -> list:
    """All checks of one identity family over its index grids, sorted by
    (identity_id, indices), run in the store's decimal context.

    store is the `_Store(p, t, index_max)` of the verify task the sweep
    belongs to; the families that read one store share its coefficients
    and sums.  A call without one builds its own, which "all" gives every
    family."""
    if index_max < 0:
        raise DomainError("index_max must be nonnegative")
    _check_tolerance(tolerance)
    if store is None:
        store = _Store(p, t, index_max)
    elif (store.p, store.t, store.K) != (p, t, index_max):
        raise ValueError("store built for another verify task")
    if identity == "all":
        return [r for fam in IDENTITY_FAMILIES for r in run_identity_checks(fam, p, t, index_max, tolerance, store)]
    if identity not in _FAMILIES:
        raise DomainError(f"unknown identity family: {identity!r}")
    with decimal.localcontext(store.context):
        reports = [
            _record(identity_id, i, j, store, tolerance)
            for identity_id in _FAMILIES[identity]
            for i, j in _RECORDS[identity_id][0].cells(index_max)
        ]
    reports.sort(key=lambda r: (r.identity_id, r.indices))
    return reports
