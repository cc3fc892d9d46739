"""Numerical verification engines for the orthogonality, unitarity,
duality and biorthogonality identities.

Every verifier returns a :class:`VerificationReport` whose pass/fail
verdict is meaningful only when the truncation tail of the underlying
infinite sum has been certified below tolerance; otherwise the report
carries the third status "inconclusive".

Numerical strategy: sums over the spectral index n (eigenvalue label)
have geometrically decaying weights and are summed in plain floats with
compensation; sums over the basis index m have superexponentially
growing weights q^(-m(m-1)/2) balanced by the superexponential decay of
the polynomial values at spectral points, so their terms are formed in
log-magnitude/sign representation from extended-precision coefficient
sequences before being accumulated in floats.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable

import mpmath

from qortho.qseries import (
    DomainError,
    NeumaierSum,
    NonConvergenceError,
    QParams,
    Truncation,
    phi_2_1,
    q_pochhammer,
    q_pochhammer_inf,
)
from qortho.polynomials import (
    _WORKING_DPS,
    _RecurrenceTable,
    _working_coefficients,
    big_q_laguerre_recurrence,
    q_meixner,
)
from qortho.operators import (
    _Normalization,
    _a_coeff_logs,
    _prefactors,
    _spectral_coeff_mpf,
)

__all__ = [
    "VerificationReport",
    "RowCol",
    "DualPair",
    "dual_weight",
    "meixner_weight",
    "negative_b_meixner_weight",
    "verify_big_laguerre_orthogonality",
    "verify_identity_3637",
    "verify_unitarity",
    "verify_dual_orthogonality",
    "verify_meixner_orthogonality",
    "verify_negative_b_meixner_orthogonality",
    "verify_Eq_zero_identity",
    "verify_biorthogonality",
    "IDENTITY_FAMILIES",
    "run_identity_checks",
]

DEFAULT_TOLERANCE = 1e-8


@dataclass(frozen=True)
class VerificationReport:
    """Structured record of one identity check.

    For certified reports: passed <=> residual <= tolerance * (1 +
    max(|lhs|, |rhs|)).  When the tail estimate exceeds that bound the
    status is "inconclusive" and passed is forced False, since the
    computed lhs itself is then unreliable.
    """

    identity_id: str
    params: QParams
    indices: tuple
    lhs: float
    rhs: float
    residual: float
    terms_used: int
    tail_estimate: float
    passed: bool
    tolerance: float
    status: str
    note: str = ""


class RowCol(Enum):
    ROWS = "rows"
    COLUMNS = "columns"


class DualPair(Enum):
    FF = "ff"
    GG = "gg"
    FG = "fg"


def _finalize(identity_id, p, indices, lhs, rhs, terms_used, tail, tolerance, note="") -> VerificationReport:
    residual = abs(lhs - rhs)
    scale = 1.0 + max(abs(lhs), abs(rhs))
    certified = tail <= tolerance * scale
    residual_ok = residual <= tolerance * scale
    if not certified:
        status = "inconclusive"
        passed = False
    else:
        status = "pass" if residual_ok else "fail"
        passed = residual_ok
    return VerificationReport(
        identity_id=identity_id,
        params=p,
        indices=indices,
        lhs=float(lhs),
        rhs=float(rhs),
        residual=float(residual),
        terms_used=terms_used,
        tail_estimate=float(tail),
        passed=passed,
        tolerance=tolerance,
        status=status,
        note=note,
    )


def _certified_sum(terms: Callable[[int], float], t: Truncation, hard_cap: int = 2000):
    """Compensated sum of terms(0), terms(1), ... with an empirical
    geometric tail bound.

    Stops once small_run consecutive terms are below rel_tol relative to
    the running sum AND the recent term ratios certify a geometric tail.
    Returns (value, terms_used, tail_estimate); tail_estimate is inf when
    the ratio test never certifies within the cap.
    """
    acc = NeumaierSum()
    recent: list = []
    run = 0
    tail = math.inf
    for m in range(hard_cap + 1):
        term = terms(m)
        acc.add(term)
        recent.append(abs(term))
        if len(recent) > max(t.small_run, 4):
            recent.pop(0)
        if abs(term) <= t.rel_tol * (1.0 + abs(acc.value)):
            run += 1
            if run >= t.small_run:
                nz = [x for x in recent if x > 0.0]
                if len(nz) < 2:
                    tail = 0.0
                    break
                ratios = [b / a for a, b in zip(nz, nz[1:]) if a > 0.0]
                r = max(ratios) if ratios else 0.0
                # geometric extrapolation needs a contraction; keep
                # summing until the extrapolated tail itself is below
                # the relative target, not merely the last term
                if r < 0.995:
                    est = nz[-1] * r / (1.0 - r)
                    if est <= t.rel_tol * (1.0 + abs(acc.value)):
                        tail = est
                        break
                run = 0
        else:
            run = 0
    return acc.value, m + 1, tail


# ---------------------------------------------------------------------------
# sweep-owned pair tables: every identity over the spectral index or over m
# is a sum over k of term(i, j, k), and one table serves every (i, j) pair of
# a sweep


class _PairSum:
    """A table whose pair_sum(i, j, t) is the certified sum over k of
    term(i, j, k)."""

    hard_cap = 2000

    def pair_sum(self, i: int, j: int, t: Truncation):
        return _certified_sum(lambda k: self.term(i, j, k), t, self.hard_cap)


class _PairTable(_PairSum):
    """The weighted bilinear family sum_k w_k u(i, k) v(j, k).

    The weights are built on first use, in order of k, from w0 and the
    recurrence w_(k+1) = step(k, w_k); u and v (v defaults to u) are value
    functions (i, k) -> value that keep their own memo.  A positive
    family's weights are checked as they are read."""

    def __init__(self, w0, step, u, v=None, positive: bool = True):
        self._weights = [w0]
        self._step = step
        self._u = u
        self._v = u if v is None else v
        self._positive = positive

    def weight(self, k: int):
        while len(self._weights) <= k:
            self._weights.append(self._step(len(self._weights) - 1, self._weights[-1]))
        w = self._weights[k]
        if self._positive and not w > 0:
            raise DomainError("orthogonality weight lost positivity")
        return w

    def term(self, i: int, j: int, k: int):
        return self.weight(k) * self._u(i, k) * self._v(j, k)


# ---------------------------------------------------------------------------
# constants shared by the closed-form sides


def _kc(p: QParams, t: Truncation) -> float:
    """(q, b/a, aq/b; q)_inf / ((aq, bq; q)_inf)."""
    q, a, b = p.q, p.a, p.b
    return (
        q_pochhammer_inf(q, q, t)
        * q_pochhammer_inf(b / a, q, t)
        * q_pochhammer_inf(a * q / b, q, t)
        / (q_pochhammer_inf(a * q, q, t) * q_pochhammer_inf(b * q, q, t))
    )


def dual_weight(m: int, p: QParams) -> float:
    """Scalar-product weight of the dual-function space:

        (aq,bq;q)_m / ((q;q)_m (-abq^2)^m) q^(-m(m-1)/2);

    equals the squared eigencoefficient prefactor.  Strictly positive for
    b < 0 but grows superexponentially, so the verifiers never evaluate
    it in isolation at large m."""
    q, a, b = p.q, p.a, p.b
    w = (
        q_pochhammer(a * q, q, m)
        * q_pochhammer(b * q, q, m)
        / (q_pochhammer(q, q, m) * (-a * b * q * q) ** m)
        * q ** (-m * (m - 1) / 2.0)
    )
    if not w > 0:
        raise DomainError("dual weight lost positivity; parameter domain violated")
    return w


def meixner_weight(m: int, p: QParams) -> float:
    """Weight of the positive-parameter q-Meixner space (the dual weight
    with the upper-branch rescaling folded in):

        (aq;q)_m (-b/a)^m q^(m(m-1)/2) / ((bq;q)_m (q;q)_m)."""
    q, a, b = p.q, p.a, p.b
    w = (
        q_pochhammer(a * q, q, m)
        * (-b / a) ** m
        * q ** (m * (m - 1) / 2.0)
        / (q_pochhammer(b * q, q, m) * q_pochhammer(q, q, m))
    )
    if not w > 0:
        raise DomainError("q-Meixner weight lost positivity; parameter domain violated")
    return w


def negative_b_meixner_weight(m: int, p: QParams) -> float:
    """Weight of the negative-parameter q-Meixner space:

        (bq;q)_m (-a/b)^m q^(m(m-1)/2) / ((aq;q)_m (q;q)_m)."""
    q, a, b = p.q, p.a, p.b
    w = (
        q_pochhammer(b * q, q, m)
        * (-a / b) ** m
        * q ** (m * (m - 1) / 2.0)
        / (q_pochhammer(a * q, q, m) * q_pochhammer(q, q, m))
    )
    if not w > 0:
        raise DomainError("q-Meixner weight lost positivity; parameter domain violated")
    return w


# ---------------------------------------------------------------------------
# the q-integral orthogonality of the polynomial family


def _spectral_table(branch: str, K: int, p: QParams, t: Truncation, recurrence: _RecurrenceTable) -> _PairTable:
    """P_0..P_K at the spectral points lam_n = c q^(n+1) of one branch,
    with the weights w_n = (q^(n+1); q)_inf (c q^(n+1)/d; q)_inf /
    (c q^(n+1); q)_inf q^n for branch value c and opposite value d.  Row n
    is one forward sweep on the recurrence table of p, built on first
    use."""
    q = p.q
    c, d = (p.a, p.b) if branch == "a" else (p.b, p.a)
    w0 = (
        q_pochhammer_inf(q, q, t)
        * q_pochhammer_inf(c * q / d, q, t)
        / q_pochhammer_inf(c * q, q, t)
    )
    rows: list = []

    def value(m: int, n: int):
        while len(rows) <= n:
            rows.append(big_q_laguerre_recurrence(K, c * q ** (len(rows) + 1), p, coeffs=recurrence))
        return rows[n][m]

    def step(n: int, w):
        return w * q * (1 - c * q ** (n + 1)) / ((1 - q ** (n + 1)) * (1 - c * q ** (n + 1) / d))

    return _PairTable(w0, step, value)


def _branch_tables(make, K: int, p: QParams, t: Truncation, recurrence: _RecurrenceTable) -> tuple:
    """The a-branch and the b-branch table of a sum over spectral points,
    both reading one recurrence table."""
    return make("a", K, p, t, recurrence), make("b", K, p, t, recurrence)


def _two_branch_sum(tables: tuple, i: int, j: int, t: Truncation, scale_b: float = 1.0):
    """The pair sum of the a-branch table plus scale_b times that of the
    b-branch table: (value, terms used, tail)."""
    sum_a, used_a, tail_a = tables[0].pair_sum(i, j, t)
    sum_b, used_b, tail_b = tables[1].pair_sum(i, j, t)
    return sum_a + scale_b * sum_b, used_a + used_b, tail_a + abs(scale_b) * tail_b


def verify_big_laguerre_orthogonality(
    m: int,
    m2: int,
    p: QParams,
    t: Truncation = Truncation(),
    tolerance: float = DEFAULT_TOLERANCE,
) -> VerificationReport:
    """Orthogonality of the polynomial family over its two-branch
    discrete measure: the weighted sums over both spectral branches
    against the closed-form norm times a Kronecker delta."""
    tables = _branch_tables(_spectral_table, max(m, m2), p, t, _RecurrenceTable(p))
    return _verify_big_laguerre(m, m2, p, t, tolerance, tables)


def _verify_big_laguerre(m: int, m2: int, p: QParams, t: Truncation, tolerance: float, tables: tuple):
    lhs, used, tail = _two_branch_sum(tables, m, m2, t, -p.b / p.a)
    rhs = 0.0
    if m == m2:
        rhs = (
            _kc(p, t)
            * q_pochhammer(p.q, p.q, m)
            / (q_pochhammer(p.a * p.q, p.q, m) * q_pochhammer(p.b * p.q, p.q, m))
            * (-p.a * p.b) ** m
            * p.q ** (m * (m + 3) / 2.0)
        )
    return _finalize("big-laguerre", p, (m, m2), lhs, rhs, used, tail, tolerance)


def verify_identity_3637(
    p: QParams,
    t: Truncation = Truncation(),
    tolerance: float = DEFAULT_TOLERANCE,
) -> VerificationReport:
    """The three-term two-sum evaluation (the degree-zero orthogonality)
    checked against its closed-form product value, with the equivalent
    basic-series form evaluated as a cross-check."""
    q, a, b = p.q, p.a, p.b
    lhs, used, tail = _two_branch_sum(_branch_tables(_spectral_table, 0, p, t, _RecurrenceTable(p)), 0, 0, t, -b / a)
    rhs = _kc(p, t)

    # equivalent form: prefactored 2phi1 evaluations at argument q
    lhs_phi = (
        q_pochhammer_inf(a * q / b, q, t)
        * q_pochhammer_inf(q, q, t)
        / q_pochhammer_inf(a * q, q, t)
        * phi_2_1(a * q, 0.0, a * q / b, q, q, t)
        - (b / a)
        * q_pochhammer_inf(b * q / a, q, t)
        * q_pochhammer_inf(q, q, t)
        / q_pochhammer_inf(b * q, q, t)
        * phi_2_1(b * q, 0.0, b * q / a, q, q, t)
    )
    cross = float(abs(lhs - lhs_phi))
    note = f"basic-series form agrees to {cross:.3e}"
    rep = _finalize("sears", p, (0, 0), lhs, rhs, used, tail, tolerance, note)
    if cross > 1e-11 * (1.0 + abs(lhs)) and rep.status == "pass":
        rep = replace(rep, status="fail", passed=False, note=note + " (cross-check failed)")
    return rep


# ---------------------------------------------------------------------------
# bilinear sums over the basis index (dual orthogonality, unitarity columns,
# biorthogonality)


def _branch_of_label(label: int) -> tuple:
    """Integer eigenvalue label -> (branch, branch index); nonnegative
    labels are the positive branch, negative labels the negative one."""
    return ("a", label) if label >= 0 else ("b", -label - 1)


def _bilinear_terms(vals1, vals2) -> list:
    """Float terms vals1[m] * vals2[m] with the products formed in
    mpmath: full relative accuracy per term even where the two factors'
    magnitudes span hundreds of decades in opposite directions."""
    out = []
    with mpmath.workdps(_WORKING_DPS):
        for v1, v2 in zip(vals1, vals2):
            f = float(v1 * v2)
            if math.isinf(f):
                raise NonConvergenceError("bilinear term overflow")
            out.append(f)
    return out


# largest basis cut-off of the bilinear sums over m
_M_CAP = 320


class _LabelTable:
    """Eigencoefficients a_0..a_m_cut and normalization constant of each
    integer eigenvalue label, and the sums over the basis index m of
    products of the coefficients of two labels, for every family of such
    sums that one verify task runs.

    A label keeps the longest coefficient list any pair asked for, and a
    shorter cut reads a slice of it.  The prefactors pref_0..pref_M are
    one list, rebuilt only when a longer cut is needed; it is a
    sequential product, so its slices equal the shorter lists.  The
    coefficients come from the duality closed form, whose entries do not
    depend on the cut-off they were computed for."""

    def __init__(self, p: QParams, t: Truncation):
        self.p, self.t = p, t
        self._prefs: list = []
        self._coeffs: dict = {}
        self._norm = _Normalization(p, t)
        self._c: dict = {}
        self._sums: dict = {}

    def coeffs(self, label: int, m_cut: int) -> list:
        hit = self._coeffs.get(label)
        if hit is None or len(hit) <= m_cut:
            if len(self._prefs) <= m_cut:
                self._prefs = _prefactors(self.p, m_cut)
            hit = _spectral_coeff_mpf(self.p, *_branch_of_label(label), m_cut, self._prefs)
            self._coeffs[label] = hit
        return hit[: m_cut + 1]

    def c(self, label: int) -> float:
        if label not in self._c:
            if label >= 0:
                self._c[label] = self._norm.c(label)
            else:
                self._c[label] = self._norm.cprime(-label - 1)
        return self._c[label]

    def pair_sum(self, i: int, j: int, t: Truncation):
        """Certified sum over m of a_m(lam_i) a_m(lam_j), computed on the
        first request for the unordered pair {i, j} and kept: the mpmath
        products commute exactly, so (j, i) would give the same bits."""
        key = (min(i, j), max(i, j), t)
        if key not in self._sums:
            self._sums[key] = self._doubling_sum(i, j, t)
        return self._sums[key]

    def _doubling_sum(self, i: int, j: int, t: Truncation):
        """The sum with the cut-off m_cut doubling from 48 up to _M_CAP
        until the tail is certified."""
        m_cut = 48
        while True:
            arr = _bilinear_terms(self.coeffs(i, m_cut), self.coeffs(j, m_cut))
            value, used, tail = _certified_sum(lambda m: arr[m], t, hard_cap=m_cut)
            if tail <= t.rel_tol * (1.0 + abs(value)) or m_cut >= _M_CAP:
                return value, used, tail
            m_cut = min(2 * m_cut, _M_CAP)


class _Store:
    """What the identity families of one verify task share at one
    parameter set: the recurrence table `_working_coefficients(p)`, read
    by the forward coefficient rows of unitarity-rows, and the label
    table, whose sums unitarity-columns, dual and biortho all read.  Each
    task builds its own, for its p and t."""

    def __init__(self, p: QParams, t: Truncation):
        self.recurrence = _working_coefficients(p)
        self.labels = _LabelTable(p, t)


def verify_dual_orthogonality(
    which: DualPair,
    n: int,
    n2: int,
    p: QParams,
    t: Truncation = Truncation(),
    tolerance: float = DEFAULT_TOLERANCE,
) -> VerificationReport:
    """Orthogonality of the dual functions under the weight
    (aq,bq;q)_m / ((q;q)_m (-abq^2)^m) q^(-m(m-1)/2).

    That weight equals the squared eigencoefficient prefactor, so each
    term w_m f f' is formed as the product of the two eigencoefficient
    values in extended precision; the cross case (one function from each
    branch) is an exact cancellation handled by the same extended-
    precision coefficients."""
    return _verify_dual(which, n, n2, p, t, tolerance, _Store(p, t).labels)


def _verify_dual(which: DualPair, n: int, n2: int, p: QParams, t: Truncation, tolerance: float, table: _LabelTable):
    if n < 0 or n2 < 0:
        raise DomainError("dual indices must be nonnegative")
    which = DualPair(which)
    # f_n is the eigencoefficient sequence of label n, g_n that of label -n-1
    i = n if which is not DualPair.GG else -n - 1
    j = n2 if which is DualPair.FF else -n2 - 1
    lhs, used, tail = table.pair_sum(i, j, t)
    rhs = table.c(i) ** -2.0 if i == j else 0.0
    return _finalize(f"dual-{which.value}", p, (n, n2), lhs, rhs, used, tail, tolerance)


class _RowTable(_PairSum):
    """Coefficient rows of one spectral branch for the unitarity-rows
    sums sum_n c_n^2 a_i(lam_n) a_j(lam_n).  Row n holds the signed logs of
    a_0..a_K(lam_n) and 2 log10 c_n, and a term is formed from them in log
    form; rows are built on first use, in order of n, and shared by every
    (i, j) pair with max(i, j) <= K.  The n-independent prefactors
    pref_0..pref_K are built once with the table; rows n >= K come from
    forward sweeps on the recurrence table `_working_coefficients(p)`, rows
    n < K from the duality closed form."""

    hard_cap = 700

    def __init__(self, branch: str, K: int, p: QParams, t: Truncation, recurrence: _RecurrenceTable):
        self.branch, self.K, self.p, self.t = branch, K, p, t
        self._recurrence = recurrence
        norm = _Normalization(p, t)
        self._cfun = norm.c if branch == "a" else norm.cprime
        self._prefs = _prefactors(p, K)
        self._rows: list = []

    def row(self, n: int) -> tuple:
        while len(self._rows) <= n:
            k = len(self._rows)
            s, l = _a_coeff_logs(self.p, self.branch, k, self.K, self._prefs, self._recurrence)
            self._rows.append((s, l, 2.0 * math.log10(self._cfun(k))))
        return self._rows[n]

    def term(self, i: int, j: int, n: int) -> float:
        s, l, lc = self.row(n)
        lg = l[i] + l[j] + lc
        if lg == -math.inf or lg < -300:
            return 0.0
        return s[i] * s[j] * 10.0**lg


def _verify_rows(i: int, j: int, p: QParams, t: Truncation, tolerance: float, tables: tuple):
    if i < 0 or j < 0:
        raise DomainError("row indices must be nonnegative")
    lhs, used, tail = _two_branch_sum(tables, i, j, t)
    rhs = 1.0 if i == j else 0.0
    return _finalize("unitarity-rows", p, (i, j), lhs, rhs, used, tail, tolerance)


def verify_unitarity(
    rowcol: RowCol,
    i: int,
    j: int,
    p: QParams,
    t: Truncation = Truncation(),
    tolerance: float = DEFAULT_TOLERANCE,
) -> VerificationReport:
    """Row and column normalization of the connection matrix
    u_{mn} = c_n a_m(lam_n), lam indexed over both branches.

    Rows sum u_in u_jn over all eigenvalue labels (both branches);
    columns sum over the basis index and are the dual sums with the
    normalization constants attached.  Rows express the same identity as
    the polynomial orthogonality, rescaled by pref_i pref_j / Kc."""
    rowcol = RowCol(rowcol)
    store = _Store(p, t)
    if rowcol is RowCol.ROWS:
        return _verify_rows(i, j, p, t, tolerance, _branch_tables(_RowTable, max(i, j), p, t, store.recurrence))
    return _verify_columns("unitarity-columns", i, j, p, t, tolerance, store.labels)


def _verify_columns(identity_id: str, i: int, j: int, p: QParams, t: Truncation, tolerance: float, table: _LabelTable):
    """c_i c_j sum_m a_m(lam_i) a_m(lam_j) against delta_ij, for the
    unitarity columns and for biorthogonality."""
    value, used, tail = table.pair_sum(i, j, t)
    ci, cj = table.c(i), table.c(j)
    lhs = ci * cj * value
    rhs = 1.0 if i == j else 0.0
    return _finalize(identity_id, p, (i, j), lhs, rhs, used, ci * cj * tail, tolerance)


def verify_biorthogonality(
    m: int,
    n: int,
    p: QParams,
    t: Truncation = Truncation(),
    tolerance: float = DEFAULT_TOLERANCE,
) -> VerificationReport:
    """Biorthogonality of the two non-self-adjoint eigenvector families:
    <Psi_m, Phi_n> = delta_mn over integer labels covering both spectral
    branches, computed as the coefficient inner product scaled by the
    normalization constants.

    The coefficients satisfy psi_k(lam_m) phi_k(lam_n) = a_k(lam_m)
    a_k(lam_n) term for term (psi = D a, phi = D^-1 a for a diagonal D),
    so the sum is the unitarity-columns sum in the psi/phi basis."""
    return _verify_columns("biortho", m, n, p, t, tolerance, _Store(p, t).labels)


# ---------------------------------------------------------------------------
# q-Meixner orthogonality relations


def _meixner_values(first, second, q, t: Truncation):
    """(n, m) -> M_n(q^-m; first, -second/first; q), each value evaluated
    on first use and kept.  The scalars are floats or mpmath floats; an
    mpmath memo's values take the working precision of the calls that fill
    it, so build and read it inside one workdps block."""
    c = -second / first
    values: dict = {}

    def value(n: int, m: int):
        if (n, m) not in values:
            values[n, m] = q_meixner(n, m, first, c, q, t)
        return values[n, m]

    return value


def _meixner_table(first, second, p: QParams, t: Truncation) -> _PairTable:
    """sum_m (first*q;q)_m (-second/first)^m q^(m(m-1)/2) / ((second*q;q)_m (q;q)_m)
    M_n(q^-m) M_n2(q^-m) for the (first, -second/first) parameterization."""
    q = p.q
    c = -second / first

    def step(m: int, w):
        return w * (1 - first * q ** (m + 1)) * c * q**m / ((1 - second * q ** (m + 1)) * (1 - q ** (m + 1)))

    return _PairTable(1.0, step, _meixner_values(first, second, q, t))


def _meixner_params(identity_id: str, p: QParams) -> tuple:
    """(first, second) of a q-Meixner family: (a, b) for "meixner", (b, a)
    for "meixner-negb"."""
    return (p.a, p.b) if identity_id == "meixner" else (p.b, p.a)


def _meixner_rhs(first, second, n, p, t: Truncation) -> float:
    q = p.q
    return (
        q_pochhammer_inf(second / first, q, t)
        / q_pochhammer_inf(second * q, q, t)
        * q_pochhammer(first * q / second, q, n)
        * q_pochhammer(q, q, n)
        / q_pochhammer(first * q, q, n)
        * q ** (-float(n))
    )


def _verify_meixner(
    identity_id: str, n: int, n2: int, p: QParams, t: Truncation, tolerance: float, table: _PairTable
):
    lhs, used, tail = table.pair_sum(n, n2, t)
    rhs = _meixner_rhs(*_meixner_params(identity_id, p), n, p, t) if n == n2 else 0.0
    return _finalize(identity_id, p, (n, n2), lhs, rhs, used, tail, tolerance)


def verify_meixner_orthogonality(
    n: int,
    n2: int,
    p: QParams,
    t: Truncation = Truncation(),
    tolerance: float = DEFAULT_TOLERANCE,
) -> VerificationReport:
    """The classical q-Meixner orthogonality, realized here by the
    positive-parameter family M_n(q^-m; a, -b/a; q)."""
    return _verify_meixner("meixner", n, n2, p, t, tolerance, _meixner_table(p.a, p.b, p, t))


def verify_negative_b_meixner_orthogonality(
    n: int,
    n2: int,
    p: QParams,
    t: Truncation = Truncation(),
    tolerance: float = DEFAULT_TOLERANCE,
) -> VerificationReport:
    """The same orthogonality shape for the negative-parameter family
    M_n(q^-m; b, -a/b; q) with b < 0."""
    return _verify_meixner("meixner-negb", n, n2, p, t, tolerance, _meixner_table(p.b, p.a, p, t))


_EQ_ZERO_RETRY_DPS = 40


def _eq_zero_table(p: QParams, t: Truncation, mp: bool = False) -> _PairTable:
    """sum_m (-1)^m q^(m(m-1)/2)/(q;q)_m M_n(q^-m; a,-b/a) M_n2(q^-m; b,-a/b),
    in the scalars of p, or in mpmath floats when mp is set (then build
    and read the table inside workdps(_EQ_ZERO_RETRY_DPS))."""
    num = mpmath.mpf if mp else (lambda x: x)
    q, a, b = num(p.q), num(p.a), num(p.b)
    return _PairTable(
        1.0,
        lambda m, w: -w * q**m / (1 - q ** (m + 1)),
        _meixner_values(a, b, q, t),
        _meixner_values(b, a, q, t),
        positive=False,
    )


def _eq_zero_tables(p: QParams, t: Truncation) -> tuple:
    """The float eq-zero table of one sweep, and a function that returns
    the mpmath table for its retries, built on its first call; call it
    inside workdps(_EQ_ZERO_RETRY_DPS)."""
    return _eq_zero_table(p, t), functools.cache(functools.partial(_eq_zero_table, p, t, mp=True))


def verify_Eq_zero_identity(
    n: int,
    n2: int,
    p: QParams,
    t: Truncation = Truncation(),
    tolerance: float = DEFAULT_TOLERANCE,
) -> VerificationReport:
    """The mixed-family cancellation

        sum_m (-1)^m q^(m(m-1)/2)/(q;q)_m M_n(q^-m; a,-b/a) M_n2(q^-m; b,-a/b) = 0.

    Expanding the polynomials in powers of q^-m reduces every
    contribution to the q-exponential E_q evaluated at one of its zeros
    -q^-j, which is why the alternating sum cancels exactly.  Computed
    with compensated summation; retried at extended precision if the
    64-bit residual exceeds tolerance."""
    return _verify_eq_zero(n, n2, p, t, tolerance, _eq_zero_tables(p, t))


def _verify_eq_zero(n: int, n2: int, p: QParams, t: Truncation, tolerance: float, tables: tuple):
    double, extended = tables
    lhs, used, tail = double.pair_sum(n, n2, t)
    note = "every term reduces to E_q at a zero -q^-j"
    scale = 1.0 + abs(lhs)
    if abs(lhs) > tolerance * scale and tail <= tolerance * scale:
        with mpmath.workdps(_EQ_ZERO_RETRY_DPS):
            lhs, used, tail = extended().pair_sum(n, n2, t)
        note += "; retried at extended precision"
    return _finalize("eq-zero", p, (n, n2), lhs, 0.0, used, tail, tolerance, note)


# ---------------------------------------------------------------------------
# sweep driver


IDENTITY_FAMILIES = (
    "big-laguerre",
    "sears",
    "unitarity",
    "dual",
    "meixner",
    "meixner-negb",
    "eq-zero",
    "biortho",
)


# the families that read a _Store; a verify task that runs several of them
# gives them one store
_STORE_FAMILIES = ("unitarity", "dual", "biortho")


def run_identity_checks(
    identity: str,
    p: QParams,
    t: Truncation = Truncation(),
    index_max: int = 8,
    tolerance: float = DEFAULT_TOLERANCE,
    store: _Store | None = None,
) -> list:
    """All checks of one identity family over the default index grid,
    sorted by (identity_id, indices).

    store is the `_Store(p, t)` of the verify task the sweep belongs to;
    the _STORE_FAMILIES that read one store share its coefficients and
    sums.  A call without one builds its own, and "all" one for every
    family."""
    if store is None:
        store = _Store(p, t)
    elif (store.labels.p, store.labels.t) != (p, t):
        raise ValueError("store built for other parameters")
    if identity == "all":
        out = []
        for fam in IDENTITY_FAMILIES:
            out.extend(run_identity_checks(fam, p, t, index_max, tolerance, store))
        return out

    reports = []
    pairs_upper = [(i, j) for i in range(index_max + 1) for j in range(i, index_max + 1)]
    grid_full = [(i, j) for i in range(index_max + 1) for j in range(index_max + 1)]
    zlabels = list(range(-(index_max + 1), index_max + 1))
    zpairs = [(i, j) for i in zlabels for j in zlabels if i <= j]

    if identity == "big-laguerre":
        tables = _branch_tables(_spectral_table, index_max, p, t, _RecurrenceTable(p))
        for i, j in pairs_upper:
            reports.append(_verify_big_laguerre(i, j, p, t, tolerance, tables))
    elif identity == "sears":
        reports.append(verify_identity_3637(p, t, tolerance))
    elif identity == "unitarity":
        tables = _branch_tables(_RowTable, index_max, p, t, store.recurrence)
        for i, j in pairs_upper:
            reports.append(_verify_rows(i, j, p, t, tolerance, tables))
        for i, j in zpairs:
            reports.append(_verify_columns("unitarity-columns", i, j, p, t, tolerance, store.labels))
    elif identity == "dual":
        table = store.labels
        for i, j in pairs_upper:
            reports.append(_verify_dual(DualPair.FF, i, j, p, t, tolerance, table))
            reports.append(_verify_dual(DualPair.GG, i, j, p, t, tolerance, table))
        for i, j in grid_full:
            reports.append(_verify_dual(DualPair.FG, i, j, p, t, tolerance, table))
    elif identity in ("meixner", "meixner-negb"):
        table = _meixner_table(*_meixner_params(identity, p), p, t)
        for i, j in pairs_upper:
            reports.append(_verify_meixner(identity, i, j, p, t, tolerance, table))
    elif identity == "eq-zero":
        tables = _eq_zero_tables(p, t)
        for i, j in grid_full:
            reports.append(_verify_eq_zero(i, j, p, t, tolerance, tables))
    elif identity == "biortho":
        for i, j in zpairs:
            reports.append(_verify_columns("biortho", i, j, p, t, tolerance, store.labels))
    else:
        raise DomainError(f"unknown identity family: {identity!r}")

    reports.sort(key=lambda r: (r.identity_id, r.indices))
    return reports
