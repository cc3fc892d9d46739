"""Numerical verification engines for the orthogonality, unitarity,
duality and biorthogonality identities.

Every verifier returns a :class:`VerificationReport` whose pass/fail
verdict is meaningful only when the truncation tail of the underlying
infinite sum has been certified below tolerance; otherwise the report
carries the third status "inconclusive".

Numerical strategy: every identity sum reads one connection matrix
u_mn = c_n a_m(lam_n), in one of its two directions, and one engine,
`_bilinear_sum`, forms its value.  The sums over the spectral index n
read one row table per spectral branch, whose entries c_n a_m(lam_n)
decay geometrically in n; unitarity-rows reads them as they are, and
big-laguerre and sears scaled by Kc / (pref_i pref_j), since w_n P_i P_j
is that multiple of the unitarity-rows term.  The sums over the basis
index m read one verify task's label table: the eigencoefficients
a_m(lam) of each label, from the q-Meixner duality closed form, whose
weight factors balance within each product.  Entries are mpmath floats
at the store's precision (30 digits, or the working precision of mpmath
scalars); their float copies drive the stopping rule, and the products
used are added exactly and rounded once.  By the duality the q-Meixner
sums are label sums too (meixner dual-ff, meixner-negb dual-gg, eq-zero
dual-fg, term for term).
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
    _duality_entries,
    _working_coefficients,
)
from qortho.operators import (
    _Normalization,
    _a_coeff_logs,
    _prefactor_entries,
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


# largest cut-offs of the sums over the spectral index n and the basis index m
_N_CAP, _M_CAP = 2000, 320


def _certified_sum(terms: Callable[[int], float], t: Truncation, hard_cap: int = _N_CAP):
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


def _bilinear_sum(u: Callable[[int], tuple], v: Callable[[int], tuple], t: Truncation, hard_cap: int, scale, dps: int):
    """Certified sum over k of scale u_k v_k, the value of every identity
    sum: (mpf value, terms used, tail estimate).

    u(k) and v(k) are the k-th entries as (mpf, float copy) pairs, read in
    order of k.  The products of the float copies drive only the stopping
    rule and the tail bound of `_certified_sum`, and a product that
    overflows is formed from the mpf entries; the value is scale times the
    exact sum of the products used, rounded once at dps digits (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., 4.2), so
    cancellation among terms of size 1e9 leaves no float noise."""
    xs: list = []
    ys: list = []
    fscale = float(scale)

    def term(k: int) -> float:
        x, fx = u(k)
        y, fy = v(k)
        xs.append(x)
        ys.append(y)
        f = fx * fy * fscale
        if not math.isfinite(f):
            with mpmath.workdps(dps):
                f = float(scale * x * y)
            if math.isinf(f):
                raise NonConvergenceError("bilinear term overflow")
        return f

    _, used, tail = _certified_sum(term, t, hard_cap)
    with mpmath.workdps(dps):
        return scale * mpmath.fdot(xs, ys), used, tail


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


def _two_branch_sum(store: _Store, K: int, i: int, j: int, t: Truncation, scale):
    """The pair sum of the a-branch row table of the indices 0..K plus
    that of the b-branch one, both times scale: (value, terms, tail)."""
    (sum_a, used_a, tail_a), (sum_b, used_b, tail_b) = (table.pair_sum(i, j, t, scale) for table in store.rows(K))
    with mpmath.workdps(store.dps):
        return store.value(sum_a + sum_b), used_a + used_b, tail_a + tail_b


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
    return _verify_big_laguerre(m, m2, p, t, tolerance, _Store(p, t), max(m, m2))


def _big_laguerre_sum(m: int, m2: int, t: Truncation, store: _Store, K: int):
    """sum_n w_n P_m P_m2 over the a-branch plus -b/a times that over the
    b-branch: the unitarity-rows sum of the rows 0..K, whose terms are
    c_n^2 a_m a_m2 = (pref_m pref_m2 / Kc) w_n P_m P_m2 (the factor -b/a is
    in c'_n^2), scaled back."""
    prefs = store.labels.prefs(K)
    with mpmath.workdps(store.dps):
        scale = store.kc / (prefs[m] * prefs[m2])
    return _two_branch_sum(store, K, m, m2, t, scale)


def _verify_big_laguerre(m: int, m2: int, p: QParams, t: Truncation, tolerance: float, store: _Store, K: int):
    if m < 0 or m2 < 0:
        raise DomainError("degrees must be nonnegative")
    lhs, used, tail = _big_laguerre_sum(m, m2, t, store, K)
    rhs = 0.0
    if m == m2:
        rhs = (
            store.kc
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
    return _verify_sears(p, t, tolerance, _Store(p, t), 0)


def _verify_sears(p: QParams, t: Truncation, tolerance: float, store: _Store, K: int):
    """The big-laguerre (0, 0) record of the rows 0..K, with the
    cross-check; P_0 = 1 on every row, so K changes no bit."""
    q, a, b = p.q, p.a, p.b
    lhs, used, tail = _big_laguerre_sum(0, 0, t, store, K)
    rhs = store.kc

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


class _LabelTable:
    """Eigencoefficients a_0, a_1, ... and normalization constant of each
    integer eigenvalue label, and the sums over the basis index m of
    products of the coefficients of two labels, for every family of such
    sums that one verify task runs.

    A label's entries are computed one at a time, as a sum or a row first
    reads them, from an iterator of its duality entries P_m(lam) and the
    one prefactor list; no entry depends on how far a sum reads, so each
    is computed once.  Entries are (mpf, float copy) pairs at the store's
    precision: for float parameters they have the bits `_prefactors` and
    `spectral_sequence` give."""

    def __init__(self, store: _Store):
        self.p, self.dps, self._value, self._norm = store.p, store.dps, store.value, store.norm
        self._prefs: list = []
        self._pref_entries = _prefactor_entries(self.p, self.dps)
        self._coeffs: dict = {}
        self._c: dict = {}
        self._sums: dict = {}

    def prefs(self, m_cut: int) -> list:
        """The prefactor list, with pref_0..pref_m_cut at least."""
        while len(self._prefs) <= m_cut:
            self._prefs.append(next(self._pref_entries))
        return self._prefs

    def entry(self, label: int, m: int) -> tuple:
        """a_m(lam) of the label as an (mpf, float copy) pair."""
        if label not in self._coeffs:
            self._coeffs[label] = ([], _duality_entries(self.p, *_branch_of_label(label), self.dps))
        values, entries = self._coeffs[label]
        while len(values) <= m:
            k = len(values)
            with mpmath.workdps(self.dps):
                x = self.prefs(k)[k] * next(entries)
            values.append((x, float(x)))
        return values[m]

    def c(self, label: int) -> float:
        if label not in self._c:
            self._c[label] = self._norm.c(label) if label >= 0 else self._norm.cprime(-label - 1)
        return self._c[label]

    def pair_sum(self, i: int, j: int, t: Truncation):
        """Certified sum over m of a_m(lam_i) a_m(lam_j), computed on the
        first request for the unordered pair {i, j} and kept: the exact sum
        of exact products commutes, so (j, i) would give the same bits.  The
        value is a float for float parameters and an mpf for mpmath
        ones."""
        key = (min(i, j), max(i, j), t)
        if key not in self._sums:
            self._sums[key] = self._sum(i, j, t)
        return self._sums[key]

    def _sum(self, i: int, j: int, t: Truncation):
        value, used, tail = _bilinear_sum(lambda m: self.entry(i, m), lambda m: self.entry(j, m), t, _M_CAP, 1, self.dps)
        return self._value(value), used, tail


class _Store:
    """What the identity families of one verify task share at one
    parameter set: the precision, the normalization constants, Kc, the
    recurrence table of the forward rows, the row tables over the spectral
    index, which unitarity-rows, big-laguerre and sears read, and the label
    table, whose sums unitarity-columns, dual, biortho and the three
    q-Meixner families read.  Each task builds its own, for its p and t.

    Every entry and sum is computed at one precision dps: _WORKING_DPS
    digits for float parameters, and the caller's working precision, never
    below that, for mpmath parameters, whose sums stay mpf values."""

    def __init__(self, p: QParams, t: Truncation):
        self.p, self.t = p, t
        self.exact = isinstance(p.q, mpmath.mpf)
        self.dps = max(mpmath.mp.dps, _WORKING_DPS) if self.exact else _WORKING_DPS
        self.norm = _Normalization(p, t)
        self.recurrence = _working_coefficients(p, self.dps)
        self.labels = _LabelTable(self)
        self._rows: dict = {}

    @functools.cached_property
    def kc(self):
        return _kc(self.p, self.t)

    def value(self, x):
        """A sum as the verifiers read it: the mpf x, or its float for float parameters."""
        return x if self.exact else float(x)

    def rows(self, K: int) -> tuple:
        """The a-branch and the b-branch row table of the indices 0..K."""
        if K not in self._rows:
            self._rows[K] = tuple(_RowTable(branch, K, self) for branch in "ab")
        return self._rows[K]


def _dual_labels(which: DualPair, n: int, n2: int) -> tuple:
    """The label pair (i, j) of the dual sum of f_n or g_n against f_n2
    or g_n2: f_n is the eigencoefficient sequence of label n, g_n that of
    label -n-1."""
    if n < 0 or n2 < 0:
        raise DomainError("dual indices must be nonnegative")
    return (n if which is not DualPair.GG else -n - 1), (n2 if which is DualPair.FF else -n2 - 1)


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
    which = DualPair(which)
    i, j = _dual_labels(which, n, n2)
    lhs, used, tail = table.pair_sum(i, j, t)
    rhs = table.c(i) ** -2.0 if i == j else 0.0
    return _finalize(f"dual-{which.value}", p, (n, n2), lhs, rhs, used, tail, tolerance)


class _RowTable:
    """Rows of the connection matrix u_mn = c_n a_m(lam_n), m = 0..K, of
    one spectral branch, for the sums sum_n u_in u_jn times a scale.  Row n
    holds (mpf, float copy) pairs at the store's precision; rows are built
    on first use, in order of n, and shared by every (i, j) pair with
    max(i, j) <= K and by every scale.  The degrees m <= n come from a
    forward sweep on the store's recurrence table and the label table's
    prefactors, the degrees above from the label table's duality entries
    of lam_n's label, so no entry depends on K."""

    def __init__(self, branch: str, K: int, store: _Store):
        self.branch, self.K, self.p, self.dps = branch, K, store.p, store.dps
        self._labels, self._recurrence = store.labels, store.recurrence
        self._cfun = store.norm.c if branch == "a" else store.norm.cprime
        self._rows: list = []

    def entry(self, n: int, m: int) -> tuple:
        rows = self._rows
        while len(rows) <= n:
            rows.append(self._row(len(rows)))
        return rows[n][m]

    def _row(self, n: int) -> list:
        top = min(n, self.K)
        coeffs = _a_coeff_logs(self.p, self.branch, n, top, self._labels.prefs(top), self._recurrence)
        label = n if self.branch == "a" else -n - 1
        coeffs += [self._labels.entry(label, m)[0] for m in range(top + 1, self.K + 1)]
        c = self._cfun(n)
        with mpmath.workdps(self.dps):
            c = mpmath.mpf(c)  # exact, and converted once for the row
            return [(y, float(y)) for y in (c * x for x in coeffs)]

    def pair_sum(self, i: int, j: int, t: Truncation, scale):
        """Certified sum over n of scale u_in u_jn as an mpf; each scale
        stops at its own terms."""
        return _bilinear_sum(lambda n: self.entry(n, i), lambda n: self.entry(n, j), t, _N_CAP, scale, self.dps)


def _verify_rows(i: int, j: int, p: QParams, t: Truncation, tolerance: float, store: _Store, K: int):
    if i < 0 or j < 0:
        raise DomainError("row indices must be nonnegative")
    lhs, used, tail = _two_branch_sum(store, K, i, j, t, 1)
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
        return _verify_rows(i, j, p, t, tolerance, store, max(i, j))
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
# q-Meixner orthogonality relations, read from the label sums: by the duality
# P_m(first q^(n+1)) = M_n(q^-m; first, -second/first) / (q^-m/second; q)_m,
# and pref_m^2 / ((q^-m/second; q)_m)^2 is the q-Meixner weight, so each
# term w_m M_n(q^-m) M_n2(q^-m) is the dual term a_m(lam_i) a_m(lam_j):
# meixner reads the dual-ff sum, meixner-negb dual-gg and eq-zero dual-fg


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


def _verify_meixner(identity_id: str, n: int, n2: int, p: QParams, t: Truncation, tolerance: float, store: _Store):
    which, first, second = (DualPair.FF, p.a, p.b) if identity_id == "meixner" else (DualPair.GG, p.b, p.a)
    lhs, used, tail = store.labels.pair_sum(*_dual_labels(which, n, n2), t)
    rhs = _meixner_rhs(first, second, n, p, t) if n == n2 else 0.0
    return _finalize(identity_id, p, (n, n2), lhs, rhs, used, tail, tolerance)


def verify_meixner_orthogonality(
    n: int,
    n2: int,
    p: QParams,
    t: Truncation = Truncation(),
    tolerance: float = DEFAULT_TOLERANCE,
) -> VerificationReport:
    """The classical q-Meixner orthogonality, realized here by the
    positive-parameter family M_n(q^-m; a, -b/a; q) under
    `meixner_weight`: the dual-ff sum."""
    return _verify_meixner("meixner", n, n2, p, t, tolerance, _Store(p, t))


def verify_negative_b_meixner_orthogonality(
    n: int,
    n2: int,
    p: QParams,
    t: Truncation = Truncation(),
    tolerance: float = DEFAULT_TOLERANCE,
) -> VerificationReport:
    """The same orthogonality shape for the negative-parameter family
    M_n(q^-m; b, -a/b; q) with b < 0: the dual-gg sum."""
    return _verify_meixner("meixner-negb", n, n2, p, t, tolerance, _Store(p, t))


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
    -q^-j, which is why the alternating sum cancels exactly.  The sum is
    the dual-fg sum."""
    return _verify_eq_zero(n, n2, p, t, tolerance, _Store(p, t))


def _verify_eq_zero(n: int, n2: int, p: QParams, t: Truncation, tolerance: float, store: _Store):
    lhs, used, tail = store.labels.pair_sum(*_dual_labels(DualPair.FG, n, n2), t)
    note = "every term reduces to E_q at a zero -q^-j"
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
    the families that read one store share its coefficients and sums.  A
    call without one builds its own, which "all" gives every family."""
    if store is None:
        store = _Store(p, t)
    elif (store.p, store.t) != (p, t):
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
        for i, j in pairs_upper:
            reports.append(_verify_big_laguerre(i, j, p, t, tolerance, store, index_max))
    elif identity == "sears":
        reports.append(_verify_sears(p, t, tolerance, store, index_max))
    elif identity == "unitarity":
        for i, j in pairs_upper:
            reports.append(_verify_rows(i, j, p, t, tolerance, store, index_max))
        for i, j in zpairs:
            reports.append(_verify_columns("unitarity-columns", i, j, p, t, tolerance, store.labels))
    elif identity == "dual":
        for i, j in pairs_upper:
            reports.append(_verify_dual(DualPair.FF, i, j, p, t, tolerance, store.labels))
            reports.append(_verify_dual(DualPair.GG, i, j, p, t, tolerance, store.labels))
        for i, j in grid_full:
            reports.append(_verify_dual(DualPair.FG, i, j, p, t, tolerance, store.labels))
    elif identity in ("meixner", "meixner-negb"):
        for i, j in pairs_upper:
            reports.append(_verify_meixner(identity, i, j, p, t, tolerance, store))
    elif identity == "eq-zero":
        for i, j in grid_full:
            reports.append(_verify_eq_zero(i, j, p, t, tolerance, store))
    elif identity == "biortho":
        for i, j in zpairs:
            reports.append(_verify_columns("biortho", i, j, p, t, tolerance, store.labels))
    else:
        raise DomainError(f"unknown identity family: {identity!r}")

    reports.sort(key=lambda r: (r.identity_id, r.indices))
    return reports
