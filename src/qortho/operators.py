"""Matrix realizations of the representation operators in the canonical
orthonormal basis f_n, together with their eigencoefficient sequences,
normalization constants and spectra.

The self-adjoint operator acts tridiagonally with

    diag[n] = q^(n+1)(a+ab+b) - ab q^(2n+1)(1+q),
    off[n]  = sqrt(-ab) q^((n+2)/2) sqrt((1-q^(n+1))(1-aq^(n+1))(1-bq^(n+1))),

its eigenvalues are the two geometric sequences a q^(n+1), b q^(n+1),
and its eigenvector coefficients are weighted big q-Laguerre values.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

import mpmath

from qortho.qseries import (
    DomainError,
    NonConvergenceError,
    QParams,
    Truncation,
    q_pochhammer,
    q_pochhammer_inf,
)
from qortho.polynomials import (
    _WORKING_DPS,
    _recurrence_d,
    _working_coefficients,
    big_q_laguerre_recurrence,
    match_spectral_point,
    q_meixner,
    spectral_sequence,
)

# the operator, its spectrum and the eigensolver work on Python floats, so
# no CLI command loads numpy; it is imported inside the functions that
# return arrays (dense matrices, coefficient vectors)
if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Tridiagonal",
    "CoefficientVector",
    "SpectralPoints",
    "GeneratorMatrices",
    "XiBasis",
    "build_generator_matrices",
    "build_A",
    "compose_A_from_generators",
    "build_A1_A2",
    "compose_A1_A2_from_generators",
    "eigen_coefficients",
    "recurrence_residuals",
    "normalization_c",
    "normalization_cprime",
    "spectrum_points",
    "eig_tridiagonal",
    "eig_tridiagonal_accuracy",
    "truncation_residuals",
    "qJ0_inverse_action",
    "psi_phi_coefficients",
]


@dataclass(frozen=True)
class Tridiagonal:
    """Tridiagonal matrix as tuples of floats; symmetric when lower and
    upper share storage."""

    dim: int
    diag: tuple
    lower: tuple  # lower[i] couples column i to row i+1
    upper: tuple  # upper[i] couples column i+1 to row i

    def __post_init__(self):
        if self.dim < 1:
            raise DomainError("dim must be a positive integer")
        if len(self.diag) != self.dim or len(self.lower) != self.dim - 1 or len(self.upper) != self.dim - 1:
            raise DomainError("inconsistent tridiagonal band lengths")
        if not all(map(math.isfinite, itertools.chain(self.diag, self.lower, self.upper))):
            raise DomainError("tridiagonal entries must be finite")

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

    def dense(self) -> np.ndarray:
        import numpy as np

        m = np.diag(self.diag)
        idx = np.arange(self.dim - 1)
        m[idx + 1, idx] = self.lower
        m[idx, idx + 1] = self.upper
        return m

    def transpose(self) -> "Tridiagonal":
        return Tridiagonal(dim=self.dim, diag=self.diag, lower=self.upper, upper=self.lower)

    def apply(self, v) -> np.ndarray:
        import numpy as np

        v = np.asarray(v, dtype=float)
        out = np.asarray(self.diag) * v
        out[1:] += np.asarray(self.lower) * v[:-1]
        out[:-1] += np.asarray(self.upper) * v[1:]
        return out


@dataclass(frozen=True)
class CoefficientVector:
    """Expansion coefficients of a representation-space element in the
    orthonormal basis f_n; lam is the eigenvalue it represents."""

    coeffs: np.ndarray
    lam: float
    normalizable: bool = True


@dataclass(frozen=True)
class SpectralPoints:
    """The two geometric eigenvalue branches a q^(n+1) and b q^(n+1)."""

    upper: tuple
    lower: tuple

    def merged_by_magnitude(self) -> list:
        """Both branches by decreasing magnitude; the upper point first on a tie."""
        return sorted(self.upper + self.lower, key=lambda x: -abs(x))


class XiBasis(Enum):
    XI_UPPER = "upper"  # eigenvectors at a q^(n+1)
    XI_LOWER = "lower"  # eigenvectors at b q^(n+1)


# ---------------------------------------------------------------------------
# generator matrices and operator assembly


@dataclass(frozen=True)
class GeneratorMatrices:
    """Raising/lowering/diagonal generator data truncated to dim rows."""

    dim: int
    raising: np.ndarray  # raising[n] = coefficient of f_{n+1} in J+ f_n
    lowering: np.ndarray  # lowering[n] = coefficient of f_n in J- f_{n+1}
    qj0_diag: np.ndarray  # q^(l+n)
    j0_diag: np.ndarray  # l + n

    def jplus_dense(self) -> np.ndarray:
        import numpy as np

        m = np.zeros((self.dim, self.dim))
        idx = np.arange(self.dim - 1)
        m[idx + 1, idx] = self.raising
        return m

    def jminus_dense(self) -> np.ndarray:
        import numpy as np

        m = np.zeros((self.dim, self.dim))
        idx = np.arange(self.dim - 1)
        m[idx, idx + 1] = self.lowering
        return m


def jminus_action_factor(n: int, p: QParams) -> float:
    """Coefficient of f_{n-1} in J- f_n; zero at n = 0."""
    q, a = p.q, p.a
    if n == 0:
        return 0.0
    # q^(2l+n-1) = a q^n and q^(-(n+l-3/2)/2) = a^(-1/4) q^((1-n)/2)
    return a ** -0.25 * q ** ((1 - n) / 2.0) / (1 - q) * math.sqrt((1 - q**n) * (1 - a * q**n))


def jplus_action_factor(n: int, p: QParams) -> float:
    """Coefficient of f_{n+1} in J+ f_n."""
    q, a = p.q, p.a
    return a ** -0.25 * q ** (-n / 2.0) / (1 - q) * math.sqrt((1 - q ** (n + 1)) * (1 - a * q ** (n + 1)))


def build_generator_matrices(p: QParams, dim: int) -> GeneratorMatrices:
    """Raising/lowering couplings and the q^(J0) diagonal, rows 0..dim-1."""
    import numpy as np

    if dim < 2:
        raise DomainError("dim must be at least 2")
    n = np.arange(dim)
    q, a = p.q, p.a
    raising = np.array([jplus_action_factor(k, p) for k in range(dim - 1)])
    lowering = np.array([jminus_action_factor(k + 1, p) for k in range(dim - 1)])
    qj0 = math.sqrt(a * q) * q ** n.astype(float)  # q^l = sqrt(aq)
    j0 = p.l + n.astype(float)
    return GeneratorMatrices(dim=dim, raising=raising, lowering=lowering, qj0_diag=qj0, j0_diag=j0)


def _a_diag(p: QParams, dim: int) -> tuple:
    return tuple(_recurrence_d(float(n), p.a, p.b, p.q) for n in range(dim))


def build_A(p: QParams, dim: int) -> Tridiagonal:
    """Symmetric tridiagonal matrix of the diagonalized operator."""
    if dim < 1:
        raise DomainError("dim must be a positive integer")
    q, a, b = p.q, p.a, p.b
    c = math.sqrt(-a * b)
    off = tuple(
        c * q ** ((k + 2) / 2) * math.sqrt((1 - q ** (k + 1)) * (1 - a * q ** (k + 1)) * (1 - b * q ** (k + 1)))
        for k in map(float, range(dim - 1))
    )
    return Tridiagonal(dim=dim, diag=_a_diag(p, dim), lower=off, upper=off)


def compose_A_from_generators(p: QParams, dim: int) -> np.ndarray:
    """Assemble the operator from generator matrices:

        alpha q^(J0/4) (sqrt(1-b q^(J0-l)) J+ q^((J0-l)/2)
                        + q^((J0-l)/2) J- sqrt(1-b q^(J0-l))) q^(J0/4)
        - beta1 q^(2 J0) + beta2 q^(J0-l)

    The last row/column of the truncation is corrupted by the missing
    coupling to row dim, so comparisons must exclude them.
    """
    import numpy as np

    g = build_generator_matrices(p, dim)
    n = np.arange(dim, dtype=float)
    q, a, b = p.q, p.a, p.b
    q4 = (a * q) ** 0.125 * q ** (n / 4)  # q^((l+n)/4)
    q2 = q ** (n / 2)  # q^((J0-l)/2) diagonal
    s = np.sqrt(1 - b * q**n)  # sqrt(1 - b q^(J0-l)), positive since b < 0
    jp, jm = g.jplus_dense(), g.jminus_dense()
    core = (s[:, None] * jp) * q2[None, :] + (q2[:, None] * jm) * s[None, :]
    mat = p.alpha * (q4[:, None] * core * q4[None, :])
    mat -= np.diag(p.beta1 * a * q ** (2 * n + 1))  # q^(2J0) = a q^(2n+1)
    mat += np.diag(p.beta2 * q**n)
    return mat


def build_A1_A2(p: QParams, dim: int) -> tuple:
    """The non-self-adjoint pair (A1, A2) with A2 = A1^T exactly.

    A1 is the composition alpha q^(J0/4)(J+ q^(J0-l) + J- (1-b q^(J0-l)))
    q^(J0/4) - beta1 q^(2J0) + beta2 q^(J0-l), whose eigenvector
    coefficients carry the weight (-ab)^(-k/2) q^(-k) ((aq;q)_k/(q;q)_k)^(1/2);
    A2 is its transpose.  Shared entry arrays make the transpose relation
    exact by construction; the compositions themselves are validated
    against dense generator products in the tests.
    """
    if dim < 2:
        raise DomainError("dim must be at least 2")
    q, a, b = p.q, p.a, p.b
    ks = [float(k) for k in range(dim - 1)]
    w = [math.sqrt((1 - q ** (k + 1)) * (1 - a * q ** (k + 1))) for k in ks]
    c = math.sqrt(-a * b)
    diag = _a_diag(p, dim)
    lower1 = tuple(c * q ** (k + 1) * wk for k, wk in zip(ks, w))  # A1[n+1, n]
    upper1 = tuple(c * q * (1 - b * q ** (k + 1)) * wk for k, wk in zip(ks, w))  # A1[n, n+1]
    a1 = Tridiagonal(dim=dim, diag=diag, lower=lower1, upper=upper1)
    a2 = Tridiagonal(dim=dim, diag=diag, lower=upper1, upper=lower1)
    return a1, a2


def compose_A1_A2_from_generators(p: QParams, dim: int) -> tuple:
    """Dense assembly of the (A1, A2) compositions from generator matrices."""
    import numpy as np

    g = build_generator_matrices(p, dim)
    n = np.arange(dim, dtype=float)
    q, a, b = p.q, p.a, p.b
    q4 = (a * q) ** 0.125 * q ** (n / 4)
    dq = q**n  # q^(J0-l)
    db = 1 - b * q**n  # 1 - b q^(J0-l)
    jp, jm = g.jplus_dense(), g.jminus_dense()
    diagpart = np.diag(-p.beta1 * a * q ** (2 * n + 1) + p.beta2 * q**n)
    # operator composition reads right to left: X Y = apply Y, then X
    core1 = jp * dq[None, :] + jm * db[None, :]
    core2 = db[:, None] * jp + dq[:, None] * jm
    a1 = p.alpha * (q4[:, None] * core1 * q4[None, :]) + diagpart
    a2 = p.alpha * (q4[:, None] * core2 * q4[None, :]) + diagpart
    return a1, a2


# ---------------------------------------------------------------------------
# eigencoefficients


def _pref_a_ratio(m, q, a, b):
    """pref_{m+1}/pref_m for (-ab)^(-m/2) q^(-m(m+3)/4) ((aq,bq;q)_m/(q;q)_m)^(1/2)."""
    return (
        (-a * b) ** mpmath.mpf("-0.5")
        * q ** (-(2 * m + 4) / mpmath.mpf(4))
        * mpmath.sqrt((1 - a * q ** (m + 1)) * (1 - b * q ** (m + 1)) / (1 - q ** (m + 1)))
    )


def _prefactors(p: QParams, m_max: int, ratio_fn=_pref_a_ratio) -> list:
    """pref_0..pref_m_max as the sequential product of consecutive ratios
    pref_{m+1}/pref_m, so no factor over- or underflows; n-independent,
    so one list serves every spectral point of a parameter set, and its
    first m+1 entries equal `_prefactors(p, m, ratio_fn)` bit for bit."""
    return list(itertools.islice(_prefactor_entries(p, _WORKING_DPS, ratio_fn), m_max + 1))


def _prefactor_entries(p: QParams, dps: int, ratio_fn=_pref_a_ratio):
    """pref_0, pref_1, ... of `_prefactors` without end, one per next(),
    at dps digits; a caller that keeps the iterator extends its list from
    where it stopped."""
    with mpmath.workdps(dps):
        q, a, b = mpmath.mpf(p.q), mpmath.mpf(p.a), mpmath.mpf(p.b)
        pref = mpmath.mpf(1)
    for m in itertools.count():
        yield pref
        with mpmath.workdps(dps):
            pref *= ratio_fn(m, q, a, b)


def _spectral_coeff_mpf(p: QParams, branch: str, j: int, m_max: int, prefs: list):
    """Coefficients pref_m P_m(lam), m = 0..m_max, at a spectral point as
    exact-exponent mpmath floats, from the duality closed form
    `spectral_sequence`; prefs is `_prefactors(p, M, ratio_fn)` for some
    M >= m_max, and its ratio_fn picks the family (the eigencoefficients
    a_m, or psi_m or phi_m)."""
    seq = spectral_sequence(p, branch, j, m_max)
    with mpmath.workdps(_WORKING_DPS):
        return [pref * v for pref, v in zip(prefs, seq)]


def _log10_prefactors(p: QParams, m_max: int) -> list:
    """log10 pref_0..pref_m_max in floats: the running sum of the logs
    of the ratios `_pref_a_ratio`."""
    q, a, b = p.q, p.a, p.b
    log_ab, log_q = math.log10(-a * b), math.log10(q)
    steps = []
    for m in map(float, range(m_max)):
        qm = q ** (m + 1)
        steps.append(
            -0.5 * log_ab - (2 * m + 4) / 4.0 * log_q
            + 0.5 * (math.log10(1 - a * qm) + math.log10(1 - b * qm) - math.log10(1 - qm))
        )
    return list(itertools.accumulate(steps, initial=0.0))


def _mpf_to_float_array(values, what: str) -> np.ndarray:
    import numpy as np

    out = np.zeros(len(values))
    for i, v in enumerate(values):
        f = float(v)
        if math.isinf(f):
            raise OverflowError(f"{what} overflows float range at index {i}")
        out[i] = f
    return out


def _a_coeff_logs(p: QParams, branch: str, j: int, m_max: int, prefs=None, recurrence=None) -> list:
    """Eigencoefficients a_0..a_{m_max} at the spectral point of index
    j >= m_max, as mpmath floats, from the forward three-term recurrence at
    the precision of the recurrence table; prefs is pref_0..pref_m_max at
    that precision and recurrence a `_working_coefficients` table of p,
    each built here at _WORKING_DPS digits when not given.

    The polynomial sequence becomes the minimal solution of the
    recurrence (and decays like q^(m^2/2)) only past degree ~j, so up to
    degree j forward steps keep full relative accuracy, at one step per
    degree where the duality closed form sums up to m + 1 terms.

    The name dates from the rows of signed logs this function once
    returned; perfbench times the forward rows under it, so it stays."""
    if prefs is None:
        prefs = _prefactors(p, m_max)
    if recurrence is None:
        recurrence = _working_coefficients(p, _WORKING_DPS)
    with mpmath.workprec(recurrence.prec):
        pw = recurrence.p
        lam = (pw.a if branch == "a" else pw.b) * pw.q ** (j + 1)
        seq = big_q_laguerre_recurrence(m_max, lam, pw, coeffs=recurrence)
        return [pref * v for pref, v in zip(prefs, seq)]


def eigen_coefficients(lam: float, p: QParams, m_max: int, t: Truncation = Truncation()) -> CoefficientVector:
    """Eigencoefficient sequence a_m(lam), m = 0..m_max, with a_0 = 1:

        a_m = (-ab)^(-m/2) q^(-m(m+3)/4) ((aq,bq;q)_m/(q;q)_m)^(1/2) P_m(lam).

    At spectral points the values are square-summable and computed from
    the duality closed form of the polynomial sequence; any other lam is
    allowed but flagged non-normalizable.
    """
    import numpy as np

    hit = match_spectral_point(lam, p)
    if hit is not None:
        vals = _spectral_coeff_mpf(p, hit[0], hit[1], m_max, _prefactors(p, m_max))
        coeffs = _mpf_to_float_array(vals, "eigencoefficients")
        return CoefficientVector(coeffs=coeffs, lam=lam, normalizable=True)

    # generic lam: polynomial route with the prefactor held in log space
    pvals = big_q_laguerre_recurrence(m_max, lam, p)
    coeffs = np.zeros(m_max + 1)
    for m, (v, logpref) in enumerate(zip(pvals, _log10_prefactors(p, m_max))):
        if v != 0.0:
            mag = logpref + math.log10(abs(v))
            if mag > 300:
                raise OverflowError(f"eigencoefficient overflow at m={m}")
            coeffs[m] = math.copysign(10.0**mag, v)
    return CoefficientVector(coeffs=coeffs, lam=lam, normalizable=False)


def truncation_residuals(p: QParams, dim: int, points) -> list:
    """r = |A[dim-1, dim] a_dim(lam)| for each exact eigenvalue lam in
    `points`.  The exact eigenvector cut to dim rows satisfies every row
    of A_dim - lam but the last, and a_0 = 1 bounds its norm below, so
    A_dim has an eigenvalue within r of lam (Parlett, The Symmetric
    Eigenvalue Problem, 4.5).  By duality, at lam = first q^(n+1),

        a_d = pref_d M_n(q^-d; first, -second/first; q) / (q^-d/second; q)_d,

    with (first, second) = (a, b) or (b, a) and the denominator equal to
    (-1/second)^d q^(-d(d+1)/2) (second q; q)_d; all but M_n is a float
    sum of logs, and r underflows to 0 or overflows to inf."""
    q, a, b = p.q, p.a, p.b
    log_q = math.log10(q)
    qi = [q ** float(i) for i in range(1, dim + 1)]
    log_sq = {s: math.fsum(math.log10(1 - s * x) for x in qi) for s in (a, b)}
    qd = q**dim
    log_off = 0.5 * math.log10(-a * b * (1 - qd) * (1 - a * qd) * (1 - b * qd)) + (dim + 1) / 2 * log_q
    log_fixed = log_off + _log10_prefactors(p, dim)[dim] + dim * (dim + 1) / 2 * log_q
    radii = []
    for lam in points:
        hit = match_spectral_point(float(lam), p)
        if hit is None:
            raise DomainError(f"{float(lam)!r} is not an eigenvalue a q^(n+1) or b q^(n+1)")
        branch, n = hit
        first, second = (a, b) if branch == "a" else (b, a)
        with mpmath.workdps(_WORKING_DPS):
            meixner = q_meixner(n, dim, mpmath.mpf(first), -mpmath.mpf(second) / first, mpmath.mpf(q))
            log_r = log_fixed + dim * math.log10(abs(second)) - log_sq[second] + float(mpmath.log10(abs(meixner)))
        radii.append(math.inf if log_r > 300 else 10.0**log_r)
    return radii


def recurrence_residuals(vec: CoefficientVector, p: QParams) -> np.ndarray:
    """Row residuals |(A v)_m - lam v_m| / scale for interior rows
    1..m_max-1, where scale is the largest term magnitude in the row."""
    import numpy as np

    m_max = len(vec.coeffs) - 1
    tri = build_A(p, m_max + 1)
    v = vec.coeffs
    out = np.zeros(max(m_max - 1, 0))
    for m in range(1, m_max):
        terms = (
            tri.offdiag[m] * v[m + 1],
            tri.offdiag[m - 1] * v[m - 1],
            tri.diag[m] * v[m],
            -vec.lam * v[m],
        )
        scale = max(abs(x) for x in terms)
        res = abs(math.fsum(terms))
        out[m - 1] = res / scale if scale > 0 else res
    return out


# ---------------------------------------------------------------------------
# normalization constants


def normalization_c(n: int, p: QParams, t: Truncation = Truncation(), form: str = "finite") -> float:
    """Normalization constant of the upper-branch eigenvectors.

    Both printed forms are implemented; they agree to rounding and the
    tests cross-check them.
    """
    if form == "finite":
        return _Normalization(p, t).c(n)
    q, a, b = p.q, p.a, p.b
    if form == "infinite":
        radicand = (
            q_pochhammer_inf(q ** (n + 1), q, t)
            * q_pochhammer_inf(a * q ** (n + 1) / b, q, t)
            * q_pochhammer_inf(a * q, q, t)
            * q_pochhammer_inf(b * q, q, t)
            * q**n
            / (
                q_pochhammer_inf(a * q ** (n + 1), q, t)
                * q_pochhammer_inf(q, q, t)
                * q_pochhammer_inf(b / a, q, t)
                * q_pochhammer_inf(a * q / b, q, t)
            )
        )
    else:
        raise DomainError("form must be 'finite' or 'infinite'")
    return _root(radicand)


def normalization_cprime(n: int, p: QParams, t: Truncation = Truncation(), form: str = "finite") -> float:
    """Normalization constant of the lower-branch eigenvectors; the
    prefactor -b/a is positive for b < 0."""
    if form == "finite":
        return _Normalization(p, t).cprime(n)
    q, a, b = p.q, p.a, p.b
    if form == "infinite":
        radicand = (
            (-b / a)
            * q**n
            * q_pochhammer_inf(b * q ** (n + 1) / a, q, t)
            * q_pochhammer_inf(q ** (n + 1), q, t)
            * q_pochhammer_inf(a * q, q, t)
            * q_pochhammer_inf(b * q, q, t)
            / (
                q_pochhammer_inf(b * q ** (n + 1), q, t)
                * q_pochhammer_inf(q, q, t)
                * q_pochhammer_inf(b / a, q, t)
                * q_pochhammer_inf(a * q / b, q, t)
            )
        )
    else:
        raise DomainError("form must be 'finite' or 'infinite'")
    return _root(radicand)


def _root(radicand):
    if not radicand > 0:
        raise DomainError(f"normalization radicand {radicand} not positive; parameter domain violated")
    return radicand**0.5


class _Normalization:
    """Finite forms of c_n and c'_n for one parameter set.  Their
    n-independent infinite products, (bq;q)_inf and (b/a;q)_inf for c_n
    and (aq;q)_inf and (aq/b;q)_inf for c'_n, are computed on first use,
    at the precision in effect then, and kept; a sweep that holds one
    instance pays for them once."""

    def __init__(self, p: QParams, t: Truncation):
        self.p, self.t = p, t

    @functools.cached_property
    def _c_products(self) -> tuple:
        q, a, b = self.p.q, self.p.a, self.p.b
        return q_pochhammer_inf(b * q, q, self.t), q_pochhammer_inf(b / a, q, self.t)

    @functools.cached_property
    def _cprime_products(self) -> tuple:
        q, a, b = self.p.q, self.p.a, self.p.b
        return q_pochhammer_inf(a * q, q, self.t), q_pochhammer_inf(a * q / b, q, self.t)

    def c(self, n: int):
        q, a, b = self.p.q, self.p.a, self.p.b
        bq_inf, ba_inf = self._c_products
        return _root(
            q_pochhammer(a * q, q, n)
            * bq_inf
            * q**n
            / (q_pochhammer(a * q / b, q, n) * q_pochhammer(q, q, n) * ba_inf)
        )

    def cprime(self, n: int):
        q, a, b = self.p.q, self.p.a, self.p.b
        aq_inf, aqb_inf = self._cprime_products
        return _root(
            (-b / a)
            * q**n
            * q_pochhammer(b * q, q, n)
            * aq_inf
            / (q_pochhammer(q, q, n) * aqb_inf * q_pochhammer(b / a, q, n + 1))
        )


# ---------------------------------------------------------------------------
# spectrum


def spectrum_points(p: QParams, N: int) -> SpectralPoints:
    """The first N exact eigenvalues on each branch."""
    if N < 1:
        raise DomainError("N must be a positive integer")
    return SpectralPoints(
        upper=tuple(p.a * p.q ** (n + 1.0) for n in range(N)),
        lower=tuple(p.b * p.q ** (n + 1.0) for n in range(N)),
    )


# Bisection steps allowed before the solve gives up.
_MAX_BISECTIONS = 120
# Bisection stops once a bracket is at most this times ||T|| wide.
_BRACKET_WIDTH = 1e-14
# Pivots smaller than this in magnitude are replaced by its negative.
_PIVMIN = 1e-290


def eig_tridiagonal_accuracy(tri: Tridiagonal) -> float:
    """Bound on the distance from each eigenvalue `eig_tridiagonal(tri)`
    returns to one of the matrix that `tri` rounds: the bracket width
    plus 16 units of roundoff of ||T||, for the float Sturm count (exact
    for a matrix a few units from T entrywise: Demmel, Dhillon and Ren,
    ETNA 3, 1995) and the rounded entries and targets."""
    norm = max(map(abs, tri.diag)) + 2 * max(map(abs, tri.offdiag), default=0.0)
    return (_BRACKET_WIDTH + 16 * 2.0**-53) * norm


def _sturm_count(rows, x: float) -> int:
    """Number of eigenvalues below x: the negative pivots of the LDL^T
    factorization of T - x, where rows holds the pairs (d[i], e[i-1]^2)
    with e[-1]^2 = 0 and the pivots are d[i] - x - e[i-1]^2 / pivot[i-1],
    floored away from zero to -_PIVMIN."""
    count, piv = 0, 1.0
    for d, e2 in rows:
        piv = d - x - e2 / piv
        if piv < _PIVMIN:
            count += 1
            if piv > -_PIVMIN:
                piv = -_PIVMIN
    return count


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
    rows = list(zip(d, [0.0] + [x * x for x in e]))
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


# ---------------------------------------------------------------------------
# action of q^(-J0) on the eigenvector bases


def qJ0_inverse_action(basis: XiBasis, n: int, p: QParams, orthonormal: bool = False) -> tuple:
    """Tridiagonal coefficients (sub, diag, super) of q^(-J0) acting on
    the eigenvector family of the chosen branch; `orthonormal` selects
    the normalized-basis variant."""
    if n < 0:
        raise DomainError("index must be nonnegative")
    q, a, b = p.q, p.a, p.b
    if basis is XiBasis.XI_UPPER:
        lead = a**-1.5
        diag = -lead * q ** (-2 * n - 1.5) * (b * (1 + q) - q ** (n + 1) * (a * b + a + b))
        if orthonormal:
            sup = lead * b * q ** (-2 * n - 2) * math.sqrt(
                (1 - a * q ** (n + 1)) * (1 - q ** (n + 1)) * (1 - a * q ** (n + 1) / b)
            )
            sub = lead * b * q ** (-2.0 * n) * math.sqrt(
                (1 - a * q**n) * (1 - q**n) * (1 - a * q**n / b)
            )
        else:
            sup = lead * b * q ** (-2 * n - 1.5) * (1 - a * q ** (n + 1))
            sub = lead * b * q ** (-2 * n - 0.5) * (1 - q**n) * (1 - a * q**n / b)
        return sub, diag, sup
    if basis is XiBasis.XI_LOWER:
        lead = math.sqrt(a) / b
        diag = -lead * q ** (-2 * n - 1.5) * (1 + q - q ** (n + 1) * (a * b + a + b) / a)
        if orthonormal:
            sup = lead * q ** (-2 * n - 2) * math.sqrt(
                (1 - b * q ** (n + 1)) * (1 - q ** (n + 1)) * (1 - b * q ** (n + 1) / a)
            )
            sub = lead * q ** (-2.0 * n) * math.sqrt(
                (1 - b * q**n) * (1 - q**n) * (1 - b * q**n / a)
            )
        else:
            sup = lead * q ** (-2 * n - 1.5) * (1 - b * q ** (n + 1))
            sub = lead * q ** (-2 * n - 0.5) * (1 - q**n) * (1 - b * q**n / a)
        return sub, diag, sup
    raise DomainError(f"unknown basis {basis}")


# ---------------------------------------------------------------------------
# eigenvectors of the non-self-adjoint pair


def _pref_psi_ratio(m, q, a, b):
    """Ratio for (-ab)^(-m/2) q^(-m) ((aq;q)_m/(q;q)_m)^(1/2)."""
    return (
        (-a * b) ** mpmath.mpf("-0.5")
        / q
        * mpmath.sqrt((1 - a * q ** (m + 1)) / (1 - q ** (m + 1)))
    )


def _pref_phi_ratio(m, q, a, b):
    """Ratio for (-ab)^(-m/2) q^(-m(m+1)/2) ((aq;q)_m/(q;q)_m)^(1/2) (bq;q)_m."""
    return (
        (-a * b) ** mpmath.mpf("-0.5")
        * q ** (-(m + 1))
        * mpmath.sqrt((1 - a * q ** (m + 1)) / (1 - q ** (m + 1)))
        * (1 - b * q ** (m + 1))
    )


def psi_phi_coefficients(lam: float, p: QParams, m_max: int, t: Truncation = Truncation()) -> tuple:
    """Coefficient vectors of the eigenvector families of A1 and A2:

        psi_k = (-ab)^(-k/2) q^(-k)        ((aq;q)_k/(q;q)_k)^(1/2) P_k(lam)
        phi_k = (-ab)^(-k/2) q^(-k(k+1)/2) ((aq;q)_k (bq;q)_k^2/(q;q)_k)^(1/2) P_k(lam)

    phi_k grows with k at deep spectral points; exceeding float range
    raises OverflowError.  psi_k(lam) phi_k(lam') = a_k(lam) a_k(lam')
    term for term, so the biorthogonality engine sums products of the
    eigencoefficients a_k formed in mpmath instead and has no such limit.
    """
    hit = match_spectral_point(lam, p)
    if hit is None:
        raise DomainError("psi/phi coefficients are defined at spectral points")
    psi_vals = _spectral_coeff_mpf(p, hit[0], hit[1], m_max, _prefactors(p, m_max, _pref_psi_ratio))
    phi_vals = _spectral_coeff_mpf(p, hit[0], hit[1], m_max, _prefactors(p, m_max, _pref_phi_ratio))
    psi = _mpf_to_float_array(psi_vals, "psi coefficients")
    phi = _mpf_to_float_array(phi_vals, "phi coefficients")
    return (
        CoefficientVector(coeffs=psi, lam=lam, normalizable=True),
        CoefficientVector(coeffs=phi, lam=lam, normalizable=True),
    )
