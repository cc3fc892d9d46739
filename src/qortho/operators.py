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

import functools
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

# numpy is imported inside the functions that build or solve arrays, so
# the commands that never touch a matrix start without it
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
    """Tridiagonal matrix; symmetric when lower and upper share storage."""

    dim: int
    diag: np.ndarray
    lower: np.ndarray  # lower[i] couples column i to row i+1
    upper: np.ndarray  # upper[i] couples column i+1 to row i

    def __post_init__(self):
        import numpy as np

        if self.dim < 1:
            raise DomainError("dim must be a positive integer")
        if len(self.diag) != self.dim or len(self.lower) != self.dim - 1 or len(self.upper) != self.dim - 1:
            raise DomainError("inconsistent tridiagonal band lengths")
        if not (np.all(np.isfinite(self.diag)) and np.all(np.isfinite(self.lower)) and np.all(np.isfinite(self.upper))):
            raise DomainError("tridiagonal entries must be finite")

    @classmethod
    def symmetric(cls, diag, offdiag):
        import numpy as np

        off = np.asarray(offdiag, dtype=float)
        return cls(dim=len(diag), diag=np.asarray(diag, dtype=float), lower=off, upper=off)

    @property
    def is_symmetric(self) -> bool:
        import numpy as np

        return self.lower is self.upper or np.array_equal(self.lower, self.upper)

    @property
    def offdiag(self) -> np.ndarray:
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

    def apply(self, v: np.ndarray) -> np.ndarray:
        out = self.diag * v
        out[1:] += self.lower * v[:-1]
        out[:-1] += self.upper * v[1:]
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

    upper: np.ndarray
    lower: np.ndarray

    def merged_by_magnitude(self) -> np.ndarray:
        import numpy as np

        both = np.concatenate([self.upper, self.lower])
        return both[np.argsort(-np.abs(both), kind="stable")]


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


def _a_diag(p: QParams, n: np.ndarray) -> np.ndarray:
    return _recurrence_d(n, p.a, p.b, p.q)


def build_A(p: QParams, dim: int) -> Tridiagonal:
    """Symmetric tridiagonal matrix of the diagonalized operator."""
    import numpy as np

    if dim < 1:
        raise DomainError("dim must be a positive integer")
    n = np.arange(dim, dtype=float)
    diag = _a_diag(p, n)
    k = n[:-1]
    off = (
        math.sqrt(-p.a * p.b)
        * p.q ** ((k + 2) / 2)
        * np.sqrt((1 - p.q ** (k + 1)) * (1 - p.a * p.q ** (k + 1)) * (1 - p.b * p.q ** (k + 1)))
    )
    return Tridiagonal.symmetric(diag, off)


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
    import numpy as np

    if dim < 2:
        raise DomainError("dim must be at least 2")
    n = np.arange(dim, dtype=float)
    k = n[:-1]
    q, a, b = p.q, p.a, p.b
    w = np.sqrt((1 - q ** (k + 1)) * (1 - a * q ** (k + 1)))
    c = math.sqrt(-a * b)
    diag = _a_diag(p, n)
    lower1 = c * q ** (k + 1) * w  # A1[n+1, n]
    upper1 = c * q * (1 - b * q ** (k + 1)) * w  # A1[n, n+1]
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
    out = []
    with mpmath.workdps(_WORKING_DPS):
        q, a, b = mpmath.mpf(p.q), mpmath.mpf(p.a), mpmath.mpf(p.b)
        pref = mpmath.mpf(1)
        for m in range(m_max + 1):
            out.append(pref)
            if m < m_max:
                pref *= ratio_fn(m, q, a, b)
    return out


def _spectral_coeff_mpf(p: QParams, branch: str, j: int, m_max: int, prefs: list):
    """Coefficients pref_m P_m(lam), m = 0..m_max, at a spectral point as
    exact-exponent mpmath floats, from the duality closed form
    `spectral_sequence`; prefs is `_prefactors(p, M, ratio_fn)` for some
    M >= m_max, and its ratio_fn picks the family (the eigencoefficients
    a_m, or psi_m or phi_m)."""
    seq = spectral_sequence(p, branch, j, m_max)
    with mpmath.workdps(_WORKING_DPS):
        return [pref * v for pref, v in zip(prefs, seq)]


def _forward_coeff_mpf(p: QParams, branch: str, j: int, m_max: int, prefs=None, recurrence=None):
    """Eigencoefficients a_0..a_{m_max} at the spectral point of index
    j >= m_max, from the forward three-term recurrence; prefs is
    `_prefactors(p, m_max)` and recurrence `_working_coefficients(p)`,
    each built here when not given.

    The polynomial sequence becomes the minimal solution of the
    recurrence (and decays like q^(m^2/2)) only past degree ~j, so up to
    degree j forward steps keep full relative accuracy, at one step per
    degree where the duality closed form sums up to m + 1 terms."""
    if prefs is None:
        prefs = _prefactors(p, m_max)
    if recurrence is None:
        recurrence = _working_coefficients(p)
    with mpmath.workdps(_WORKING_DPS):
        pw = recurrence.p
        lam = (pw.a if branch == "a" else pw.b) * pw.q ** (j + 1)
        seq = big_q_laguerre_recurrence(m_max, lam, pw, coeffs=recurrence)
        return [pref * v for pref, v in zip(prefs, seq)]


def _log10_prefactors(p: QParams, m_max: int) -> np.ndarray:
    """log10 pref_0..pref_m_max in floats: the running sum of the logs
    of the ratios `_pref_a_ratio`."""
    import numpy as np

    q, a, b = p.q, p.a, p.b
    m = np.arange(m_max, dtype=float)
    qm = q ** (m + 1)
    steps = -0.5 * math.log10(-a * b) - (2 * m + 4) / 4.0 * math.log10(q) + 0.5 * (
        np.log10(1 - a * qm) + np.log10(1 - b * qm) - np.log10(1 - qm)
    )
    return np.concatenate(([0.0], np.cumsum(steps)))


def _mpf_to_float_array(values, what: str) -> np.ndarray:
    import numpy as np

    out = np.zeros(len(values))
    for i, v in enumerate(values):
        f = float(v)
        if math.isinf(f):
            raise OverflowError(f"{what} overflows float range at index {i}")
        out[i] = f
    return out


def _signed_logs(values):
    """(sign, log10|v|) lists of floats from mpmath values."""
    signs = [0.0] * len(values)
    logs = [-math.inf] * len(values)
    with mpmath.workdps(_WORKING_DPS):
        for i, v in enumerate(values):
            if v != 0:
                signs[i] = 1.0 if v > 0 else -1.0
                logs[i] = float(mpmath.log10(abs(v)))
    return signs, logs


def _a_coeff_logs(p: QParams, branch: str, j: int, m_max: int, prefs=None, recurrence=None):
    """(sign, log10|a_m|) lists of the eigencoefficients at the spectral
    point of the given branch/index, m = 0..m_max: forward recurrence when
    every degree is at most the spectral index, the duality closed form
    otherwise; prefs is the shared `_prefactors(p, m_max)` list, built here
    when not given, and recurrence the shared `_working_coefficients(p)`
    table of the forward route, if any."""
    if prefs is None:
        prefs = _prefactors(p, m_max)
    if j >= m_max:
        return _signed_logs(_forward_coeff_mpf(p, branch, j, m_max, prefs, recurrence))
    return _signed_logs(_spectral_coeff_mpf(p, branch, j, m_max, prefs))


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
    import numpy as np

    q, a, b = p.q, p.a, p.b
    log_q = math.log10(q)
    qi = q ** np.arange(1, dim + 1, dtype=float)
    log_sq = {s: float(np.sum(np.log10(1 - s * qi))) for s in (a, b)}
    qd = q**dim
    log_off = 0.5 * math.log10(-a * b * (1 - qd) * (1 - a * qd) * (1 - b * qd)) + (dim + 1) / 2 * log_q
    log_fixed = log_off + float(_log10_prefactors(p, dim)[dim]) + dim * (dim + 1) / 2 * log_q
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
    import numpy as np

    if N < 1:
        raise DomainError("N must be a positive integer")
    n = np.arange(N, dtype=float)
    return SpectralPoints(upper=p.a * p.q ** (n + 1), lower=p.b * p.q ** (n + 1))


# Bisection steps allowed before the solve gives up; the number of
# Sturm-count points one speculative pass may evaluate (a pass costs one
# Python loop over the rows, nearly flat up to about this many points);
# rows per block of a count, which bounds its scratch to block x points.
_MAX_BISECTIONS = 120
_POINTS_PER_PASS = 512
_COUNT_BLOCK_ROWS = 64
# Bisection stops once every bracket is at most this times ||T|| wide.
_BRACKET_WIDTH = 1e-14


def eig_tridiagonal_accuracy(tri: Tridiagonal) -> float:
    """Bound on the distance from each eigenvalue `eig_tridiagonal(tri)`
    returns to one of the matrix that `tri` rounds: the bracket width
    plus 16 units of roundoff of ||T||, for the float Sturm count (exact
    for a matrix a few units from T entrywise: Demmel, Dhillon and Ren,
    ETNA 3, 1995) and the rounded entries and targets."""
    norm = float(abs(tri.diag).max() + 2 * abs(tri.offdiag).max(initial=0.0))
    return (_BRACKET_WIDTH + 16 * 2.0**-53) * norm


def eig_tridiagonal(tri: Tridiagonal, near: np.ndarray | None = None) -> np.ndarray:
    """All eigenvalues of a symmetric tridiagonal matrix, ascending; or,
    given target points `near`, for each target the eigenvalue nearest
    to it.

    Bisection on the Sturm sign-count of the shifted LDL^T pivots:
    deterministic, and accurate to `eig_tridiagonal_accuracy(tri)` even
    for the eigenvalues clustered near zero.  With `near`, one count at
    the targets gives the number k_t of eigenvalues below each, and only
    the indices k_t-2 .. k_t+1 are bisected; each result is bit for bit
    `full[argmin |full - t|]` of the full solve.
    """
    import numpy as np

    if not tri.is_symmetric:
        raise DomainError("eig_tridiagonal requires a symmetric matrix")
    d = np.asarray(tri.diag, dtype=float)
    n = d.size
    targets = None if near is None else np.asarray(near, dtype=float).reshape(-1)
    if n == 1:
        return d.copy() if targets is None else np.full(targets.size, d[0])
    e = np.asarray(tri.offdiag, dtype=float)
    e2 = e * e
    rad = np.zeros(n)
    rad[:-1] += np.abs(e)
    rad[1:] += np.abs(e)
    lo = float(np.min(d - rad))
    hi = float(np.max(d + rad))
    norm = max(abs(lo), abs(hi), 1e-300)
    pivmin = 1e-290

    def count_below(xs: np.ndarray) -> np.ndarray:
        # pivots d[i] - x - e2[i-1] / pivot[i-1], floored away from zero;
        # each block of rows gets its shifts d[i] - x and its count of
        # negative pivots in one numpy call
        cnt = np.zeros(xs.shape, dtype=np.int64)
        prev = None
        for start in range(0, n, _COUNT_BLOCK_ROWS):
            piv = d[start : start + _COUNT_BLOCK_ROWS, None] - xs
            for i, row in enumerate(piv, start):
                if i:
                    row -= e2[i - 1] / prev
                row[np.abs(row) < pivmin] = -pivmin
                prev = row
            cnt += np.count_nonzero(piv < 0, axis=0)
        return cnt

    if targets is None:
        ks = np.arange(n)
    else:
        window = count_below(targets)[:, None] + np.arange(-2, 2)
        ks = np.unique(np.clip(window, 0, n - 1))
    lob, hib = _bisect(count_below, ks, lo - 1e-12 * norm, hi + 1e-12 * norm, _BRACKET_WIDTH * norm)
    eig = 0.5 * (lob + hib)
    if targets is None:
        return eig
    return np.array([eig[np.argmin(np.abs(eig - t))] for t in targets])


def _bisect(count_below, ks: np.ndarray, lo: float, hi: float, width_target: float) -> tuple:
    """Brackets (lob, hib) of the eigenvalues with indices `ks`, by
    bisection from [lo, hi] until every bracket is at most `width_target`
    wide.

    One Sturm-count pass serves several bisection levels: it counts the
    midpoints of the next levels of every distinct bracket's bisection
    subtree (`_subtree_counts`), and the walk then reads the count of each
    index's midpoint level by level.  The stop test runs before every
    level, so the brackets equal those of plain bisection, one count per
    level, bit for bit.
    """
    import numpy as np

    lob = np.full(ks.size, lo)
    hib = np.full(ks.size, hi)
    node = tree = counts = heap = None
    for _ in range(_MAX_BISECTIONS):
        if np.all((hib - lob) <= width_target):
            return lob, hib
        if heap is None or heap[0] >= tree.shape[1]:
            node, tree, counts = _subtree_counts(count_below, lob, hib)
            heap = np.ones(ks.size, dtype=np.int64)
        mid = tree[node, heap]
        below = counts[node, heap] > ks
        hib = np.where(below, mid, hib)
        lob = np.where(below, lob, mid)
        heap = 2 * heap + ~below
    raise NonConvergenceError("bisection failed to localize all eigenvalues")


def _subtree_counts(count_below, lob: np.ndarray, hib: np.ndarray) -> tuple:
    """Midpoints and Sturm counts of the next levels of bisection below
    each distinct bracket, in one call of `count_below`.

    Returns (node, tree, counts): `node[i]` is the row of bracket
    (lob[i], hib[i]); row r of `tree` holds its subtree in heap order
    (column 1 splits the bracket, column h has children 2h and 2h+1; the
    left child keeps the lower half), and `counts` the count at each
    midpoint.  Each midpoint is `0.5 * (lo + hi)` of the bracket it splits,
    as one bisection step forms it.  The subtree is as deep as
    `_POINTS_PER_PASS` points allow, and at least one level.
    """
    import numpy as np

    brackets, node = np.unique(np.stack([lob, hib], axis=1), axis=0, return_inverse=True)
    rows = len(brackets)
    depth = max(1, int(math.log2(_POINTS_PER_PASS / rows + 1)))
    tree = np.empty((rows, 2 ** depth))
    lo_l, hi_l = brackets[:, :1], brackets[:, 1:]
    for level in range(depth):
        mid = 0.5 * (lo_l + hi_l)
        tree[:, 2 ** level : 2 ** (level + 1)] = mid
        lo_l = np.stack([lo_l, mid], axis=2).reshape(rows, -1)
        hi_l = np.stack([mid, hi_l], axis=2).reshape(rows, -1)
    counts = np.zeros(tree.shape, dtype=np.int64)
    counts[:, 1:] = count_below(tree[:, 1:].ravel()).reshape(rows, -1)
    return node.reshape(-1), tree, counts


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
