"""The paper's U_q(su_1,1) constructions in the canonical orthonormal
basis f_n that no CLI command reads: the generator matrices and the
operators composed from them, the non-self-adjoint pair (A1, A2), the
eigencoefficient and psi/phi vectors as floats, the normalization
constants c_n and c'_n as floats, and the action of q^(-J0) on the
eigenvector bases.

The commands read the self-adjoint matrix, its spectrum and the Decimal
running products of `qortho.operators`; the functions here are library
routes over the same products, which the tests hold to the paper's
formulas and to each other.
"""

from __future__ import annotations

import decimal
import itertools
import math
from typing import NamedTuple

from qortho.qseries import DomainError, QParams
from qortho.polynomials import _context_of, _label_of, _label_point, _require_label, big_q_laguerre_recurrence
from qortho.operators import (
    Tridiagonal,
    _a_diag,
    _coefficient_entries,
    _normalization_entries,
    _prefactor_entries,
    build_A,
)

__all__ = [
    "CoefficientVector",
    "GeneratorMatrices",
    "build_generator_matrices",
    "compose_A_from_generators",
    "build_A1_A2",
    "compose_A1_A2_from_generators",
    "eigen_coefficients",
    "recurrence_residuals",
    "normalization_c",
    "normalization_cprime",
    "qJ0_inverse_action",
    "psi_phi_coefficients",
]


class CoefficientVector(NamedTuple):
    """Expansion coefficients of a representation-space element in the
    orthonormal basis f_n; lam is the eigenvalue it represents."""

    coeffs: tuple
    lam: float
    normalizable: bool = True


# ---------------------------------------------------------------------------
# generator matrices and operator assembly


class GeneratorMatrices(NamedTuple):
    """Raising/lowering/diagonal generator data truncated to dim rows."""

    dim: int
    raising: tuple  # raising[n] = coefficient of f_{n+1} in J+ f_n
    lowering: tuple  # lowering[n] = coefficient of f_n in J- f_{n+1}
    qj0_diag: tuple  # q^(l+n)
    j0_diag: tuple  # l + n

    def jplus_dense(self) -> list:
        m = _zeros(self.dim)
        for i, x in enumerate(self.raising):
            m[i + 1][i] = x
        return m

    def jminus_dense(self) -> list:
        m = _zeros(self.dim)
        for i, x in enumerate(self.lowering):
            m[i][i + 1] = x
        return m


def _zeros(dim: int) -> list:
    return [[0.0] * dim for _ in range(dim)]


def _diag_scaled(left, m, right) -> list:
    """diag(left) m diag(right), for m a list of rows."""
    return [[li * x * rj for x, rj in zip(row, right)] for li, row in zip(left, m)]


def _plus(m1, m2) -> list:
    return [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(m1, m2)]


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
    if dim < 2:
        raise DomainError("dim must be at least 2")
    ns = [float(k) for k in range(dim)]
    q, a = p.q, p.a
    raising = tuple(jplus_action_factor(k, p) for k in range(dim - 1))
    lowering = tuple(jminus_action_factor(k + 1, p) for k in range(dim - 1))
    qj0 = tuple(math.sqrt(a * q) * q**k for k in ns)  # q^l = sqrt(aq)
    j0 = tuple(p.l + k for k in ns)
    return GeneratorMatrices(dim=dim, raising=raising, lowering=lowering, qj0_diag=qj0, j0_diag=j0)


def compose_A_from_generators(p: QParams, dim: int) -> list:
    """Assemble the operator from generator matrices:

        alpha q^(J0/4) (sqrt(1-b q^(J0-l)) J+ q^((J0-l)/2)
                        + q^((J0-l)/2) J- sqrt(1-b q^(J0-l))) q^(J0/4)
        - beta1 q^(2 J0) + beta2 q^(J0-l)

    The last row/column of the truncation is corrupted by the missing
    coupling to row dim, so comparisons must exclude them.  Returns a
    list of rows.
    """
    g = build_generator_matrices(p, dim)
    ns = [float(k) for k in range(dim)]
    q2 = [p.q ** (k / 2) for k in ns]  # q^((J0-l)/2) diagonal
    s = [math.sqrt(1 - p.b * p.q**k) for k in ns]  # sqrt(1 - b q^(J0-l)), positive since b < 0
    jp, jm = g.jplus_dense(), g.jminus_dense()
    return _composed(p, _plus(_diag_scaled(s, jp, q2), _diag_scaled(q2, jm, s)))


def _composed(p: QParams, core: list) -> list:
    """alpha q^(J0/4) core q^(J0/4) - beta1 q^(2J0) + beta2 q^(J0-l), with
    q^(J0/4) = q^((l+n)/4) and q^(2J0) = a q^(2n+1)."""
    q, a = p.q, p.a
    q4 = [(a * q) ** 0.125 * q ** (k / 4) for k in map(float, range(len(core)))]
    mat = [[p.alpha * x for x in row] for row in _diag_scaled(q4, core, q4)]
    for k, row in enumerate(mat):
        row[k] += -p.beta1 * a * q ** (2.0 * k + 1) + p.beta2 * q ** float(k)
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
    """Dense assembly of the (A1, A2) compositions from generator
    matrices, each a list of rows."""
    g = build_generator_matrices(p, dim)
    dq = [p.q ** float(k) for k in range(dim)]  # q^(J0-l)
    db = [1 - p.b * x for x in dq]  # 1 - b q^(J0-l)
    ones = [1.0] * dim
    jp, jm = g.jplus_dense(), g.jminus_dense()
    # operator composition reads right to left: X Y = apply Y, then X
    core1 = _plus(_diag_scaled(ones, jp, dq), _diag_scaled(ones, jm, db))
    core2 = _plus(_diag_scaled(db, jp, ones), _diag_scaled(dq, jm, ones))
    return _composed(p, core1), _composed(p, core2)


# ---------------------------------------------------------------------------
# eigencoefficients


def _to_floats(entries, m_max: int, what: str) -> tuple:
    """The entries 0..m_max of an iterator, as floats that must not overflow."""
    out = tuple(map(float, itertools.islice(entries, m_max + 1)))
    for i, f in enumerate(out):
        if math.isinf(f):
            raise OverflowError(f"{what} overflows float range at index {i}")
    return out


def eigen_coefficients(x, p: QParams, m_max: int) -> CoefficientVector:
    """Eigencoefficient sequence a_m(lam), m = 0..m_max, with a_0 = 1:

        a_m = (-ab)^(-m/2) q^(-m(m+3)/4) ((aq,bq;q)_m/(q;q)_m)^(1/2) P_m(lam).

    At a spectral point's label (branch, n) x, lam = a q^(n+1) or b q^(n+1),
    the values are square-summable, from the duality closed form, also
    where the float of lam underflows.  A number x is lam itself, whatever
    its value: its values come from the recurrence, each times the Decimal
    prefactor of `_prefactor_entries`, rounded once in `_context_of(p)`,
    flagged non-normalizable; a non-finite one raises DomainError.  The
    coefficients are a tuple of floats; one that overflows the float range
    raises OverflowError.
    """
    if m_max < 0:
        raise DomainError("cut-off degree must be nonnegative")
    label = _label_of(x)
    if label is not None:
        coeffs = _to_floats(_coefficient_entries(p, *label, _prefactor_entries(p)), m_max, "eigencoefficients")
        return CoefficientVector(coeffs=coeffs, lam=float(_label_point(p, label)), normalizable=True)
    if not abs(x) < math.inf:
        raise DomainError(f"eigencoefficients need a finite lam, not {x!r}")

    # generic lam: the recurrence's values, each times its prefactor
    multiply = _context_of(p).multiply
    values = big_q_laguerre_recurrence(m_max, x, p)
    products = (multiply(decimal.Decimal(v), pref) for v, pref in zip(values, _prefactor_entries(p)))
    return CoefficientVector(coeffs=_to_floats(products, m_max, "eigencoefficients"), lam=x, normalizable=False)


def recurrence_residuals(vec: CoefficientVector, p: QParams) -> list:
    """Row residuals |(A v)_m - lam v_m| / scale for interior rows
    1..m_max-1, where scale is the largest term magnitude in the row."""
    m_max = len(vec.coeffs) - 1
    tri = build_A(p, m_max + 1)
    v = vec.coeffs
    out = []
    for m in range(1, m_max):
        terms = (
            tri.offdiag[m] * v[m + 1],
            tri.offdiag[m - 1] * v[m - 1],
            tri.diag[m] * v[m],
            -vec.lam * v[m],
        )
        scale = max(abs(x) for x in terms)
        res = abs(math.fsum(terms))
        out.append(res / scale if scale > 0 else res)
    return out


# ---------------------------------------------------------------------------
# normalization constants


def normalization_c(n: int, p: QParams) -> float:
    """Normalization constant c_n of the upper-branch eigenvectors: the
    running product of `operators._normalization_entries`, formed on the
    exact Decimals of p and returned in p's scalar type."""
    return _normalization(n, p, "a")


def normalization_cprime(n: int, p: QParams) -> float:
    """Normalization constant c'_n of the lower-branch eigenvectors: the
    running product of c_n with a and b swapped, in p's scalar type."""
    return _normalization(n, p, "b")


def _normalization(n: int, p: QParams, branch: str):
    """c_n (branch "a") or c'_n (branch "b") of `operators._normalization_entries`, in p's scalar type."""
    if n < 0:
        raise DomainError("index must be nonnegative")
    c = next(itertools.islice(_normalization_entries(p, branch), n, None))
    return c if isinstance(p.q, decimal.Decimal) else float(c)


# ---------------------------------------------------------------------------
# action of q^(-J0) on the eigenvector bases


def qJ0_inverse_action(label, p: QParams, orthonormal: bool = False) -> tuple:
    """Tridiagonal coefficients (sub, diag, super) of q^(-J0) acting on
    the eigenvector of the spectral point of the label (branch, n), the
    family of branch "a" (at a q^(n+1)) or "b" (at b q^(n+1));
    `orthonormal` selects the normalized-basis variant."""
    branch, n = _require_label(label)
    q, a, b = p.q, p.a, p.b
    if branch == "a":
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
    lead = math.sqrt(a) / b
    diag = -lead * q ** (-2 * n - 1.5) * (1 + q - q ** (n + 1) * (a * b + a + b) / a)
    if orthonormal:
        sup = lead * q ** (-2 * n - 2) * math.sqrt(
            (1 - b * q ** (n + 1)) * (1 - q ** (n + 1)) * (1 - b * q ** (n + 1) / a)
        )
        sub = lead * q ** (-2.0 * n) * math.sqrt((1 - b * q**n) * (1 - q**n) * (1 - b * q**n / a))
    else:
        sup = lead * q ** (-2 * n - 1.5) * (1 - b * q ** (n + 1))
        sub = lead * q ** (-2 * n - 0.5) * (1 - q**n) * (1 - b * q**n / a)
    return sub, diag, sup


# ---------------------------------------------------------------------------
# eigenvectors of the non-self-adjoint pair


def _pref_psi_ratio(qm, q, a, b):
    """Ratio for (-ab)^(-m/2) q^(-m) ((aq;q)_m/(q;q)_m)^(1/2), with qm = q^(m+1);
    Decimals, in the caller's working context."""
    return ((1 - a * qm) / (-a * b * (1 - qm))).sqrt() / q


def _pref_phi_ratio(qm, q, a, b):
    """Ratio for (-ab)^(-m/2) q^(-m(m+1)/2) ((aq;q)_m/(q;q)_m)^(1/2) (bq;q)_m,
    with qm = q^(m+1); Decimals, in the caller's working context."""
    return ((1 - a * qm) / (-a * b * (1 - qm))).sqrt() * (1 - b * qm) / qm


def psi_phi_coefficients(label, p: QParams, m_max: int) -> tuple:
    """Coefficient vectors of the eigenvectors of A1 and A2 at the
    spectral point lam of the label (branch, n), a q^(n+1) or b q^(n+1):

        psi_k = (-ab)^(-k/2) q^(-k)        ((aq;q)_k/(q;q)_k)^(1/2) P_k(lam)
        phi_k = (-ab)^(-k/2) q^(-k(k+1)/2) ((aq;q)_k (bq;q)_k^2/(q;q)_k)^(1/2) P_k(lam)

    phi_k grows with k at deep spectral points; exceeding float range
    raises OverflowError.  psi_k(lam) phi_k(lam') = a_k(lam) a_k(lam')
    term for term, so the biorthogonality engine sums products of the
    eigencoefficients a_k formed in Decimals instead and has no such limit.
    """
    if m_max < 0:
        raise DomainError("cut-off degree must be nonnegative")
    lam = float(_label_point(p, _require_label(label)))
    psi = _to_floats(_coefficient_entries(p, *label, _prefactor_entries(p, _pref_psi_ratio)), m_max, "psi coefficients")
    phi = _to_floats(_coefficient_entries(p, *label, _prefactor_entries(p, _pref_phi_ratio)), m_max, "phi coefficients")
    return (
        CoefficientVector(coeffs=psi, lam=lam, normalizable=True),
        CoefficientVector(coeffs=phi, lam=lam, normalizable=True),
    )
