"""Classical q -> 1 limit checks.

Under the substitution a = q^alpha, b = q^beta/(q-1) (so b -> -infinity),
the polynomial family degenerates to classical Laguerre polynomials, the
tridiagonal operator converges entrywise (in the monomial basis) to the
first-order differential operator

    A_cl = (1-x)^2 d/dx + 2 l (x-1) + 1,

and its eigenfunctions converge to
xi_lam(x) = (1-x)^(-2l) exp((lam-1) x / (1-x)).
"""

from __future__ import annotations

import decimal
import math
from typing import NamedTuple

from qortho.qseries import DomainError, QParams, _require_index, _Validated, _working_context
from qortho.polynomials import EXTENDED_DPS, _recurrence_d, big_q_laguerre_recurrence, classical_laguerre
from qortho.reporting import VerificationReport

__all__ = [
    "LimitSweep",
    "geometric_q_sequence",
    "limit_polynomial_check",
    "classical_eigenfunction",
    "classical_operator_check",
    "classical_monomial_tridiagonal",
    "limit_operator_entries_check",
    "fit_rate",
]

EXTENDED_PRECISION_GAP = 2.0**-10  # 1 - q below this routes through Decimals of EXTENDED_DPS digits


def geometric_q_sequence(k_min: int = 2, k_max: int = 10) -> tuple:
    """q_k = 1 - 2^-k for k = k_min..k_max, increasing toward 1."""
    return tuple(1.0 - 2.0**-k for k in range(k_min, k_max + 1))


class _LimitSweepFields(NamedTuple):
    alpha: float
    beta: float
    q_sequence: tuple


class LimitSweep(_Validated, _LimitSweepFields):
    """One classical-limit study: fixed (alpha, beta) and the q values
    marching toward 1 with a(q) = q^alpha, b(q) = q^beta/(q-1)."""

    __slots__ = ()

    def __new__(cls, alpha, beta, q_sequence=geometric_q_sequence()):
        qs = tuple(q_sequence)
        if not qs:
            raise DomainError("q_sequence must be nonempty")
        if any(not (0 < q < 1) for q in qs):
            raise DomainError("q_sequence values must lie strictly in (0, 1)")
        if any(q2 <= q1 for q1, q2 in zip(qs, qs[1:])):
            raise DomainError("q_sequence must be strictly increasing")
        return super().__new__(cls, alpha, beta, qs)

    def a_of(self, q: float) -> float:
        return q**self.alpha

    def b_of(self, q: float) -> float:
        return q**self.beta / (q - 1.0)


def fit_rate(gaps, errs, floor: float = 1e-14):
    """Least-squares slope of log err against log(1-q) over the points
    above the rounding floor (from centred sums, nan when fewer than two
    distinct gaps remain), plus the linear-rate constant C = max err/(1-q)."""
    pts = [(g, e) for g, e in zip(gaps, errs) if e > floor]
    c_fit = max((e / g for g, e in pts), default=0.0)
    if len(pts) < 2:
        return math.nan, c_fit
    lx = [math.log(g) for g, _ in pts]
    ly = [math.log(e) for _, e in pts]
    mx = math.fsum(lx) / len(lx)
    my = math.fsum(ly) / len(ly)
    dx = [x - mx for x in lx]
    sxx = math.fsum(u * u for u in dx)
    if sxx == 0:
        return math.nan, c_fit
    return math.fsum(u * (y - my) for u, y in zip(dx, ly)) / sxx, c_fit


def limit_polynomial_check(n: int, x: float, sweep: LimitSweep) -> list:
    """One report per q in the sweep comparing P_n(x; q^alpha,
    q^beta/(q-1); q) against L_n^(alpha)(1-x)/L_n^(alpha)(0), followed by
    a fitted-rate report (order in (1-q), required >= 0.9).

    Monotone convergence is enforced for q >= 1 - 2^-4 with one
    non-monotone step allowed for rounding (flagged in the note).
    """
    l0 = classical_laguerre(n, sweep.alpha, 0.0)
    if l0 == 0:
        raise DomainError("L_n^(alpha)(0) vanishes; alpha <= -1 is outside the limit regime")
    target = classical_laguerre(n, sweep.alpha, 1.0 - x) / l0

    gaps, errs, values = [], [], []
    for q in sweep.q_sequence:
        gap = 1.0 - q
        scalar = decimal.Decimal if gap < EXTENDED_PRECISION_GAP else float
        with decimal.localcontext(_working_context(EXTENDED_DPS)):
            qs = scalar(q)
            ps = QParams(q=qs, a=qs ** scalar(sweep.alpha), b=qs ** scalar(sweep.beta) / (qs - 1))
            val = float(big_q_laguerre_recurrence(n, scalar(x), ps)[n])
        gaps.append(gap)
        errs.append(abs(val - target))
        values.append(val)

    # order fitted on the asymptotic tail of the sweep; the pre-asymptotic
    # curvature of the early points would bias the exponent downward
    ntail = min(5, len(gaps))
    floor = 1e-11 * (1.0 + abs(target))
    slope, _ = fit_rate(gaps[-ntail:], errs[-ntail:], floor=floor)
    # the linear-rate constant over the whole sweep
    _, c_fit = fit_rate(gaps, errs, floor=0.0)
    reports = []
    allowance_used = False
    for k, (q, gap, err, val) in enumerate(zip(sweep.q_sequence, gaps, errs, values)):
        note = f"fitted C={c_fit:.6e}"
        monotone_ok = True
        if k > 0 and q >= 1 - 2.0**-4 and err > errs[k - 1] * 1.05 and err > 10 * floor:
            if not allowance_used:
                allowance_used = True
                note += "; single non-monotone step allowed (rounding)"
            else:
                monotone_ok = False
                note += "; monotone convergence violated"
        tol = c_fit * gap + floor
        passed = monotone_ok and err <= tol
        reports.append(
            VerificationReport(
                identity_id="climit-poly",
                params=QParams(q=q, a=sweep.a_of(q), b=sweep.b_of(q)),
                indices=(n, k),
                lhs=val,
                rhs=target,
                residual=err,
                terms_used=n + 1,
                tail_estimate=0.0,
                tolerance=tol,
                status="pass" if passed else "fail",
                note=note,
            )
        )
    at_floor = math.isnan(slope)
    rate_ok = True if at_floor else slope >= 0.9
    note = f"fitted order in (1-q); C={c_fit:.6e}"
    if at_floor:
        note += "; errors at rounding floor"
    reports.append(
        VerificationReport(
            identity_id="climit-poly-rate",
            params=reports[-1].params,
            indices=(n, len(gaps)),
            lhs=slope,
            rhs=0.9,
            residual=0.0 if at_floor else max(0.0, 0.9 - slope),
            terms_used=len(gaps),
            tail_estimate=0.0,
            tolerance=0.0,
            status="pass" if rate_ok else "fail",
            note=note,
        )
    )
    return reports


def classical_eigenfunction(lam: float, x: float, l: float) -> float:
    """xi_lam(x) = (1-x)^(-2l) exp((lam-1) x/(1-x)) for |x| < 1."""
    if not abs(x) < 1:
        raise DomainError("classical eigenfunction needs |x| < 1")
    return (1.0 - x) ** (-2.0 * l) * math.exp((lam - 1.0) * x / (1.0 - x))


def _fourth_order_derivative(f, x: float, h: float) -> float:
    return (f(x - 2 * h) - 8 * f(x - h) + 8 * f(x + h) - f(x + 2 * h)) / (12 * h)


def classical_operator_check(
    lam: float,
    x: float,
    l: float,
    h: float = 1e-3,
) -> VerificationReport:
    """Checks A_cl xi = lam xi with the derivative taken by a 4th-order
    central stencil of step h; the tolerance budgets the O(h^4)
    truncation plus rounding amplified by 1/h."""
    if not 0 < h < math.inf:
        raise DomainError("stencil step h must be positive and finite")
    if not abs(x) < 1 - 2 * h:
        raise DomainError("stencil would leave |x| < 1")

    def xi(y: float) -> float:
        return classical_eigenfunction(lam, y, l)

    fx = xi(x)
    applied = (1.0 - x) ** 2 * _fourth_order_derivative(xi, x, h) + (2.0 * l * (x - 1.0) + 1.0) * fx
    lhs = applied
    rhs = lam * fx
    residual = abs(lhs - rhs)
    scale = 1.0 + max(abs(lhs), abs(rhs), abs(fx))
    tol = (1e3 * h**4 + 2e-12 / h) * scale
    passed = residual <= tol
    return VerificationReport(
        identity_id="climit-operator-eigen",
        params=QParams(q=0.5, a=0.5, b=-0.7),  # placeholder; check is q-free
        indices=(0, 0),
        lhs=lhs,
        rhs=rhs,
        residual=residual,
        terms_used=4,
        tail_estimate=0.0,
        tolerance=tol,
        status="pass" if passed else "fail",
        note=f"4th-order stencil, h={h:g}",
    )


def classical_monomial_tridiagonal(k: int, l: float) -> tuple:
    """Action of A_cl on x^k: coefficients of (x^(k-1), x^k, x^(k+1)).

    (1-x)^2 (x^k)' + (2l(x-1)+1) x^k
        = k x^(k-1) + (1 - 2k - 2l) x^k + (k + 2l) x^(k+1).
    """
    return (float(k), 1.0 - 2.0 * k - 2.0 * l, k + 2.0 * l)


def _q_monomial_tridiagonal(k: int, q: float, a: float, b: float) -> tuple:
    """Row k of the operator in the monomial basis at parameters (a, b):
    (sub, diag, super) = (coefficient of x^(k-1), x^k, x^(k+1))."""
    mab = -a * b
    qk = q**k
    diag = _recurrence_d(k, a, b, q)
    sub = math.sqrt(mab) * a**0.25 * q ** ((k + 1) / 2.0) * (1 - qk) * math.sqrt(1 - b * qk)
    sup = (
        math.sqrt(mab)
        * a**-0.25
        * q ** ((k + 2) / 2.0)
        * (1 - a * q ** (k + 1))
        * math.sqrt(1 - b * q ** (k + 1))
    )
    return sub, diag, sup


def limit_operator_entries_check(
    n: int,
    sweep: LimitSweep,
) -> list:
    """Entrywise convergence of the operator's monomial-basis rows
    0..n to the classical tridiagonal, with one fitted-rate report per
    row part (sub/diag/super)."""
    _require_index("row index", n)
    l = (sweep.alpha + 1.0) / 2.0
    parts = ("sub", "diag", "super")
    reports = []
    for k in range(n + 1):
        targets = dict(zip(parts, [classical_monomial_tridiagonal(k, l)[i] for i in range(3)]))
        errs = {part: [] for part in parts}
        gaps = []
        for qi, q in enumerate(sweep.q_sequence):
            got = dict(zip(parts, _q_monomial_tridiagonal(k, q, sweep.a_of(q), sweep.b_of(q))))
            gaps.append(1.0 - q)
            for part in parts:
                err = abs(got[part] - targets[part])
                errs[part].append(err)
                reports.append(
                    VerificationReport(
                        identity_id=f"climit-operator-{part}",
                        params=QParams(q=q, a=sweep.a_of(q), b=sweep.b_of(q)),
                        indices=(k, qi),
                        lhs=got[part],
                        rhs=targets[part],
                        residual=err,
                        terms_used=1,
                        tail_estimate=0.0,
                        tolerance=math.inf,
                        status="pass",  # per-q values are informational; see rate reports
                        note="",
                    )
                )
        for part in parts:
            # fit on the tail of the sweep: the O((1-q)^2) curvature of
            # the early points otherwise masks the first-order rate
            ntail = min(5, len(gaps))
            scale = 1.0 + abs(targets[part])
            slope, c_fit = fit_rate(gaps[-ntail:], errs[part][-ntail:], floor=1e-12 * scale)
            all_floor = all(e <= 1e-11 * scale for e in errs[part])
            rate_ok = all_floor or (not math.isnan(slope) and slope >= 0.9)
            reports.append(
                VerificationReport(
                    identity_id=f"climit-operator-rate-{part}",
                    params=reports[-1].params,
                    indices=(k, len(gaps)),
                    lhs=slope,
                    rhs=0.9,
                    residual=max(0.0, 0.9 - slope) if not math.isnan(slope) else 0.0,
                    terms_used=len(gaps),
                    tail_estimate=0.0,
                    tolerance=0.0,
                    status="pass" if rate_ok else "fail",
                    note=f"fitted order in (1-q); C={c_fit:.6e}",
                )
            )
    return reports
