"""Tests for the classical q -> 1 limit checks."""

import math

import pytest

from qortho.qseries import DomainError
from qortho.polynomials import classical_laguerre
from qortho.climit import (
    LimitSweep,
    classical_eigenfunction,
    classical_monomial_tridiagonal,
    classical_operator_check,
    fit_rate,
    geometric_q_sequence,
    limit_operator_entries_check,
    limit_polynomial_check,
)

SWEEP = LimitSweep(alpha=1.0, beta=0.5)


def eigenfunction_series(lam: float, x: float, l: float, n_terms: int = 80) -> float:
    """The partial sum of sum_n L_n^(2l-1)(1-lam) x^n, the generating-series
    form of the classical eigenfunction."""
    return math.fsum(classical_laguerre(n, 2.0 * l - 1.0, 1.0 - lam) * x**n for n in range(n_terms))


class TestLimitSweep:
    def test_default_sequence(self):
        qs = geometric_q_sequence()
        assert qs[0] == 0.75 and qs[-1] == 1 - 2.0**-10
        assert all(q2 > q1 for q1, q2 in zip(qs, qs[1:]))

    def test_b_goes_to_minus_infinity(self):
        bs = [SWEEP.b_of(q) for q in SWEEP.q_sequence]
        assert all(b < 0 for b in bs)
        assert all(b2 < b1 for b1, b2 in zip(bs, bs[1:]))

    def test_rejects_nonmonotone(self):
        with pytest.raises(DomainError):
            LimitSweep(alpha=1.0, beta=0.5, q_sequence=(0.5, 0.5))

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            LimitSweep(alpha=1.0, beta=0.5, q_sequence=(0.5, 1.0))

    @pytest.mark.parametrize("alpha", [-1.0, -1.5])
    def test_alpha_outside_limit_regime_rejected(self, alpha):
        # alpha <= -1 gives a(q) q = q^(alpha+1) >= 1, outside the parameter
        # domain, for every q; degree 0 gets past the L_n^(alpha)(0) check
        sweep = LimitSweep(alpha=alpha, beta=0.5)
        with pytest.raises(DomainError, match="a must be smaller than 1/q"):
            limit_polynomial_check(0, 0.4, sweep)
        with pytest.raises(DomainError, match="a must be smaller than 1/q"):
            limit_operator_entries_check(0, sweep)


class TestLimitPolynomial:
    def test_degree_zero_exact(self):
        reps = limit_polynomial_check(0, 0.4, SWEEP)
        for r in reps:
            if r.identity_id == "climit-poly":
                assert r.lhs == 1.0 and r.rhs == 1.0 and r.residual == 0.0

    def test_x_one_ratio_is_one(self):
        reps = limit_polynomial_check(3, 1.0, SWEEP)
        vals = [r for r in reps if r.identity_id == "climit-poly"]
        assert all(v.rhs == 1.0 for v in vals)
        assert all(abs(v.lhs - 1.0) <= 1e-10 for v in vals)

    def test_first_order_factor_between_sweep_points(self):
        # error at q = 1-2^-8 at least 8 times below error at q = 1-2^-4
        reps = limit_polynomial_check(3, 0.4, SWEEP)
        errs = {r.indices[1]: r.residual for r in reps if r.identity_id == "climit-poly"}
        k4, k8 = 2, 6  # sweep starts at k=2
        assert errs[k8] <= errs[k4] / 8.0

    @pytest.mark.parametrize("n", range(7))
    def test_rate_at_least_09(self, n):
        reps = limit_polynomial_check(n, 0.4, SWEEP)
        rate = [r for r in reps if r.identity_id == "climit-poly-rate"][0]
        assert rate.passed
        if not math.isnan(rate.lhs):
            assert rate.lhs >= 0.9

    def test_errors_monotone_in_tail(self):
        reps = limit_polynomial_check(4, 0.4, SWEEP)
        errs = [r.residual for r in reps if r.identity_id == "climit-poly"]
        qs = SWEEP.q_sequence
        floor = 1e-12
        for k in range(1, len(errs)):
            if qs[k] >= 1 - 2.0**-4 and errs[k] > 10 * floor:
                assert errs[k] <= errs[k - 1] * 1.05

    def test_q_column_strictly_increasing(self):
        reps = limit_polynomial_check(2, 0.4, SWEEP)
        qcol = [r.params.q for r in reps if r.identity_id == "climit-poly"]
        assert all(b > a for a, b in zip(qcol, qcol[1:]))

    def test_points_near_one_take_the_extended_route(self):
        # below 1 - q = 2^-10 the sweep runs its recurrence at the 50
        # digits of EXTENDED_DPS; the float recurrence there is 1.8e-12 off
        # at 1 - 2^-11 and up to 1.1e-9 off nearer to 1 (degrees 0..8), so
        # each value must match a 60-digit recurrence to 1e-13
        import mpmath

        from qortho.climit import EXTENDED_PRECISION_GAP
        from qortho.polynomials import big_q_laguerre_recurrence
        from qortho.qseries import QParams

        sweep = LimitSweep(alpha=1.0, beta=0.5, q_sequence=geometric_q_sequence(2, 22))
        checked = 0
        for n in range(9):
            for r in limit_polynomial_check(n, 0.4, sweep):
                q = r.params.q
                if r.identity_id != "climit-poly" or not 1.0 - q < EXTENDED_PRECISION_GAP:
                    continue
                with mpmath.workdps(60):
                    qm = mpmath.mpf(q)
                    pm = QParams(q=qm, a=qm**sweep.alpha, b=qm**sweep.beta / (qm - 1))
                    want = big_q_laguerre_recurrence(n, mpmath.mpf(0.4), pm)[n]
                    assert abs(r.lhs - want) <= 1e-13 * abs(want), (n, q)
                checked += 1
        assert checked == 9 * 12  # q = 1 - 2^-11 .. 1 - 2^-22


class TestClassicalEigenfunction:
    def test_x_zero(self):
        assert classical_eigenfunction(0.7, 0.0, 1.3) == 1.0

    def test_lambda_one_pure_power(self):
        x, l = 0.4, 1.2
        assert classical_eigenfunction(1.0, x, l) == pytest.approx((1 - x) ** (-2 * l), rel=1e-14)

    def test_series_oracle(self):
        got = classical_eigenfunction(0.3, 0.4, 1.0)
        want = eigenfunction_series(0.3, 0.4, 1.0, n_terms=80)
        assert got == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("lam", [0.0, 0.25, 0.5, 1.0])
    def test_series_agreement_grid(self, lam):
        for x in [-0.5, -0.2, 0.0, 0.3, 0.5]:
            c = classical_eigenfunction(lam, x, 1.0)
            s = eigenfunction_series(lam, x, 1.0)
            assert abs(c - s) <= 1e-10 * (1 + abs(c))

    def test_domain_error(self):
        with pytest.raises(DomainError):
            classical_eigenfunction(0.3, 1.0, 1.0)


class TestClassicalOperator:
    def test_residual_at_reference_point(self):
        r = classical_operator_check(0.25, 0.2, 1.0, h=1e-3)
        xi = classical_eigenfunction(0.25, 0.2, 1.0)
        assert r.passed
        assert r.residual <= 1e-8 * abs(xi)

    def test_center_point(self):
        # at x = 0 the eigen-relation reads (value of A_cl xi)(0) = lam
        r = classical_operator_check(0.7, 0.0, 1.0, h=1e-3)
        assert r.passed
        assert r.lhs == pytest.approx(0.7, abs=1e-9)

    def test_fourth_order_halving(self):
        res = [classical_operator_check(0.25, 0.2, 1.0, h).residual for h in (4e-3, 2e-3, 1e-3)]
        for r1, r2 in zip(res, res[1:]):
            if r2 > 1e-12:  # above the rounding floor
                assert r2 <= r1 / 10.0  # ~16x for a 4th-order stencil

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            classical_operator_check(0.25, 0.999, 1.0, h=1e-3)


class TestOperatorEntriesLimit:
    def test_classical_row_against_sympy(self):
        # independent symbolic application of (1-x)^2 d/dx + 2l(x-1) + 1
        import sympy

        x, ls = sympy.symbols("x l")
        for k in range(6):
            expr = sympy.expand((1 - x) ** 2 * sympy.diff(x**k, x) + (2 * ls * (x - 1) + 1) * x**k)
            poly = sympy.Poly(expr, x)
            lval = 1.7
            want_sub = float(poly.coeff_monomial(x ** (k - 1)).subs(ls, lval)) if k >= 1 else 0.0
            want_diag = float(poly.coeff_monomial(x**k).subs(ls, lval))
            want_sup = float(poly.coeff_monomial(x ** (k + 1)).subs(ls, lval))
            sub, diag, sup = classical_monomial_tridiagonal(k, lval)
            assert sub == pytest.approx(want_sub, abs=1e-12)
            assert diag == pytest.approx(want_diag, abs=1e-12)
            assert sup == pytest.approx(want_sup, abs=1e-12)

    def test_row0_sub_entry_vanishes(self):
        reps = limit_operator_entries_check(0, SWEEP)
        subs = [r for r in reps if r.identity_id == "climit-operator-sub"]
        assert all(r.lhs == 0.0 and r.rhs == 0.0 for r in subs)

    def test_rates_rows_0_to_5(self):
        reps = limit_operator_entries_check(5, SWEEP)
        rates = [r for r in reps if r.identity_id.startswith("climit-operator-rate")]
        assert rates and all(r.passed for r in rates)

    def test_entry_errors_shrink(self):
        reps = limit_operator_entries_check(3, SWEEP)
        for part in ("diag", "super"):
            errs = [r.residual for r in reps if r.identity_id == f"climit-operator-{part}" and r.indices[0] == 2]
            assert errs[-1] < errs[0]


class TestFitRate:
    def test_recovers_known_slope(self):
        gaps = [2.0**-k for k in range(2, 11)]
        errs = [3.0 * g**1.25 for g in gaps]
        slope, c = fit_rate(gaps, errs)
        assert slope == pytest.approx(1.25, abs=1e-12)

    def test_floor_filtering(self):
        gaps = [0.25, 0.125, 0.0625]
        errs = [1e-16, 1e-16, 1e-16]
        slope, c = fit_rate(gaps, errs)
        assert math.isnan(slope)

    def test_matches_polyfit_on_noisy_power_laws(self):
        # the slope comes from centred sums in pure Python; numpy's
        # least-squares fit is the reference
        np = pytest.importorskip("numpy")
        rng = np.random.default_rng(7)
        for _ in range(200):
            k = int(rng.integers(3, 13))
            gaps = np.sort(rng.uniform(1e-3, 0.5, size=k))
            order = rng.uniform(0.5, 3.0)
            errs = rng.uniform(0.1, 10.0) * gaps**order * np.exp(rng.normal(0.0, 0.3, size=k))
            want = np.polyfit(np.log(gaps), np.log(errs), 1)[0]
            slope, _ = fit_rate(gaps.tolist(), errs.tolist())
            assert slope == pytest.approx(want, rel=1e-13), (gaps, errs)
