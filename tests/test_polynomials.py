"""Tests for the polynomial families.

Frozen expected values below were computed with exact rational
arithmetic (fractions.Fraction) over the terminating sums, independently
of the code under test.
"""

import cmath
import contextlib
import decimal
import functools
import math
import random
import subprocess
import sys
import textwrap

import mpmath
import pytest

from qortho import qseries
from qortho.qseries import (
    DomainError,
    NeumaierSum,
    NonConvergenceError,
    QParams,
    QSeriesError,
    _as_negative_q_power,
    _escalated,
    _working_context,
    phi_2_1,
    phi_3_2,
    q_pochhammer,
    q_pochhammer_inf,
)
from qortho.polynomials import (
    _SERIES_REL_TOL,
    big_q_laguerre,
    big_q_laguerre_recurrence,
    classical_laguerre,
    q_meixner,
    spectral_sequence,
)
from qortho.routes import (
    big_q_laguerre_generating,
    big_q_laguerre_phi21,
    dual_f,
    dual_g,
    generating_closed,
    generating_series,
    q_inverse_meixner_relation,
)

P1 = QParams(q=0.5, a=0.5, b=-0.7)
P2 = QParams(q=0.7, a=0.9, b=-0.4)

# exact rational oracles (see module docstring)
P3_AT_02 = -4573 / 1288035  # P_3(0.2; 0.5, -0.7; 0.5)
M2_AT_3 = 17 / 2  # M_2(q^-3; 0.5, 0.4; 0.5)
QINV_BOTH_SIDES = 1283 / 63  # n=2, x=2, b=2, c=0.3, q=0.5


def forced_value_at_aq(n, p):
    """P_n(aq) = 1 / (q^-n / b; q)_n, from the 2phi1 form."""
    return 1.0 / q_pochhammer(p.q ** (-n) / p.b, p.q, n)


class TestBigQLaguerreSeries:
    def test_degree_zero(self):
        for x in [-0.35, 0.0, 0.2, 0.25]:
            assert big_q_laguerre(0, x, P1) == 1.0

    def test_frozen_rational_oracle(self):
        assert big_q_laguerre(3, 0.2, P1) == pytest.approx(P3_AT_02, rel=1e-13)

    @pytest.mark.parametrize("n", [1, 2, 5, 8, 14, 20])
    def test_forced_value_at_aq(self, n):
        got = big_q_laguerre(n, P1.a * P1.q, P1)
        want = forced_value_at_aq(n, P1)
        assert got == pytest.approx(want, rel=1e-11)

    @pytest.mark.parametrize("n", [1, 3, 7, 12])
    def test_phi21_form_agrees(self, n):
        for x in [P1.a * P1.q, P1.b * P1.q, P1.a * P1.q**4, 0.2]:
            s = big_q_laguerre(n, x, P1)
            f = big_q_laguerre_phi21(n, x, P1)
            assert abs(s - f) <= 1e-12 * max(1.0, abs(s))

    def test_ab_symmetry(self):
        # 3phi2 denominator parameters (aq, bq) are symmetric
        q = 0.5
        for n in [1, 4, 9]:
            for x in [0.15, -0.2, P1.a * P1.q**2]:
                lhs = phi_3_2(q**-n, 0.0, x, 0.5 * q, -0.7 * q, q, q)
                rhs = phi_3_2(q**-n, 0.0, x, -0.7 * q, 0.5 * q, q, q)
                assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_decimal_passthrough(self):
        # Decimal scalars stay Decimals, at the precision of the caller's
        # context: the exact rational value to 38 digits
        D = decimal.Decimal
        with decimal.localcontext(_working_context(40)):
            p = QParams(q=D("0.5"), a=D("0.5"), b=D("-0.7"))
            got = big_q_laguerre(3, D("0.2"), p)
            assert isinstance(got, D)
            assert abs(got - D(-4573) / 1288035) <= D("1e-38") * abs(got)

    @pytest.mark.parametrize("n", [30, 40])
    def test_deep_cancellation(self, n):
        # at q = 0.3 the terms reach 1e227 (n = 30) and 1e407 (n = 40), past
        # the float range, while the sums are tiny: the float pass overflows
        # or cancels completely, and the Decimal passes must resolve the sum
        p = QParams(q=0.3, a=0.5, b=-0.7)
        for x in (0.5, p.a * p.q, p.b * p.q**3):
            with mpmath.workdps(900):
                xm, a, b, q = map(mpmath.mpf, (x, p.a, p.b, p.q))
                term = total = mpmath.mpf(1)
                for k in range(n):
                    term *= (1 - q ** (k - n)) * (1 - xm * q**k) * q
                    term /= (1 - a * q ** (k + 1)) * (1 - b * q ** (k + 1)) * (1 - q ** (k + 1))
                    total += term
            want = float(total)
            got = big_q_laguerre(n, x, p)
            assert abs(got - want) <= 1e-12 * abs(want), (n, x, got, want)

    def test_factor_cancellation_near_aq_one(self):
        # the 1e-13 the series routes promise, against the same 3phi2 at 200
        # digits on the same floats, at aq = 0.99999: a float sum carries
        # the relative error of about 1e-11 of the float factor 1 - aq into
        # terms that do not cancel, and missed 157 of these 576 values
        misses = []
        for q in (0.3, 0.7, 0.9, 0.97):
            for b in (-0.01, -0.7, -50.0):
                p = QParams(q=q, a=0.99999 / q, b=b)
                for x in (p.a * q, p.a * q**3, b * q, b * q**3):
                    for n in range(1, 13):
                        got = big_q_laguerre(n, x, p)
                        with mpmath.workdps(200):
                            want, _ = _loop_phi(_bigql_params(n), n, *map(mpmath.mpf, (x, p.a, p.b, p.q)))
                            if not abs(got - want) <= 1e-13 * abs(want):
                                misses.append((p, n, x, got))
        assert not misses


class TestBigQLaguerreRecurrence:
    def test_seed(self):
        for x in [-0.35, 0.0, 0.25]:
            assert big_q_laguerre_recurrence(0, x, P1)[0] == 1.0

    @pytest.mark.parametrize("p", [P1, P2], ids=["p1", "p2"])
    def test_against_series_definition(self, p):
        xs = [p.b * p.q, p.b * p.q**3, 0.0, p.a * p.q**3, p.a * p.q]
        for x in xs:
            seq = big_q_laguerre_recurrence(20, x, p)
            for n in [0, 1, 2, 5, 10, 15, 20]:
                want = big_q_laguerre(n, x, p)
                assert abs(seq[n] - want) <= 1e-10 * max(1.0, abs(want))

    def test_forced_value_row(self):
        seq = big_q_laguerre_recurrence(12, P1.a * P1.q, P1)
        for n in [1, 3, 6]:
            assert seq[n] == pytest.approx(forced_value_at_aq(n, P1), rel=1e-10)


class TestSpectralSequence:
    @pytest.mark.parametrize("branch,j", [("a", 0), ("a", 4), ("b", 0), ("b", 2)])
    def test_matches_series_small_m(self, branch, j):
        lam = (P1.a if branch == "a" else P1.b) * P1.q ** (j + 1)
        seq = spectral_sequence(P1, branch, j, 10)
        for m in [0, 1, 4, 8, 10]:
            want = big_q_laguerre(m, lam, P1)
            assert abs(float(seq[m]) - want) <= 1e-11 * max(1.0, abs(want))

    def test_duality_oracle_large_m(self):
        # P_m(a q) = M_0-route forced value even at m where forward
        # recurrence has no relative accuracy left
        seq = spectral_sequence(P1, "a", 0, 40)
        for m in [20, 30, 40]:
            want = 1.0 / float(
                q_pochhammer(mpmath.mpf(P1.q) ** (-m) / P1.b, mpmath.mpf(P1.q), m)
            )
            assert float(seq[m]) == pytest.approx(want, rel=1e-12)

    def test_longer_cut_off_after_shorter(self):
        # a long sequence requested after a short one at the same point is
        # the sequence a fresh call gives, of Decimals, and the exact series
        # to 20 digits
        p = P2
        spectral_sequence(p, "a", 0, 5)
        got = spectral_sequence(p, "a", 0, 20)[20]
        assert isinstance(got, decimal.Decimal)
        assert got == spectral_sequence(p, "a", 0, 20)[20]
        with mpmath.workdps(120):
            q, a, b = mpmath.mpf(p.q), mpmath.mpf(p.a), mpmath.mpf(p.b)
            want = phi_3_2(q**-20, 0, a * q, a * q, b * q, q, q)
            assert abs(mpmath.mpf(str(got)) - want) <= mpmath.mpf(10) ** -20 * abs(want)

    def test_rejects_bad_arguments(self):
        for args in (("c", 0, 5), ("a", -1, 5), ("b", 0, -1)):
            with pytest.raises(DomainError):
                spectral_sequence(P1, *args)


class TestQMeixner:
    def test_degree_zero(self):
        assert q_meixner(0, 5, 0.5, 0.4, 0.5) == 1.0

    def test_unit_argument(self):
        # q^{-x} at x = 0 gives numerator parameter 1
        assert q_meixner(3, 0, 0.5, 0.4, 0.5) == 1.0

    def test_frozen_rational_oracle(self):
        assert q_meixner(2, 3, 0.5, 0.4, 0.5) == pytest.approx(M2_AT_3, rel=1e-13)

    @pytest.mark.parametrize("q", [1e-300, 1e-200, 1e-100, 1e-30, 1e-3, 0.5])
    def test_tiny_q_argument(self, q):
        # M_1(q^-1; b, c; q) = 1 - (1 - q) / (c (1 - bq)); below q = 1e-154
        # the float z = -q^2/c underflows to 0.0, and a float sum gave 1.0
        D = decimal.Decimal
        with decimal.localcontext(_working_context(50)):
            want = 1 - (1 - D(q)) / (D(1.4) * (1 - D(0.5) * D(q)))
            assert abs(D(q_meixner(1, 1, 0.5, 1.4, q)) - want) <= D(2.3e-16) * want

    def test_negative_first_parameter_allowed(self):
        val = q_meixner(2, 3, -0.7, 1.4, 0.5)
        assert math.isfinite(val)

    def test_denominator_zero(self):
        # bparam*q = q^{-1} vanishes at k = 1 before termination at 3
        with pytest.raises(DomainError):
            q_meixner(3, 3, 0.5**-2, 0.4, 0.5)

    def test_decimal_denominator_zero_without_mpmath(self):
        # Decimal scalars take the Decimal log in the termination test, so
        # the vanishing denominator is found with mpmath never imported
        code = textwrap.dedent(
            """
            import decimal, sys
            from qortho.polynomials import q_meixner
            from qortho.qseries import DomainError, _working_context

            D = decimal.Decimal
            with decimal.localcontext(_working_context(30)):
                # bparam q = 8 * 0.5 = q^-2 vanishes at k = 2, before termination at 5
                try:
                    q_meixner(5, 5, D(8), D("0.4"), D("0.5"))
                except DomainError as exc:
                    print("DomainError", exc)
                # the same parameter where the sum ends first, at min(2, 5)
                value = q_meixner(2, 5, D(8), D("0.4"), D("0.5"))
            print(abs(float(value) / q_meixner(2, 5, 8.0, 0.4, 0.5) - 1) < 1e-13, "mpmath" in sys.modules)
            """
        )
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        lines = res.stdout.splitlines()
        assert lines[0].startswith("DomainError") and "q^-2" in lines[0], res.stdout
        assert lines[1] == "True False", res.stdout


class TestDuality:
    def test_dual_f_degree_zero(self):
        for n in range(4):
            assert dual_f(n, 0, P1) == 1.0

    def test_dual_g_degree_zero(self):
        for n in range(4):
            assert dual_g(n, 0, P1) == 1.0

    def test_dual_f_lambda_aq_forced(self):
        got = dual_f(0, 2, P1)
        assert got == pytest.approx(forced_value_at_aq(2, P1), rel=1e-12)

    @pytest.mark.parametrize("p", [P1, P2], ids=["p1", "p2"])
    def test_dual_f_meixner_identity(self, p):
        # f_n(q^-m) = (q^-m/b;q)_m^-1 M_n(q^-m; a, -b/a; q), relative check
        q, a, b = p.q, p.a, p.b
        for n in range(0, 13, 3):
            for m in range(0, 13, 3):
                lhs = dual_f(n, m, p)
                with mpmath.workdps(35):
                    pref = q_pochhammer(mpmath.mpf(q) ** (-m) / b, mpmath.mpf(q), m)
                    rhs = float(q_meixner(n, m, a, -b / a, q) / pref)
                assert abs(lhs - rhs) <= 1e-11 * max(abs(rhs), 1e-300)

    @pytest.mark.parametrize("p", [P1, P2], ids=["p1", "p2"])
    def test_dual_g_meixner_identity(self, p):
        q, a, b = p.q, p.a, p.b
        for n in range(0, 13, 4):
            for m in range(0, 13, 4):
                lhs = dual_g(n, m, p)
                with mpmath.workdps(35):
                    pref = q_pochhammer(mpmath.mpf(q) ** (-m) / a, mpmath.mpf(q), m)
                    rhs = float(q_meixner(n, m, b, -a / b, q) / pref)
                assert abs(lhs - rhs) <= 1e-11 * max(abs(rhs), 1e-300)

    def test_dual_g_is_dual_f_with_swapped_parameters(self):
        # symmetric denominator pair in the 3phi2 definition
        q, a, b = P1.q, P1.a, P1.b
        for n, m in [(1, 2), (3, 5)]:
            lam = b * q ** (n + 1)
            direct = phi_3_2(q**-m, 0.0, lam, a * q, b * q, q, q)
            swapped = phi_3_2(q**-m, 0.0, lam, b * q, a * q, q, q)
            assert direct == pytest.approx(swapped, rel=1e-12)


class TestGeneratingFunction:
    def test_t_zero(self):
        assert generating_series(0.1, 0.0, P1, 10) == 1.0
        assert generating_closed(0.2, 0.0, P1) == 1.0

    def test_nmax_zero(self):
        assert generating_series(0.1, -0.2, P1, 0) == 1.0

    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
    def test_series_rejects_non_finite_x(self, x):
        # the recurrence values overflow at once, and the partial sum 1.0
        # came back as the value
        with pytest.raises(DomainError):
            generating_series(x, 0.1, P1, n_max=10)

    @pytest.mark.parametrize("j,tv", [(0, 0.3), (0, -0.3), (1, 0.25), (2, -0.15), (3, 0.05)])
    def test_series_equals_closed_on_upper_branch(self, j, tv):
        d = generating_series(("a", j), tv, P1, 60, diagnostics=True)
        assert d.tail_estimate <= 1e-12 * (1 + abs(d.value))
        want = generating_closed(("a", j), tv, P1)
        assert d.value == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("j,tv", [(0, 0.3), (1, -0.2), (2, 0.1)])
    def test_series_equals_closed_on_lower_branch(self, j, tv):
        d = generating_series(("b", j), tv, P1, 60, diagnostics=True)
        assert d.tail_estimate <= 1e-12 * (1 + abs(d.value))
        want = generating_closed(("b", j), tv, P1)
        assert d.value == pytest.approx(want, rel=1e-10)

    def test_forced_form_at_aq(self):
        # at x = aq the 2phi1 numerator parameter is 1, only k=0 survives
        from qortho.qseries import q_pochhammer_inf

        tv = 0.3
        got = generating_closed(("a", 0), tv, P1)
        want = q_pochhammer_inf(-P1.a * P1.b * P1.q**2 * tv, P1.q) / q_pochhammer_inf(
            -P1.b * P1.q * tv, P1.q
        )
        assert got == pytest.approx(want, rel=1e-12)

    def test_t_to_zero_limit_is_one(self):
        # prefactor and series both tend to 1 as t -> 0
        for tv in [1e-4, 1e-6]:
            got = generating_closed(("a", 1), tv, P1)
            assert got == pytest.approx(1.0, abs=5 * tv)

    def test_tail_not_certified_off_spectrum(self):
        # the series only plateaus at ~1e-5 accuracy at generic arguments
        d = generating_series(0.1, -0.2, P1, 60, diagnostics=True)
        assert not (d.tail_estimate <= 1e-12 * (1 + abs(d.value)))

    def test_strict_mode_raises_off_spectrum(self):
        from qortho.qseries import TailError

        with pytest.raises(TailError):
            generating_series(0.1, -0.2, P1, 60, strict=True)

    @pytest.mark.parametrize("tv", [0.1, 0.1j], ids=["real", "complex"])
    def test_closed_at_x_zero_raises_tail_error(self, tv):
        # x = 0 takes the series at a number, whose divergent terms a
        # complex t once met with math.isfinite's TypeError
        from qortho.qseries import TailError

        with pytest.raises(TailError):
            generating_closed(0.0, tv, QParams(0.5, 0.5, -0.7))

    @pytest.mark.parametrize("where", ["params", "argument"])
    @pytest.mark.parametrize("route", ["series", "closed", "extraction"])
    def test_decimals_rejected(self, route, where):
        # the float routes reject a Decimal with a usage error, not with
        # the TypeError of float and Decimal arithmetic; generating_series
        # does so at a number, where it sums float recurrence values.  The
        # extraction takes a label, so its Decimal argument is the label's
        # index, and the closed form at a label reads the point in p's scalars
        dec = QParams(*map(decimal.Decimal, ("0.5", "0.5", "-0.7")))
        p, scalar = (dec, float) if where == "params" else (P1, decimal.Decimal)
        calls = {
            "series": lambda: generating_series(scalar("0.1"), 0.2, p, 10),
            "closed": lambda: generating_closed(scalar("0.1"), 0.2, p),
            "extraction": lambda: big_q_laguerre_generating(2, ("a", 1 if where == "params" else scalar(1)), p),
        }
        with pytest.raises(DomainError):
            calls[route]()


class TestQInverseRelation:
    def test_degree_zero(self):
        lhs, rhs = q_inverse_meixner_relation(0, 1.7, 2.0, 0.3, 0.5)
        assert lhs == 1.0 and rhs == 1.0

    def test_unit_argument(self):
        lhs, rhs = q_inverse_meixner_relation(3, 1.0, 2.0, 0.3, 0.5)
        assert lhs == 1.0
        assert rhs == pytest.approx(1.0, rel=1e-12)

    def test_frozen_rational_oracle(self):
        lhs, rhs = q_inverse_meixner_relation(2, 2.0, 2.0, 0.3, 0.5)
        assert lhs == pytest.approx(QINV_BOTH_SIDES, rel=1e-13)
        assert rhs == pytest.approx(QINV_BOTH_SIDES, rel=1e-13)

    @pytest.mark.parametrize("n", range(0, 11))
    def test_relation_holds(self, n):
        for x, b, c in [(2.0, 2.0, 0.3), (0.7, -1.5, 0.9), (4.0, 3.0, 1.2)]:
            lhs, rhs = q_inverse_meixner_relation(n, x, b, c, 0.5)
            assert abs(lhs - rhs) <= 1e-10 * (1 + abs(rhs))


class TestClassicalLaguerre:
    def test_degree_zero(self):
        assert classical_laguerre(0, 1.3, 0.4) == 1.0

    def test_degree_one(self):
        assert classical_laguerre(1, 1.3, 0.4) == pytest.approx(1 + 1.3 - 0.4, rel=1e-14)

    def test_explicit_cubic(self):
        # L_3^(1)(1/2) = 71/48 from the monomial expansion
        assert classical_laguerre(3, 1.0, 0.5) == pytest.approx(71 / 48, rel=1e-13)

    def test_against_scipy(self):
        from scipy.special import eval_genlaguerre

        for n in [2, 5, 9]:
            for alpha in [0.0, 1.0, 2.5]:
                for x in [0.1, 0.9, 3.0]:
                    assert classical_laguerre(n, alpha, x) == pytest.approx(
                        float(eval_genlaguerre(n, alpha, x)), rel=1e-11
                    )


class TestPolyEvalDispatch:
    """The routes of P_n, each called by name, agree.  The class keeps the
    name of the evaluation dispatch it once tested, so the test ids stay
    comparable."""

    # each route of P_n(x) at the spectral point x of the label j
    ROUTES = {
        "series": lambda n, j, p: big_q_laguerre(n, p.a * p.q ** (j + 1), p),
        "recurrence": lambda n, j, p: big_q_laguerre_recurrence(n, p.a * p.q ** (j + 1), p)[-1],
        "generating": lambda n, j, p: big_q_laguerre_generating(n, ("a", j), p),
    }

    def test_methods_agree_on_spectral_grid(self):
        for j in [0, 1, 2]:
            for n in [0, 2, 5]:
                ref = big_q_laguerre(n, P1.a * P1.q ** (j + 1), P1)
                for route, f in self.ROUTES.items():
                    assert abs(f(n, j, P1) - ref) <= 1e-10 * max(1.0, abs(ref)), route

    def test_degree_zero_is_one_under_all_methods(self):
        for f in self.ROUTES.values():
            assert f(0, 0, P1) == pytest.approx(1.0, rel=1e-12)
        assert q_meixner(0, 3, 0.5, 0.4, 0.5) == 1.0

    def test_classical_series_vs_recurrence(self):
        def monomial_sum(n, alpha, x):
            # sum_k (-1)^k binom(n+alpha, n-k) x^k / k!
            total = 0.0
            for k in range(n + 1):
                binom = 1.0
                for i in range(n - k):
                    binom *= (alpha + k + 1 + i) / (i + 1)
                total += (-1) ** k * binom * x**k / math.factorial(k)
            return total

        for n in [0, 1, 4]:
            s = monomial_sum(n, 1.5, 0.7)
            r = classical_laguerre(n, 1.5, 0.7)
            assert s == pytest.approx(r, rel=1e-12)

    def test_generating_method_off_spectrum_rejected(self):
        # the extraction needs a terminating closed form, which only a
        # spectral point's label gives it: a number, even the point a q
        # itself, is no label
        for x in (0.2, P1.a * P1.q):
            with pytest.raises(DomainError):
                big_q_laguerre_generating(2, x, P1)

    @pytest.mark.parametrize("n,label", [(2, ("a", 9)), (0, ("a", 10)), (20, ("a", 0))], ids=str)
    def test_generating_method_out_of_float_range(self, n, label):
        # at q = 1e-30 the Cauchy radius of ("a", 9) is 1e-240, whose square
        # underflowed to 0.0 and raised ZeroDivisionError, no QSeriesError;
        # the point a q^11 of ("a", 10) underflows itself, and the 20th
        # power of the radius 1.4e30 of ("a", 0) overflows
        p = QParams(q=1e-30, a=0.5, b=-0.7)
        with pytest.raises(NonConvergenceError):
            big_q_laguerre_generating(n, label, p)

    @pytest.mark.xfail(
        strict=True,
        reason="the 256-point Cauchy sum has no error bound: at (0.99, 0.5, -0.7) P_0 = 1 comes out as "
        "-8.98e57 at ('b', 1) and as 1.43e11 at ('a', 2), with no error raised",
    )
    def test_generating_method_accurate_or_says_so(self):
        p = QParams(q=0.99, a=0.5, b=-0.7)
        for label in [("b", 1), ("a", 2)]:
            try:
                got = big_q_laguerre_generating(0, label, p)
            except QSeriesError:
                continue
            assert got == pytest.approx(1.0, rel=1e-10), label


# ---------------------------------------------------------------------------
# the series routes against one r+1 phi r loop, written out with the
# kernel's arithmetic; each route's parameter builder is written out too


def _loop_phi(build, n, *base):
    """(value, max_abs_term) of sum_k (nums; q)_k / ((dens; q)_k (q; q)_k) z^k,
    k = 0..n, for (nums, dens, q, z) = build(*base)."""
    nums, dens, q, z = build(*base)
    one = 1 + z * 0
    acc = NeumaierSum(0 * one)
    term = qk = one
    for k in range(n + 1):
        acc.add(term)
        if k == n:
            break
        ratio = z
        for u in nums:
            ratio = ratio * (1 - u * qk)
        qk1 = qk * q
        for d in dens:
            ratio = ratio / (1 - d * qk)
        qk = qk1
        term = term * ratio / (1 - qk1)
    return acc.value, acc.max_abs_term


def _terminating_index(build, *base):
    """The least j with a numerator of build(*base) equal to q^-j."""
    nums, _, q, _ = build(*base)
    return min(j for j in (_as_negative_q_power(u, q) for u in nums) if j is not None)


def _bigql_params(n):
    # P_n(x; a, b; q) = 3phi2(q^-n, 0, x; aq, bq; q, q)
    return lambda x, a, b, q: ((q**-n, 0 * q, x), (a * q, b * q), q, q)


def _phi21_params(n):
    # (q^-n/b; q)_n P_n(x; a, b; q) = 2phi1(q^-n, aq/x; aq; q, x/b)
    return lambda x, a, b, q: ((q**-n, a * q / x), (a * q,), q, x / b)


def _meixner_params(n, m):
    # M_n(q^-m; b, c; q) = 2phi1(q^-n, q^-m; bq; q, -q^(n+1)/c)
    return lambda b, c, q: ((q**-n, q**-m), (b * q,), q, -(q ** (n + 1)) / c)


def _qinv_lhs_params(n):
    # M_n(x; b, c; 1/q) = 2phi1(q^-n, 1/x; q/b; q, -qx/(bc))
    return lambda x, b, c, q: ((q**-n, 1 / x), (q / b,), q, -q * x / (b * c))


def _qinv_rhs_params(n):
    # P_n(qx/b; 1/b, -c; q), on the base scalars of the left side
    return lambda x, b, c, q: ((q**-n, 0 * q, q * x / b), (1 / b * q, -c * q), q, q)


class TestTerminatingSumKernel:
    REL = _SERIES_REL_TOL

    @staticmethod
    def _grid(seed, size):
        rng = random.Random(seed)
        for _ in range(size):
            q = rng.uniform(0.3, 0.95)
            a = rng.uniform(0.05, 0.999 / q)
            b = -rng.choice([rng.uniform(0.01, 1.0), rng.uniform(1.0, 50.0)])
            n = rng.randrange(13)
            j = rng.randrange(10)
            x = rng.choice([a * q ** (j + 1), b * q ** (j + 1), rng.uniform(-2.0, 2.0)])
            m = rng.randrange(13)
            # the q -> 1/q relation takes its own x, b and c
            xi = q ** -rng.randrange(6) * rng.choice([1.0, 1.7])
            bi, ci = rng.uniform(1.5, 4.0), rng.uniform(0.1, 2.0)
            yield n, m, x, a, b, q, xi, bi, ci

    def _check_grid(self, grid, convert):
        """Compare every series route with the loop on its builder through
        _escalated, the shared route rule; returns (loop, args, value,
        escalated) for every sum, escalated telling whether it took more
        than one pass."""
        sums = []

        def ref(build, args):
            calls = []
            loop = functools.partial(_loop_phi, build, _terminating_index(build, *args))

            def counted(*xs):
                calls.append(xs)
                return loop(*xs)

            value = _escalated(counted, args, self.REL)
            sums.append((loop, args, value, len(calls) > 1))
            return value

        for point in grid:
            n, m = point[:2]
            x, a, b, q, xi, bi, ci = map(convert, point[2:])
            p = QParams(q=q, a=a, b=b)
            assert big_q_laguerre(n, x, p) == ref(_bigql_params(n), (x, a, b, q)), point
            phi21 = ref(_phi21_params(n), (x, a, b, q)) / q_pochhammer(q**-n / b, q, n)
            assert big_q_laguerre_phi21(n, x, p) == phi21, point
            for bparam, c in ((a, -b / a), (b, -a / b)):
                assert q_meixner(n, m, bparam, c, q) == ref(_meixner_params(n, m), (bparam, c, q)), point
            lhs, rhs = q_inverse_meixner_relation(n, xi, bi, ci, q)
            assert lhs == ref(_qinv_lhs_params(n), (xi, bi, ci, q)), point
            pref = q_pochhammer(-(q**-n) / ci, q, n)
            assert rhs == pref * ref(_qinv_rhs_params(n), (xi, bi, ci, q)), point
        return sums

    def test_float_routes_match_loops(self):
        escalated = [flag for *_, flag in self._check_grid(self._grid(7, 40), float)]
        # both cases are exercised: sums that end after one Decimal pass and
        # sums that cancel past its digits and rerun at more
        assert any(escalated) and not all(escalated)

    def test_decimal_routes_match_loops(self):
        # Decimal sums run once, at the caller's precision: none re-sums
        with decimal.localcontext(_working_context(40)):
            escalated = [flag for *_, flag in self._check_grid(self._grid(8, 15), decimal.Decimal)]
        assert escalated and not any(escalated)

    def test_escalated_sums_match_80_digit_loops(self):
        # every sum of float arguments, of one pass or more, is within
        # rel_tol of the same loop run on the same float base arguments at
        # 80 digits
        sums = self._check_grid(self._grid(7, 40), float)
        with mpmath.workdps(80):
            for loop, args, value, _ in sums:
                reference, _ = loop(*map(mpmath.mpf, args))
                assert abs(value - reference) <= self.REL * abs(reference), (args, value, reference)

    def test_complex_generating_sum_matches_loop(self):
        # generating_closed at complex t inside the first pole, as the Cauchy
        # sum of big_q_laguerre_generating reads it: the prefactor times the
        # terminating 2phi1(aq/x, 0; -1/(bt); q, x/b), with a and b swapped
        # on the b branch, whose aq/x is q^-j to within rounding
        rng = random.Random(9)
        for _ in range(40):
            q = rng.uniform(0.3, 0.95)
            p = QParams(q=q, a=rng.uniform(0.05, 0.999 / q), b=-rng.uniform(0.01, 50.0))
            branch, j = rng.choice("ab"), rng.randrange(12)
            x = (p.a if branch == "a" else p.b) * q ** (j + 1)
            radius = q ** (j - 1) / (abs(p.b) if branch == "a" else p.a)
            tc = 0.75 * radius * cmath.exp(2j * cmath.pi * rng.random())
            a, b = (p.a, p.b) if branch == "a" else (p.b, p.a)
            pref = q_pochhammer_inf(-a * b * q * q * tc, q) / q_pochhammer_inf(-b * q * tc, q)
            value, _ = _loop_phi(lambda: ((a * q / x, 0.0), (-1 / (b * tc),), q, x / b), j)
            got = generating_closed((branch, j), tc, p)
            assert got == pref * value, (p, branch, j, tc)
            exact_power, _ = _loop_phi(lambda: ((q**-j, 0.0), (-1 / (b * tc),), q, x / b), j)
            assert abs(got - pref * exact_power) <= 1e-13 * abs(pref * exact_power), (p, branch, j, tc)

    def test_cancelling_spectral_grid_matches_exact_sums(self):
        # big_q_laguerre at the spectral points a q^(j+1), b q^(j+1) and
        # q_meixner at q^-m, n <= 20, wherever a float sum would cancel past
        # double precision: each value is within rel_tol of the same series
        # on the same float base arguments, at 40 digits more than the sum
        # cancels.  A sum on the float-rounded derived parameters (q^-n,
        # aq, ...) would be exact for another sum
        sums = []
        for q in (0.3, 0.5, 0.7, 0.9):
            for a, b in ((0.5, -0.7), (0.2, -30.0)):
                p = QParams(q=q, a=a, b=b)
                for n in range(0, 21, 2):
                    for j in range(0, 16, 3):
                        for x in (a * q ** (j + 1), b * q ** (j + 1)):
                            sums.append((big_q_laguerre, (n, x, p), _bigql_params(n), (x, a, b, q)))
                    for m in range(0, 21, 2):
                        for bparam, c in ((a, -b / a), (b, -a / b)):
                            sums.append((q_meixner, (n, m, bparam, c, q), _meixner_params(n, m), (bparam, c, q)))
        cancelling = 0
        for route, args, build, base in sums:
            n = _terminating_index(build, *base)
            value, max_abs = _loop_phi(build, n, *base)
            if 8e-16 * max_abs <= 0.05 * self.REL * abs(value):
                continue
            cancelling += 1
            got = route(*args)
            with mpmath.workdps(40 + int(math.log10(max_abs / abs(got)))):
                want, _ = _loop_phi(build, n, *map(mpmath.mpf, base))
                assert abs(got - want) <= self.REL * abs(want), (route, args, got, want)
        assert cancelling == 1507

    def test_real_floats_reach_the_sum_only_as_decimals(self, monkeypatch):
        # every sum_fn call of a real float series gets Decimal scalars
        # only, and a complex one sums its own complex and float scalars
        calls = []
        escalated = qseries._escalated

        def spy(sum_fn, args, rel_tol):
            def wrapped(*scalars):
                calls.append({type(x) for x in scalars})
                return sum_fn(*scalars)

            return escalated(wrapped, args, rel_tol)

        monkeypatch.setattr(qseries, "_escalated", spy)
        big_q_laguerre(5, P1.a * P1.q, P1)
        q_meixner(3, 4, 0.5, 1.4, 0.5)
        phi_2_1(0.3, 0.2, 0.4, 0.5, 0.6)
        qseries.jackson_Eq(-1.5, 0.5)
        assert len(calls) >= 4 and all(types == {decimal.Decimal} for types in calls), calls
        calls.clear()
        phi_2_1(0.3, 0.2, 0.4, 0.5, 0.3 + 0.2j)
        assert calls == [{float, complex}]


# ---------------------------------------------------------------------------
# the recurrence coefficient table against the inline coefficients of the
# forward sweep it replaced, written out as it stood


def _loop_forward(n_max, x, p):
    a, b, q = p.a, p.b, p.q
    out = [1 + q * 0]
    if n_max == 0:
        return out
    prev = 0 * q
    cur = out[0]
    for n in range(n_max):
        d = -a * b * q ** (2 * n + 1) * (1 + q) + q ** (n + 1) * (a + a * b + b)
        nxt = ((x - d) * cur + a * b * q ** (n + 1) * (1 - q**n) * prev) / (
            (1 - a * q ** (n + 1)) * (1 - b * q ** (n + 1))
        )
        out.append(nxt)
        prev, cur = cur, nxt
    return out


class TestRecurrenceTable:
    POINTS = [P1, P2, QParams(q=0.95, a=0.9, b=-3.0), QParams(q=0.3, a=3.2, b=-0.01)]
    # scalar kinds: floats, and the Decimals of the flag values made and
    # used in the working contexts of 30 and of 50 digits (the working
    # precision and the extended CLI precision)
    SCALARS = {"float": None, "decimal30": 30, "decimal50": 50}

    @staticmethod
    def _in(dps):
        return decimal.localcontext(_working_context(dps)) if dps else contextlib.nullcontext()

    @staticmethod
    def _convert(p, dps):
        if dps is None:
            return p
        return QParams(*(decimal.Decimal(repr(x)) for x in p))

    @pytest.mark.parametrize("kind", SCALARS)
    def test_forward_matches_inline_loop(self, kind):
        from qortho.polynomials import _LazyList, _recurrence_entries

        dps = self.SCALARS[kind]
        with self._in(dps):
            for p0 in self.POINTS:
                p = self._convert(p0, dps)
                shared = _LazyList(_recurrence_entries(p))
                xs = [p.a * p.q, p.a * p.q**5, p.b * p.q**2, p.b * p.q**9, type(p.q)("0.3")]
                for n_max in (7, 0, 25, 1, 60, 12):
                    for x in xs:
                        want = _loop_forward(n_max, x, p)
                        assert big_q_laguerre_recurrence(n_max, x, p) == want, (kind, p0, n_max)
                        assert big_q_laguerre_recurrence(n_max, x, p, coeffs=shared) == want, (kind, p0, n_max)

    @pytest.mark.parametrize("kind", ["float", "decimal50"])
    def test_forward_on_working_table_matches_inline_loop(self, kind):
        # the coefficients of a verify store's forward rows, on the exact
        # Decimals of float parameters at 30 working digits and of Decimal
        # ones at 50, serve sweeps on those scalars in the store's context
        from qortho.orthogonality import _Store

        dps = self.SCALARS[kind]
        with self._in(dps):
            for p0 in self.POINTS:
                store = _Store(self._convert(p0, dps), 0)
                assert store.context is _working_context(dps or 30)
                pw = store.decimal_p
                for branch, j in (("a", 0), ("b", 3), ("a", 9), ("b", 0), ("a", 2)):
                    with decimal.localcontext(store.context):
                        lam = (pw.a if branch == "a" else pw.b) * pw.q ** (j + 1)
                        got = big_q_laguerre_recurrence(j + 5, lam, pw, coeffs=store.recurrence)
                        assert got == _loop_forward(j + 5, lam, pw), (kind, p0, branch, j)

    @pytest.mark.parametrize("kind", SCALARS)
    def test_extending_equals_one_build(self, kind):
        # a list of the entries read in steps equals one read at once, and
        # each entry is the expression the sweeps formed inline
        from qortho.polynomials import _LazyList, _recurrence_entries

        dps = self.SCALARS[kind]
        for p0 in self.POINTS:
            p = self._convert(p0, dps)
            with self._in(dps):
                long = _LazyList(_recurrence_entries(p)).upto(60)
                short = _LazyList(_recurrence_entries(p))
                for k in (3, 17, 60):
                    short.upto(k)
                assert short == long, (kind, p0)
                q, a, b = p.q, p.a, p.b
                for k, (A, C, d) in enumerate(long):
                    assert A == (1 - a * q ** (k + 1)) * (1 - b * q ** (k + 1))
                    assert C == a * b * q ** (k + 1) * (1 - q**k)
                    assert d == -a * b * q ** (2 * k + 1) * (1 + q) + q ** (k + 1) * (a + a * b + b)

    def test_source_failure_is_raised_by_every_later_read(self):
        # a source that raised is done: a second read past its values must
        # raise the same error, not the StopIteration of a spent generator
        from qortho.polynomials import _LazyList

        def source():
            yield from (10, 11)
            raise NonConvergenceError("c'_0 leaves the float range")

        values = _LazyList(source())
        with pytest.raises(NonConvergenceError) as first:
            values.at(3)
        for read in (values.at, values.upto):
            for k in (2, 7):
                with pytest.raises(NonConvergenceError) as later:
                    read(k)
                assert later.value is first.value
        assert values == [10, 11] and values.at(1) == 11

    def test_negative_degree_is_rejected(self):
        for n_max in (-1, -3):
            with pytest.raises(DomainError, match="degree must be nonnegative"):
                big_q_laguerre_recurrence(n_max, 0.3, P1)


class TestDecimalBoundary:
    def test_values_enter_exactly(self):
        # parameters cross into a verify store's Decimal rows with no
        # rounding: floats and ints far from 1 in both directions read back
        # at 400 digits as the values themselves, and Decimals with more
        # digits than the working context keep every one
        from qortho.orthogonality import _Store

        D = decimal.Decimal
        decimals = QParams(q=D("0." + "7" * 60), a=D("9" * 45 + "E-400"), b=D("-" + "3" * 50 + "E+90"))
        for p in (QParams(q=0.7, a=2.0**-1074, b=-(2.0**1000)), QParams(q=2.0**-1074, a=1, b=-5.286509211094206), decimals):
            got = _Store(p, 0).decimal_p
            assert all(isinstance(x, D) for x in got)
            with mpmath.workdps(400):
                assert [mpmath.mpf(str(x)) for x in got] == [mpmath.mpf(str(D(x))) for x in p], p
        assert _Store(decimals, 0).decimal_p == decimals
