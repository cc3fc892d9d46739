"""Tests for the q-analysis kernels.

Expected values tagged as frozen below were computed with independent
oracles (direct Decimal products / brute-force partial sums), not with
the code under test.
"""

import decimal
import itertools
import math
import sys

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qortho.qseries import (
    TERMINATION_RTOL,
    DenominatorZeroError,
    DomainError,
    NonConvergenceError,
    QParams,
    SeriesDivergenceError,
    Truncation,
    _as_negative_q_power,
    _log10,
    _working_context,
    jackson_Eq,
    phi_2_1,
    phi_3_2,
    q_number,
    q_pochhammer,
    q_pochhammer_inf,
)
from qortho.polynomials import big_q_laguerre, q_meixner

T = Truncation()
D = decimal.Decimal

# independent oracle values (Decimal arithmetic, 40 digits)
QPOCH_INF_HALF = 0.2887880950866024214041415939615686896867
PHI21_ORACLE = 1.600552355385878527531982026501993236605
PHI32_N2_ORACLE = 0.069083267664827948515891778303125820856


class TestQPochhammer:
    def test_empty_product(self):
        for x in [0.0, 1.0, -3.7, 125.0]:
            assert q_pochhammer(x, 0.5, 0) == 1.0

    def test_unit_argument_vanishes(self):
        for n in range(1, 6):
            assert q_pochhammer(1.0, 0.37, n) == 0.0

    def test_two_factor_product(self):
        # (1 - 0.5)(1 - 0.25) = 0.375, frozen by hand
        assert q_pochhammer(0.5, 0.5, 2) == pytest.approx(0.375, rel=1e-15)

    def test_negative_a_sign(self):
        # (-2; 0.5)_3 = (1+2)(1+1)(1+0.5) = 9
        assert q_pochhammer(-2.0, 0.5, 3) == pytest.approx(9.0, rel=1e-15)

    @settings(max_examples=80, deadline=None)
    @given(
        a=st.floats(-3, 3),
        q=st.floats(0.05, 0.95),
        m=st.integers(0, 12),
        n=st.integers(0, 12),
    )
    def test_splitting_identity(self, a, q, m, n):
        lhs = q_pochhammer(a, q, m + n)
        rhs = q_pochhammer(a, q, m) * q_pochhammer(a * q**m, q, n)
        assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(lhs))


class TestQPochhammerInf:
    def test_zero_argument(self):
        assert q_pochhammer_inf(0.0, 0.5, T) == 1.0

    def test_unit_argument(self):
        assert q_pochhammer_inf(1.0, 0.5, T) == 0.0

    def test_inverse_power_detection(self):
        # a = q^{-3} kills the k=3 factor
        assert q_pochhammer_inf(8.0, 0.5, T) == 0.0

    def test_against_direct_product(self):
        got = q_pochhammer_inf(0.5, 0.5, T)
        assert got == pytest.approx(QPOCH_INF_HALF, rel=1e-12)

    def test_max_terms_error(self):
        # factors are multiplied in only while |a q^k| >= 1/2: a = 0.5 takes
        # one, and a = -1e6 at q = 0.999999 about 1.4e7, past the cap
        with decimal.localcontext(_working_context(30)):
            assert q_pochhammer_inf(D("0.5"), D("0.999999"), Truncation(max_terms=1)) > 0
        with pytest.raises(NonConvergenceError):
            q_pochhammer_inf(-1e6, 0.999999, T)

    def test_overflow_is_infinite(self):
        # the factors above 1/2 overflow a float, and exp of the rest
        # underflows to 0.0: the product is past the float range, not nan
        assert math.isinf(q_pochhammer_inf(100.0, 0.9994, T))
        assert q_pochhammer_inf(-100.0, 0.9994, T) == math.inf

    @pytest.mark.parametrize("a", [0.5, -1000.0, 0.999, -1.4, 0.3 + 0.2j], ids=str)
    @pytest.mark.parametrize("q", [0.5, 0.9, 0.95, 0.99, 0.999], ids=str)
    def test_against_60_digit_reference(self, q, a):
        # floats to 1e-12 where the value is a normal float, Decimals at 30
        # digits to 1e-26.  mpmath's qp stops converging from q = 0.99, so
        # the reference there multiplies in the factors down to |a q^k| <
        # 0.1 and sums the log series of the rest, to 1e-62
        with mpmath.workdps(60):
            mq, x = mpmath.mpf(q), mpmath.mpmathify(a)
            if q < 0.99:
                want = mpmath.qp(x, mq)
            else:
                want = 1
                while abs(x) >= 0.1:
                    want, x = want * (1 - x), x * mq
                terms = itertools.takewhile(
                    lambda term: abs(term) > 1e-62, (x**j / (j * (1 - mq**j)) for j in itertools.count(1))
                )
                want *= mpmath.exp(-mpmath.fsum(terms))
            got = q_pochhammer_inf(a, q, T)
            if sys.float_info.min <= abs(want) <= sys.float_info.max:
                assert abs(got - want) <= 1e-12 * abs(want), (got, want)
            if not isinstance(a, complex):
                with decimal.localcontext(_working_context(30)):
                    got = q_pochhammer_inf(D(a), D(q), T)
                assert abs(mpmath.mpf(str(got)) - want) <= 1e-26 * abs(want), (got, want)

    def test_rejects_bad_q(self):
        with pytest.raises(DomainError):
            q_pochhammer_inf(0.5, 1.5, T)


class TestQNumber:
    def test_zero(self):
        assert q_number(0.0, 0.5) == pytest.approx(0.0, abs=1e-15)

    def test_one(self):
        assert q_number(1.0, 0.73) == pytest.approx(1.0, rel=1e-14)

    def test_closed_form_two(self):
        # [2]_q = q^{1/2} + q^{-1/2}; at q = 0.25 this is 0.5 + 2 = 2.5
        assert q_number(2.0, 0.25) == pytest.approx(2.5, rel=1e-14)

    def test_classical_limit(self):
        assert q_number(5.0, 1 - 1e-9) == pytest.approx(5.0, rel=1e-6)


class TestPhi21:
    def test_unit_numerator_terminates_to_one(self):
        q = 0.5
        for n in range(1, 6):
            assert phi_2_1(q**-n, 1.0, 0.3, q, 0.7, T) == 1.0

    def test_zero_argument(self):
        assert phi_2_1(0.4, 0.0, 0.25, 0.5, 0.0, T) == 1.0

    def test_against_brute_force(self):
        got = phi_2_1(0.5, 0.0, 0.25, 0.5, 0.3, T)
        assert got == pytest.approx(PHI21_ORACLE, rel=1e-12)

    def test_divergence_error(self):
        with pytest.raises(SeriesDivergenceError):
            phi_2_1(0.5, 0.3, 0.25, 0.5, 1.0, T)

    def test_denominator_zero_error(self):
        # c = q^{-2} vanishes at k = 3 before the nonterminating series stops
        with pytest.raises(DenominatorZeroError):
            phi_2_1(0.5, 0.3, 4.0, 0.5, 0.5, T)

    def test_terminating_beats_denominator_zero(self):
        # numerator terminates at k=1 before c = q^{-2} bites
        q = 0.5
        val = phi_2_1(q**-1, 0.3, q**-2, q, 0.5, T)
        assert math.isfinite(val)

    def test_max_terms_error(self):
        with pytest.raises(NonConvergenceError):
            phi_2_1(0.5, 0.3, 0.25, 0.999, 0.9, Truncation(max_terms=50))

    @settings(max_examples=40, deadline=None)
    @given(a=st.floats(-2, 2), q=st.floats(0.1, 0.9), z=st.floats(-0.8, 0.8))
    # the alternating sums cancel past double precision at these points
    @example(a=-1.75, q=0.875, z=-0.75)
    @example(a=-2.0, q=0.9, z=-0.8)
    def test_q_binomial_theorem(self, a, q, z):
        # sum_k (a;q)_k / (q;q)_k z^k = (az;q)_inf / (z;q)_inf for |z| < 1
        lhs = phi_2_1(a, 0.0, 0.0, q, z, T)
        rhs = q_pochhammer_inf(a * z, q, T) / q_pochhammer_inf(z, q, T)
        assert abs(lhs - rhs) <= 1e-10 * (1 + abs(rhs))


class TestPhi32:
    def test_n0_terminating(self):
        q = 0.5
        assert phi_3_2(1.0, 0.0, 0.3, 0.25, -0.35, q, q, T) == 1.0

    def test_zero_argument(self):
        assert phi_3_2(0.5, 0.0, 0.0, 0.25, -0.35, 0.5, 0.0, T) == 1.0

    def test_terminating_n2_against_hand_expansion(self):
        q = 0.5
        got = phi_3_2(q**-2, 0.0, 0.3, 0.25, -0.35, q, q, T)
        assert got == pytest.approx(PHI32_N2_ORACLE, rel=1e-14)

    def test_decimal_scalars_pass_through(self):
        # the sum stays a Decimal, at the caller's 40 digits: the oracle's
        # 38 digits all agree
        D = decimal.Decimal
        with decimal.localcontext(_working_context(40)):
            q = D("0.5")
            got = phi_3_2(q**-2, q * 0, D("0.3"), D("0.25"), D("-0.35"), q, q, T)
            assert isinstance(got, D)
            assert abs(got - D("0.069083267664827948515891778303125820856")) <= D("1e-38")


class TestJacksonEq:
    def test_zero(self):
        assert jackson_Eq(0.0, 0.5, T) == 1.0

    def test_zero_at_minus_one(self):
        assert jackson_Eq(-1.0, 0.5, T) == 0.0

    def test_zero_at_minus_inverse_powers(self):
        q = 0.5
        for j in range(1, 5):
            assert jackson_Eq(-(q**-j), q, T) == 0.0

    def test_series_equals_product(self):
        got = jackson_Eq(0.3, 0.5, T)
        want = q_pochhammer_inf(-0.3, 0.5, T)
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.9])
    def test_series_product_agreement_grid(self, q):
        for z in [-2.0, -1.3, -0.6, -0.1, 0.0, 0.4, 1.1, 2.0]:
            e = jackson_Eq(z, q, T)
            p = q_pochhammer_inf(-z, q, T)
            assert abs(e - p) <= 1e-11 * (1 + abs(e))

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.9])
    def test_relative_accuracy_near_zeros(self, q):
        # near z = -q^-j the sum cancels to a small value, which must keep
        # its relative accuracy, not only an absolute one
        for j in range(1, 6):
            for eps in (1e-3, -1e-3, 1e-6, -1e-6):
                z = -(q**-j) * (1 + eps)
                with mpmath.workdps(60):
                    want = mpmath.qp(-mpmath.mpf(z), mpmath.mpf(q))
                got = jackson_Eq(z, q, T)
                assert abs(got - want) <= 1e-12 * abs(want), (j, eps)

    def test_max_terms_error(self):
        with pytest.raises(NonConvergenceError):
            jackson_Eq(0.5, 0.999, Truncation(max_terms=50))


class TestQParams:
    def test_valid_construction(self):
        p = QParams(q=0.5, a=0.5, b=-0.7)
        assert p.l > 0

    def test_l_roundtrip(self):
        p = QParams(q=0.5, a=0.5, b=-0.7)
        assert p.q ** (2 * p.l - 1) == pytest.approx(p.a, rel=1e-14)

    def test_from_l(self):
        p = QParams.from_l(q=0.5, l=1.0, b=-0.7)
        assert p.a == pytest.approx(0.5, rel=1e-14)
        assert p.l == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("scalar", [float, decimal.Decimal], ids=["float", "decimal"])
    def test_from_l_rejects_q_outside_the_domain(self, scalar):
        # q^(2l-1) at q = 0 and l < 1/2 divides by zero: q is checked first
        for q in ("0", "1", "1.5"):
            with pytest.raises(DomainError, match=r"q must lie strictly in \(0, 1\)"):
                QParams.from_l(scalar(q), scalar("0.25"), scalar("-0.7"))

    @pytest.mark.parametrize(
        "q,a,b,msg",
        [
            (1.2, 0.5, -0.7, "q"),
            (0.0, 0.5, -0.7, "q"),
            (0.5, -0.1, -0.7, "a"),
            (0.5, 2.5, -0.7, "a"),
            (0.5, 0.5, 0.7, "b"),
            (0.5, 0.5, 0.0, "b"),
            (0.5, 0.5, -math.inf, "b must be finite"),
            (0.5, 0.5, decimal.Decimal("-Infinity"), "b must be finite"),
        ],
    )
    def test_domain_rejection(self, q, a, b, msg):
        with pytest.raises(DomainError, match=msg):
            QParams(q=q, a=a, b=b)

    def test_derived_operator_constants(self):
        p = QParams(q=0.5, a=0.5, b=-0.7)
        # alpha = sqrt(-b) q^l (1-q) with q^l = sqrt(aq)
        assert p.alpha == pytest.approx(math.sqrt(0.7) * math.sqrt(0.25) * 0.5, rel=1e-13)
        assert p.beta1 == pytest.approx(-0.7 * 1.5, rel=1e-14)
        assert p.beta2 == pytest.approx(-0.35 + 0.25 * 0.3, rel=1e-13)


class TestScalarTypes:
    # the kernels are generic in the scalar: at their zeros and square
    # roots a Decimal argument gives a Decimal, in the caller's context,
    # and a float or an int the float of before
    @pytest.mark.parametrize(
        "kind,tol", [(float, 1e-14), (decimal.Decimal, decimal.Decimal("1e-29"))], ids=["float", "Decimal"]
    )
    def test_zeros_and_square_roots_keep_the_scalar_type(self, kind, tol):
        with decimal.localcontext(_working_context(30)):
            q = kind("0.5")
            zeros = [q_pochhammer_inf(q**-2, q, T), jackson_Eq(-(q**-1), q, T)]
            assert zeros == [0, 0] and all(type(x) is kind for x in zeros), zeros
            p = QParams(q=q, a=kind("0.5"), b=kind("-0.7"))
            # alpha = sqrt(-b) q^l (1-q) with l = 1, and [3]_q = 1/q + 1 + q
            alpha = math.sqrt(0.7) / 4 if kind is float else decimal.Decimal("0.7").sqrt() / 4
            checks = [(p.alpha, alpha), (q_number(3, q), kind("3.5")), (q_number(kind(3), q), kind("3.5"))]
            for got, want in checks:
                assert type(got) is kind and abs(got - want) <= tol, (got, want)

    def test_int_and_float_zeros_are_floats(self):
        assert [q_pochhammer_inf(4, 0.5, T), jackson_Eq(-2, 0.5, T)] == [0.0, 0.0]
        assert type(q_pochhammer_inf(4, 0.5, T)) is float and type(jackson_Eq(-2, 0.5, T)) is float


def _ln_answer(u, q):
    """The termination index of the Decimal u at the Decimal q as Decimal
    ln gives it in the thread's context: j = round(-ln u / ln q) if
    u q^j = 1 to within TERMINATION_RTOL."""
    if u == 1:
        return 0
    if not u > 1:
        return None
    j = round(-u.ln() / q.ln())
    return j if j >= 0 and abs(u * q**j - 1) <= TERMINATION_RTOL else None


def _negative_power_cases():
    """(q, u) in the thread's context: exact q-powers beyond the float
    range, half-integer powers, q within 1e-12 of 1, and points 1e-9 off a
    power."""
    D = decimal.Decimal
    cases = [(D(q), D(q) ** -j) for q, j in [(1e-30, 20), (0.5, 2000), (1e-300, 5), (0.9, 10**5), (0.5, 0), (0.3, 7)]]
    for q in (D("0.5"), D("0.3"), D("0.97")):
        cases += [(q, (q.ln() * -(j + D("0.5"))).exp()) for j in (0, 3, 40)]
    for q in (1 - D("1e-12"), 1 - D("3e-13"), 1 - D("1e-15"), 1 - D(2.0**-52)):
        cases += [(q, q**-j) for j in (1, 2, 1000, 10**6)]
    cases += [(D("0.7"), D("0.7") ** -12 * (1 + D("1e-9"))), (D("0.7"), D("0.7") ** -12 * (1 - D("1e-9")))]
    return cases


class TestNegativeQPower:
    # the termination index is round(-ln u / ln q) in u's scalar type, kept
    # where u q^j is 1 to within TERMINATION_RTOL
    @pytest.mark.parametrize("dps", [10, 30, 50])
    def test_decimal_index_is_the_ln_index(self, dps):
        # the cases carry 60 digits, more than some of these contexts hold
        with decimal.localcontext(_working_context(60)):
            cases = _negative_power_cases()
        with decimal.localcontext(_working_context(dps)):
            for q, u in cases:
                assert _as_negative_q_power(u, q) == _ln_answer(u, q), (q, u)

    @pytest.mark.parametrize("u", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("kind", [float, decimal.Decimal], ids=["float", "Decimal"])
    def test_non_finite_is_no_power(self, kind, u):
        # an infinite u reached round() and raised OverflowError, a Decimal
        # nan InvalidOperation from the comparison with 1
        with decimal.localcontext(_working_context(30)):
            assert _as_negative_q_power(kind(u), kind("0.5")) is None


# mantissas across [1, 10), to 32 digits, and exponents from -10^6 to 10^6
_LOG10_MANTISSAS = [
    "1", "1.0000000000000000000000000000001", "2", "3.1622776601683793319988935444327",
    "5.5", "7.0710678118654752440084436210485", "9.9999999999999999999999999999999",
]
_LOG10_EXPONENTS = [-10**6, -123457, -400, -308, -1, 0, 1, 308, 400, 99999, 10**6]


class TestLog10:
    # the float log10 that steers every Decimal's size, in no decimal context
    @pytest.mark.parametrize("exponent", _LOG10_EXPONENTS)
    @pytest.mark.parametrize("mantissa", _LOG10_MANTISSAS)
    def test_decimal_matches_mpmath(self, mantissa, exponent):
        # the float log of the mantissa errs by an ulp of 1 or so, and the
        # sum with the exponent rounds once
        for sign in ("", "-"):
            x = decimal.Decimal(f"{sign}{mantissa}E{exponent}")
            with mpmath.workdps(50):
                want = float(mpmath.log10(abs(mpmath.mpf(str(x)))))
            assert abs(_log10(x) - want) <= math.ulp(want) + 2 * 2.0**-52, x

    def test_zero_is_minus_infinity(self):
        for zero in ("0", "-0", "0E+400", "-0E-400"):
            assert _log10(decimal.Decimal(zero)) == -math.inf

    @pytest.mark.parametrize("x", [0.3, -2.5, 1e-300, 5e-324, 1e308, 7.0])
    def test_float_is_math_log10(self, x):
        assert _log10(x) == math.log10(abs(x))

    def test_thread_context_ignored(self):
        # a coarse, floored thread context reaches neither the scaling of
        # the mantissa nor anything else
        xs = [decimal.Decimal(f"{m}E{e}") for m in _LOG10_MANTISSAS for e in _LOG10_EXPONENTS]
        want = list(map(_log10, xs))
        with decimal.localcontext(decimal.Context(prec=5, rounding=decimal.ROUND_FLOOR)):
            assert list(map(_log10, xs)) == want


_KERNELS = {
    "big_q_laguerre": lambda u: big_q_laguerre(3, u, QParams(q=0.5, a=0.5, b=-0.7)),
    "q_meixner-b": lambda u: q_meixner(2, 3, u, 0.4, 0.5),
    "q_meixner-c": lambda u: q_meixner(2, 3, 0.5, u, 0.5),
    "phi_2_1-a": lambda u: phi_2_1(u, 0.2, 0.3, 0.5, 0.5),
    "phi_2_1-z": lambda u: phi_2_1(0.1, 0.2, 0.3, 0.5, u),
    "q_pochhammer_inf": lambda u: q_pochhammer_inf(u, 0.5),
    "jackson_Eq": lambda u: jackson_Eq(u, 0.5),
}


class TestNonFiniteArguments:
    # an infinite or nan argument raised OverflowError from round(),
    # InvalidOperation from a Decimal re-read, ran 10000 terms into
    # NonConvergenceError, or gave a value (q_meixner at c = inf: 1.0)
    @pytest.mark.parametrize("u", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
    @pytest.mark.parametrize("kernel", list(_KERNELS))
    def test_rejected_on_entry(self, kernel, u):
        with pytest.raises(DomainError):
            _KERNELS[kernel](u)

    def test_finite_complex_and_huge_decimal_accepted(self):
        D = decimal.Decimal
        with decimal.localcontext(_working_context(30)):
            assert q_pochhammer_inf(D("1e400"), D("0.5")).is_finite()
            for u in ("Infinity", "-Infinity", "NaN"):
                with pytest.raises(DomainError):
                    q_pochhammer_inf(D(u), D("0.5"))
        assert phi_2_1(0.1, 0.2, 0.3, 0.5, 0.5j) == pytest.approx(complex(mpmath.qhyper([0.1, 0.2], [0.3], 0.5, 0.5j)))
        assert jackson_Eq(0.3 + 0.2j, 0.5) == pytest.approx(complex(mpmath.qp(-(0.3 + 0.2j), 0.5)))



def _entry_calls() -> dict:
    from qortho.climit import LimitSweep, classical_operator_check, limit_operator_entries_check
    from qortho.representation import qJ0_inverse_action
    from qortho.routes import generating_series

    p = QParams(q=0.5, a=0.5, b=-0.7)
    return {
        # a step outside (0, inf): h = 0 divided by zero, h < 0 passed
        "classical_operator_check-h=0": lambda: classical_operator_check(0.25, 0.2, 1.0, h=0),
        "classical_operator_check-h=-0.1": lambda: classical_operator_check(0.25, 0.2, 1.0, h=-0.1),
        "classical_operator_check-h=inf": lambda: classical_operator_check(0.25, 0.2, 1.0, h=math.inf),
        "classical_operator_check-h=nan": lambda: classical_operator_check(0.25, 0.2, 1.0, h=math.nan),
        # a negative cut-off or row index gave 0.0 and []
        "generating_series-n_max=-1": lambda: generating_series(("a", 0), 0.1, p, -1),
        "limit_operator_entries_check-n=-1": lambda: limit_operator_entries_check(-1, LimitSweep(1.0, 0.5)),
        # a degree or index of integral or fractional float value gave the
        # value of a non-terminating series, numbers, or a TypeError
        "q_meixner-n=2.5": lambda: q_meixner(2.5, 3, 0.5, 0.4, 0.5),
        "q_meixner-m=3.0": lambda: q_meixner(2, 3.0, 0.5, 0.4, 0.5),
        "q_meixner-m=-1": lambda: q_meixner(2, -1, 0.5, 0.4, 0.5),
        "qJ0_inverse_action-n=2.5": lambda: qJ0_inverse_action(("a", 2.5), p),
        "qJ0_inverse_action-n=-1": lambda: qJ0_inverse_action(("b", -1), p),
        "big_q_laguerre-n=2.0": lambda: big_q_laguerre(2.0, 0.3, p),
        "big_q_laguerre-n=Decimal(2)": lambda: big_q_laguerre(decimal.Decimal(2), 0.3, p),
        "big_q_laguerre-n=-1": lambda: big_q_laguerre(-1, 0.3, p),
    }


class TestEntryChecks:
    @pytest.mark.parametrize("call", list(_entry_calls()))
    def test_rejected_on_entry(self, call):
        with pytest.raises(DomainError):
            _entry_calls()[call]()

    def test_integer_degrees_accepted(self):
        from qortho.representation import qJ0_inverse_action

        def terminating(top, bottom, z, n):
            # the basic series of base 0.5 whose first numerator is q^-n, summed to its last term
            qp = mpmath.qp
            return float(sum(
                mpmath.fprod(qp(u, 0.5, k) for u in top) / mpmath.fprod(qp(v, 0.5, k) for v in (*bottom, 0.5)) * z**k
                for k in range(n + 1)
            ))

        p = QParams(q=0.5, a=0.5, b=-0.7)
        assert big_q_laguerre(2, 0.3, p) == pytest.approx(terminating([4, 0, 0.3], [0.25, -0.35], 0.5, 2), rel=1e-13)
        assert q_meixner(2, 3, 0.5, 0.4, 0.5) == pytest.approx(terminating([4, 8], [0.25], -0.125 / 0.4, 2), rel=1e-13)
        assert all(math.isfinite(x) for x in qJ0_inverse_action(("a", 2), p))


class TestTruncation:
    def test_defaults(self):
        t = Truncation()
        assert t.rel_tol == 1e-12
        assert t.max_terms == 10000
        assert t._fields == ("rel_tol", "max_terms")

    def test_rejects_bad_fields(self):
        with pytest.raises(DomainError):
            Truncation(rel_tol=0.0)
        with pytest.raises(DomainError):
            Truncation(max_terms=0)
