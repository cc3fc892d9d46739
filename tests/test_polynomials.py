"""Tests for the polynomial families.

Frozen expected values below were computed with exact rational
arithmetic (fractions.Fraction) over the terminating sums, independently
of the code under test.
"""

import cmath
import contextlib
import functools
import math
import random

import mpmath
import pytest

from qortho.qseries import DomainError, NeumaierSum, QParams, Truncation, q_pochhammer, q_pochhammer_inf
from qortho.polynomials import (
    _bigql_series_sum,
    _escalated,
    _generating_closed_complex,
    Family,
    Method,
    PolyEval,
    big_q_laguerre,
    big_q_laguerre_phi21,
    big_q_laguerre_recurrence,
    classical_laguerre,
    dual_f,
    dual_g,
    generating_closed,
    generating_series,
    match_spectral_point,
    poly_eval,
    q_inverse_meixner_relation,
    q_meixner,
    spectral_sequence,
)

T = Truncation()
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
            assert big_q_laguerre(0, x, P1, T) == 1.0

    def test_frozen_rational_oracle(self):
        assert big_q_laguerre(3, 0.2, P1, T) == pytest.approx(P3_AT_02, rel=1e-13)

    @pytest.mark.parametrize("n", [1, 2, 5, 8, 14, 20])
    def test_forced_value_at_aq(self, n):
        got = big_q_laguerre(n, P1.a * P1.q, P1, T)
        want = forced_value_at_aq(n, P1)
        assert got == pytest.approx(want, rel=1e-11)

    @pytest.mark.parametrize("n", [1, 3, 7, 12])
    def test_phi21_form_agrees(self, n):
        for x in [P1.a * P1.q, P1.b * P1.q, P1.a * P1.q**4, 0.2]:
            s = big_q_laguerre(n, x, P1, T)
            f = big_q_laguerre_phi21(n, x, P1, T)
            assert abs(s - f) <= 1e-12 * max(1.0, abs(s))

    def test_ab_symmetry(self):
        # 3phi2 denominator parameters (aq, bq) are symmetric
        from qortho.polynomials import _big_q_laguerre_raw

        for n in [1, 4, 9]:
            for x in [0.15, -0.2, P1.a * P1.q**2]:
                lhs = _big_q_laguerre_raw(n, x, 0.5, -0.7, 0.5)
                rhs = _big_q_laguerre_raw(n, x, -0.7, 0.5, 0.5)
                assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_mpf_passthrough(self):
        with mpmath.workdps(40):
            got = big_q_laguerre(3, mpmath.mpf("0.2"), P1, T)
        assert float(got) == pytest.approx(P3_AT_02, rel=1e-13)


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
                want = big_q_laguerre(n, x, p, T)
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
            want = big_q_laguerre(m, lam, P1, T)
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
        # the sequence a fresh call gives, and the exact series to 20 digits
        p = P2
        spectral_sequence(p, "a", 0, 5)
        got = spectral_sequence(p, "a", 0, 20)[20]
        assert got == spectral_sequence(p, "a", 0, 20)[20]
        with mpmath.workdps(120):
            q, a, b = mpmath.mpf(p.q), mpmath.mpf(p.a), mpmath.mpf(p.b)
            want = _bigql_series_sum(20, a * q, a, b, q)[0]
            assert abs(got - want) <= mpmath.mpf(10) ** -20 * abs(want)

    def test_rejects_bad_arguments(self):
        for args in (("c", 0, 5), ("a", -1, 5), ("b", 0, -1)):
            with pytest.raises(DomainError):
                spectral_sequence(P1, *args)

    def test_match_spectral_point(self):
        assert match_spectral_point(P1.a * P1.q**3, P1) == ("a", 2)
        assert match_spectral_point(P1.b * P1.q, P1) == ("b", 0)
        assert match_spectral_point(0.2, P1) is None
        assert match_spectral_point(0.0, P1) is None


class TestQMeixner:
    def test_degree_zero(self):
        assert q_meixner(0, 5, 0.5, 0.4, 0.5, T) == 1.0

    def test_unit_argument(self):
        # q^{-x} at x = 0 gives numerator parameter 1
        assert q_meixner(3, 0, 0.5, 0.4, 0.5, T) == 1.0

    def test_frozen_rational_oracle(self):
        assert q_meixner(2, 3, 0.5, 0.4, 0.5, T) == pytest.approx(M2_AT_3, rel=1e-13)

    def test_negative_first_parameter_allowed(self):
        val = q_meixner(2, 3, -0.7, 1.4, 0.5, T)
        assert math.isfinite(val)

    def test_denominator_zero(self):
        # bparam*q = q^{-1} vanishes at k = 1 before termination at 3
        with pytest.raises(DomainError):
            q_meixner(3, 3, 0.5**-2, 0.4, 0.5, T)


class TestDuality:
    def test_dual_f_degree_zero(self):
        for n in range(4):
            assert dual_f(n, 0, P1, T) == 1.0

    def test_dual_g_degree_zero(self):
        for n in range(4):
            assert dual_g(n, 0, P1, T) == 1.0

    def test_dual_f_lambda_aq_forced(self):
        got = dual_f(0, 2, P1, T)
        assert got == pytest.approx(forced_value_at_aq(2, P1), rel=1e-12)

    @pytest.mark.parametrize("p", [P1, P2], ids=["p1", "p2"])
    def test_dual_f_meixner_identity(self, p):
        # f_n(q^-m) = (q^-m/b;q)_m^-1 M_n(q^-m; a, -b/a; q), relative check
        q, a, b = p.q, p.a, p.b
        for n in range(0, 13, 3):
            for m in range(0, 13, 3):
                lhs = dual_f(n, m, p, T)
                with mpmath.workdps(35):
                    pref = q_pochhammer(mpmath.mpf(q) ** (-m) / b, mpmath.mpf(q), m)
                    rhs = float(q_meixner(n, m, a, -b / a, q, T) / pref)
                assert abs(lhs - rhs) <= 1e-11 * max(abs(rhs), 1e-300)

    @pytest.mark.parametrize("p", [P1, P2], ids=["p1", "p2"])
    def test_dual_g_meixner_identity(self, p):
        q, a, b = p.q, p.a, p.b
        for n in range(0, 13, 4):
            for m in range(0, 13, 4):
                lhs = dual_g(n, m, p, T)
                with mpmath.workdps(35):
                    pref = q_pochhammer(mpmath.mpf(q) ** (-m) / a, mpmath.mpf(q), m)
                    rhs = float(q_meixner(n, m, b, -a / b, q, T) / pref)
                assert abs(lhs - rhs) <= 1e-11 * max(abs(rhs), 1e-300)

    def test_dual_g_is_dual_f_with_swapped_parameters(self):
        # symmetric denominator pair in the 3phi2 definition
        from qortho.polynomials import _big_q_laguerre_raw

        for n, m in [(1, 2), (3, 5)]:
            lam = P1.b * P1.q ** (n + 1)
            direct = _big_q_laguerre_raw(m, lam, P1.a, P1.b, P1.q)
            swapped = _big_q_laguerre_raw(m, lam, P1.b, P1.a, P1.q)
            assert direct == pytest.approx(swapped, rel=1e-12)


class TestGeneratingFunction:
    def test_t_zero(self):
        assert generating_series(0.1, 0.0, P1, 10, T) == 1.0
        assert generating_closed(0.2, 0.0, P1, T) == 1.0

    def test_nmax_zero(self):
        assert generating_series(0.1, -0.2, P1, 0, T) == 1.0

    @pytest.mark.parametrize("j,tv", [(0, 0.3), (0, -0.3), (1, 0.25), (2, -0.15), (3, 0.05)])
    def test_series_equals_closed_on_upper_branch(self, j, tv):
        x = P1.a * P1.q ** (j + 1)
        d = generating_series(x, tv, P1, 60, T, diagnostics=True)
        assert d.tail_estimate <= 1e-12 * (1 + abs(d.value))
        want = generating_closed(x, tv, P1, T)
        assert d.value == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("j,tv", [(0, 0.3), (1, -0.2), (2, 0.1)])
    def test_series_equals_closed_on_lower_branch(self, j, tv):
        x = P1.b * P1.q ** (j + 1)
        d = generating_series(x, tv, P1, 60, T, diagnostics=True)
        assert d.tail_estimate <= 1e-12 * (1 + abs(d.value))
        want = generating_closed(x, tv, P1, T)
        assert d.value == pytest.approx(want, rel=1e-10)

    def test_forced_form_at_aq(self):
        # at x = aq the 2phi1 numerator parameter is 1, only k=0 survives
        from qortho.qseries import q_pochhammer_inf

        tv = 0.3
        got = generating_closed(P1.a * P1.q, tv, P1, T)
        want = q_pochhammer_inf(-P1.a * P1.b * P1.q**2 * tv, P1.q, T) / q_pochhammer_inf(
            -P1.b * P1.q * tv, P1.q, T
        )
        assert got == pytest.approx(want, rel=1e-12)

    def test_t_to_zero_limit_is_one(self):
        # prefactor and series both tend to 1 as t -> 0
        for tv in [1e-4, 1e-6]:
            got = generating_closed(P1.a * P1.q**2, tv, P1, T)
            assert got == pytest.approx(1.0, abs=5 * tv)

    def test_tail_not_certified_off_spectrum(self):
        # the series only plateaus at ~1e-5 accuracy at generic arguments
        d = generating_series(0.1, -0.2, P1, 60, T, diagnostics=True)
        assert not (d.tail_estimate <= 1e-12 * (1 + abs(d.value)))

    def test_strict_mode_raises_off_spectrum(self):
        from qortho.qseries import TailError

        with pytest.raises(TailError):
            generating_series(0.1, -0.2, P1, 60, T, strict=True)


class TestQInverseRelation:
    def test_degree_zero(self):
        lhs, rhs = q_inverse_meixner_relation(0, 1.7, 2.0, 0.3, 0.5, T)
        assert lhs == 1.0 and rhs == 1.0

    def test_unit_argument(self):
        lhs, rhs = q_inverse_meixner_relation(3, 1.0, 2.0, 0.3, 0.5, T)
        assert lhs == 1.0
        assert rhs == pytest.approx(1.0, rel=1e-12)

    def test_frozen_rational_oracle(self):
        lhs, rhs = q_inverse_meixner_relation(2, 2.0, 2.0, 0.3, 0.5, T)
        assert lhs == pytest.approx(QINV_BOTH_SIDES, rel=1e-13)
        assert rhs == pytest.approx(QINV_BOTH_SIDES, rel=1e-13)

    @pytest.mark.parametrize("n", range(0, 11))
    def test_relation_holds(self, n):
        for x, b, c in [(2.0, 2.0, 0.3), (0.7, -1.5, 0.9), (4.0, 3.0, 1.2)]:
            lhs, rhs = q_inverse_meixner_relation(n, x, b, c, 0.5, T)
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
    def test_methods_agree_on_spectral_grid(self):
        for j in [0, 1, 2]:
            x = P1.a * P1.q ** (j + 1)
            for n in [0, 2, 5]:
                vals = {}
                for method in Method:
                    ev = PolyEval(Family.BIG_Q_LAGUERRE, n, x, P1, method)
                    vals[method] = poly_eval(ev, T)
                ref = vals[Method.SERIES_DEF]
                for method, v in vals.items():
                    assert abs(v - ref) <= 1e-10 * max(1.0, abs(ref)), method

    def test_degree_zero_is_one_under_all_methods(self):
        x = P1.a * P1.q
        for method in Method:
            ev = PolyEval(Family.BIG_Q_LAGUERRE, 0, x, P1, method)
            assert poly_eval(ev, T) == pytest.approx(1.0, rel=1e-12)
        ev = PolyEval(Family.Q_MEIXNER, 0, 3, (0.5, 0.4, 0.5), Method.SERIES_DEF)
        assert poly_eval(ev, T) == 1.0

    def test_classical_series_vs_recurrence(self):
        for n in [0, 1, 4]:
            s = poly_eval(PolyEval(Family.CLASSICAL_LAGUERRE, n, 0.7, 1.5, Method.SERIES_DEF))
            r = poly_eval(PolyEval(Family.CLASSICAL_LAGUERRE, n, 0.7, 1.5, Method.RECURRENCE))
            assert s == pytest.approx(r, rel=1e-12)

    def test_generating_method_off_spectrum_rejected(self):
        with pytest.raises(DomainError):
            poly_eval(PolyEval(Family.BIG_Q_LAGUERRE, 2, 0.2, P1, Method.GENERATING))


# ---------------------------------------------------------------------------
# the terminating-series kernel against the per-series loops it replaced;
# each loop is written out as it stood, term expression and all


def _loop_bigql(n, x, a, b, q):
    acc = NeumaierSum(q * 0.0)
    term = 1 + q * 0
    for k in range(n + 1):
        acc.add(term)
        if k == n:
            break
        term = (
            term
            * (1 - q ** (k - n))
            * (1 - x * q**k)
            * q
            / ((1 - a * q ** (k + 1)) * (1 - b * q ** (k + 1)) * (1 - q ** (k + 1)))
        )
    return acc.value, acc.max_abs_term


def _loop_phi21(n, xx, aa, bb, qq):
    acc = NeumaierSum(qq * 0.0)
    term = 1 + qq * 0
    z = xx / bb
    for k in range(n + 1):
        acc.add(term)
        if k == n:
            break
        term = (
            term
            * (1 - qq ** (k - n))
            * (1 - aa * qq / xx * qq**k)
            * z
            / ((1 - aa * qq ** (k + 1)) * (1 - qq ** (k + 1)))
        )
    pref = 1 + qq * 0
    for k in range(n):
        pref = pref * (1 - qq ** (k - n) / bb)
    return acc.value / pref, acc.max_abs_term * abs(1 / pref)


def _loop_meixner(n, m, bb, cc, qq):
    kmax = min(n, m)
    z = -(qq ** (n + 1)) / cc
    acc = NeumaierSum(qq * 0.0)
    term = 1 + qq * 0
    for k in range(kmax + 1):
        acc.add(term)
        if k == kmax:
            break
        term = (
            term
            * (1 - qq ** (k - n))
            * (1 - qq ** (k - m))
            * z
            / ((1 - bb * qq ** (k + 1)) * (1 - qq ** (k + 1)))
        )
    return acc.value, acc.max_abs_term


def _loop_qinv_lhs(n, xx, bb, cc, qq):
    acc = NeumaierSum(qq * 0.0)
    term = 1 + qq * 0
    z = -qq * xx / (bb * cc)
    for k in range(n + 1):
        acc.add(term)
        if k == n:
            break
        term = (
            term
            * (1 - qq ** (k - n))
            * (1 - qq**k / xx)
            * z
            / ((1 - qq ** (k + 1) / bb) * (1 - qq ** (k + 1)))
        )
    return acc.value, acc.max_abs_term


def _loop_generating_closed_complex(x, tc, p, branch, j):
    a, b, q = p.a, p.b, p.q
    if branch == "b":
        a, b = b, a
    t = Truncation(rel_tol=1e-16, max_terms=4000, small_run=6)
    pref = q_pochhammer_inf(-a * b * q * q * tc, q, t) / q_pochhammer_inf(-b * q * tc, q, t)
    acc = NeumaierSum(0j)
    term = 1 + 0j
    z = x / b
    for k in range(j + 1):
        acc.add(term)
        if k == j:
            break
        term = term * (1 - q ** (k - j)) * z / ((1 + q**k / (b * tc)) * (1 - q ** (k + 1)))
    return pref * acc.value


class TestTerminatingSumKernel:
    REL = min(T.rel_tol, 1e-13)

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
        """Compare every series route with its loop through _escalated, the
        shared route rule; returns one flag per sum: did it escalate?"""
        escalated = []

        def ref(loop, args):
            calls = []

            def counted(*xs):
                calls.append(xs)
                return loop(*xs)

            value = _escalated(counted, args, self.REL)
            escalated.append(len(calls) > 1)
            return value

        for point in grid:
            n, m = point[:2]
            x, a, b, q, xi, bi, ci = map(convert, point[2:])
            p = QParams(q=q, a=a, b=b)
            assert big_q_laguerre(n, x, p, T) == ref(functools.partial(_loop_bigql, n), (x, a, b, q)), point
            assert big_q_laguerre_phi21(n, x, p, T) == ref(functools.partial(_loop_phi21, n), (x, a, b, q)), point
            for bparam, c in ((a, -b / a), (b, -a / b)):
                assert q_meixner(n, m, bparam, c, q, T) == ref(
                    functools.partial(_loop_meixner, n, m), (bparam, c, q)
                ), point
            lhs, rhs = q_inverse_meixner_relation(n, xi, bi, ci, q, T)
            assert lhs == ref(functools.partial(_loop_qinv_lhs, n), (xi, bi, ci, q)), point
            pref = 1 + q * 0
            for k in range(n):
                pref = pref * (1 + q ** (k - n) / ci)
            assert rhs == pref * ref(functools.partial(_loop_bigql, n), (q * xi / bi, 1 / bi, -ci, q)), point
        return escalated

    def test_float_routes_match_loops(self):
        escalated = self._check_grid(self._grid(7, 40), float)
        # both routes are exercised: sums that stay in floats and sums that
        # cancel past double precision and rerun in mpmath
        assert any(escalated) and not all(escalated)

    def test_mpf_routes_match_loops(self):
        with mpmath.workdps(40):
            escalated = self._check_grid(self._grid(8, 15), mpmath.mpf)
        assert escalated and not any(escalated)

    def test_complex_generating_sum_matches_loop(self):
        rng = random.Random(9)
        for _ in range(40):
            q = rng.uniform(0.3, 0.95)
            p = QParams(q=q, a=rng.uniform(0.05, 0.999 / q), b=-rng.uniform(0.01, 50.0))
            branch, j = rng.choice("ab"), rng.randrange(12)
            x = (p.a if branch == "a" else p.b) * q ** (j + 1)
            radius = q ** (j - 1) / (abs(p.b) if branch == "a" else p.a)
            tc = 0.75 * radius * cmath.exp(2j * cmath.pi * rng.random())
            assert _generating_closed_complex(x, tc, p, branch, j) == _loop_generating_closed_complex(
                x, tc, p, branch, j
            ), (p, branch, j, tc)


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
    # scalar kinds: floats, and mpmath floats made and used at 30 and at
    # 50 digits (the working precision and the extended CLI precision)
    SCALARS = {"float": None, "mpf30": 30, "mpf50": 50}

    @staticmethod
    def _in(dps):
        return mpmath.workdps(dps) if dps else contextlib.nullcontext()

    @staticmethod
    def _convert(p, dps):
        if dps is None:
            return p
        return QParams(q=mpmath.mpf(repr(p.q)), a=mpmath.mpf(repr(p.a)), b=mpmath.mpf(repr(p.b)))

    @pytest.mark.parametrize("kind", SCALARS)
    def test_forward_matches_inline_loop(self, kind):
        from qortho.polynomials import _RecurrenceTable

        dps = self.SCALARS[kind]
        with self._in(dps):
            for p0 in self.POINTS:
                p = self._convert(p0, dps)
                shared = _RecurrenceTable(p)
                xs = [p.a * p.q, p.a * p.q**5, p.b * p.q**2, p.b * p.q**9, p.q * 0 + 0.3]
                for n_max in (7, 0, 25, 1, 60, 12):
                    for x in xs:
                        want = _loop_forward(n_max, x, p)
                        assert big_q_laguerre_recurrence(n_max, x, p) == want, (kind, p0, n_max)
                        assert big_q_laguerre_recurrence(n_max, x, p, coeffs=shared) == want, (kind, p0, n_max)

    @pytest.mark.parametrize("kind", ["float", "mpf50"])
    def test_forward_on_working_table_matches_inline_loop(self, kind):
        # the 30-digit table of the forward coefficient rows, made from
        # float and from 50-digit parameters, serves sweeps on its scalars
        from qortho.polynomials import _working_coefficients

        dps = self.SCALARS[kind]
        with self._in(dps):
            for p0 in self.POINTS:
                shared = _working_coefficients(self._convert(p0, dps), 30)
                pw = shared.p
                for branch, j in (("a", 0), ("b", 3), ("a", 9), ("b", 0), ("a", 2)):
                    with mpmath.workdps(30):
                        lam = (pw.a if branch == "a" else pw.b) * pw.q ** (j + 1)
                        got = big_q_laguerre_recurrence(j + 5, lam, pw, coeffs=shared)
                        assert got == _loop_forward(j + 5, lam, pw), (kind, p0, branch, j)

    @pytest.mark.parametrize("kind", SCALARS)
    def test_extending_equals_one_build(self, kind):
        from qortho.polynomials import _RecurrenceTable

        dps = self.SCALARS[kind]
        for p0 in self.POINTS:
            with self._in(dps):
                p = self._convert(p0, dps)
                long = _RecurrenceTable(p)
                long.upto(60)
                short = _RecurrenceTable(p)
                short.upto(3)
                short.upto(17)
            # an mpmath table extends at the precision it was made at, even
            # when the extension runs under another one
            short.upto(60)
            assert (short.A, short.C, short.d) == (long.A, long.C, long.d), (kind, p0)
            q, a, b = p.q, p.a, p.b
            with self._in(dps):
                for k in range(61):
                    assert long.A[k] == (1 - a * q ** (k + 1)) * (1 - b * q ** (k + 1))
                    assert long.C[k] == a * b * q ** (k + 1) * (1 - q**k)
                    assert long.d[k] == -a * b * q ** (2 * k + 1) * (1 + q) + q ** (k + 1) * (a + a * b + b)
