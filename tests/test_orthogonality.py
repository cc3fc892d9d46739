"""Tests for the identity-verification engines."""

import decimal
import functools
import itertools
import math

import pytest

from qortho.qseries import DomainError, QParams, _stop_target, phi_3_2, q_pochhammer
from qortho.representation import normalization_c, normalization_cprime
from qortho.orthogonality import run_identity_checks, verify_record

P1 = QParams(q=0.5, a=0.5, b=-0.7)
P2 = QParams(q=0.7, a=0.9, b=-0.4)
PARAMS = [P1, P2]
# the hardest cancellation of these points: at index-max 8 the vanishing
# label sums add terms of size up to 3e12
P_RETRY = QParams(q=0.3, a=3.2, b=-0.01)
# the six families that read the store's label sums (unitarity's rows read
# its rows over the spectral index)
LABEL_FAMILIES = ("unitarity", "dual", "meixner", "meixner-negb", "eq-zero", "biortho")
# the record ids of `verify`, one per identity the report checks
RECORD_IDS = (
    "big-laguerre", "sears", "unitarity-rows", "unitarity-columns", "dual-ff", "dual-gg", "dual-fg",
    "meixner", "meixner-negb", "eq-zero", "biortho",
)


def extended_params(q, a, b):
    """The parameters of `verify --precision extended`: the exact Decimals
    of the flag values."""
    return QParams(*(decimal.Decimal(repr(x)) for x in (q, a, b)))


def extended_reports(families, q, a, b, index_max):
    """The families' reports at Decimal parameters, as `verify --precision
    extended` runs them: in order, on one store."""
    from qortho.orthogonality import _Store

    p = extended_params(q, a, b)
    store = _Store(p, index_max)
    return [r for fam in families for r in run_identity_checks(fam, p, index_max, store=store)]


def literal_reference_points(p):
    """(p, dps) of the literal-reference tests: p in floats at the
    working precision, and p in Decimals at 50 digits, as `verify
    --precision extended` runs it."""
    from qortho.polynomials import _WORKING_DPS, EXTENDED_DPS

    yield p, _WORKING_DPS
    yield extended_params(*p), EXTENDED_DPS


def to_mpf(x):
    """A float or a Decimal as an mpf, at the precision in effect, of the
    same value: mpmath turns an mpf and a Decimal in one expression into a
    float."""
    import mpmath

    return mpmath.mpf(str(decimal.Decimal(x)))


def random15_points() -> list:
    """36 points (q, a, b) drawn from random.Random(15): q from [0.3, 0.8],
    then a q from [0.01, 0.999], then log10(-b) from [-2, 1.7]."""
    import random

    rng = random.Random(15)
    points = []
    for _ in range(36):
        q = rng.uniform(0.3, 0.8)
        aq = rng.uniform(0.01, 0.999)
        points.append((q, aq / q, -(10.0 ** rng.uniform(-2, 1.7))))
    return points


def assert_within_rounding(lhs, reference, total_abs, dps, what):
    """|lhs - reference| <= 10^(1-dps) sum |t_k|: the engine rounds the
    exact sum of its terms once at dps digits.  A record carries lhs as a
    float, so the bound adds the float rounding of the reference, 2^-51
    of it for the rounding and the products by the normalization
    constants."""
    import mpmath

    with mpmath.workdps(2 * dps):
        err = abs(mpmath.mpf(lhs) - reference)
        assert err <= mpmath.mpf(10) ** (1 - dps) * total_abs + abs(reference) * 2.0**-51, (what, err, total_abs)


class TestCertifiedSum:
    @staticmethod
    def unit_sum(term, hard_cap):
        """The bilinear sum of the entries 1 and term(k): its terms are the
        term(k) themselves."""
        from qortho.orthogonality import _bilinear_sum
        from qortho.qseries import _working_context

        def v(k):
            x = decimal.Decimal(term(k))
            return x, float(x)

        one = decimal.Decimal(1), 1.0
        return _bilinear_sum(lambda k: one, v, _stop_target(1.0), hard_cap, _working_context(30), "a term", ())

    def test_terms_used_counts_the_terms_summed_at_the_cap(self):
        summed = []

        def term(m):
            summed.append(m)
            return 1.0  # never negligible, so the tail is never certified

        value, used, tail, total = self.unit_sum(term, hard_cap=10)
        assert summed == list(range(11))
        assert (value, used, tail, total) == (11, 11, float("inf"), 11.0)

    def test_terms_used_counts_the_terms_summed_when_certified(self):
        from qortho.orthogonality import _N_CAP

        summed = []

        def term(m):
            summed.append(m)
            return 0.5**m

        value, used, tail, total = self.unit_sum(term, _N_CAP)
        # the terms 2^-39 .. 2^-48 are the first small_run at most rel_tol
        # of their M, 2 - 2^-m
        assert used == len(summed) == 49
        assert total == pytest.approx(2.0, rel=1e-13) and float(value) == pytest.approx(total, rel=1e-15)
        assert tail <= _stop_target(1.0) * total


class TestBigLaguerreOrthogonality:
    def test_diagonal_m0_reduces_to_sears(self):
        r00 = verify_record("big-laguerre", 0, 0, P1)
        sears = verify_record("sears", 0, 0, P1)
        assert r00.status == "pass"
        assert r00.lhs == pytest.approx(sears.lhs, rel=1e-14)
        assert r00.rhs == pytest.approx(sears.rhs, rel=1e-14)

    def test_off_diagonal(self):
        r = verify_record("big-laguerre", 0, 1, P1)
        assert r.status == "pass"
        assert abs(r.lhs) <= 1e-9

    def test_diagonal_m2(self):
        r = verify_record("big-laguerre", 2, 2, P1)
        assert r.status == "pass"
        assert r.residual <= 1e-9 * (1 + abs(r.rhs))

    @pytest.mark.parametrize("p", PARAMS, ids=["p1", "p2"])
    def test_grid(self, p):
        for m in range(0, 9, 2):
            for m2 in range(m, 9, 3):
                r = verify_record("big-laguerre", m, m2, p)
                assert r.status == "pass", (m, m2)

    def test_no_false_fail_at_large_a_small_b(self):
        # a float forward recurrence over the spectral points gave 8 false
        # `fail`s here; the 30-digit coefficient rows give none
        reports = run_identity_checks("big-laguerre", P_RETRY, index_max=8)
        assert len(reports) == 45
        assert [r.indices for r in reports if r.status != "pass"] == []

    @pytest.mark.parametrize(
        "points",
        [[(0.7826210707760615, 0.027505638378840867, -5.286509211094206)], random15_points()],
        ids=["kc5e21", "random15"],
    )
    def test_no_false_fail_from_normalization_rounding(self, points):
        # rows whose c_n were rounded to doubles one by one left their
        # vanishing sums at about 1e-16 of the norms, which the scale
        # Kc / (pref_i pref_j) lifts past the tolerance: 29 false `fail`s at
        # the first point (Kc = 5.5e21), 49 over the 36 random points; c_n
        # from one running product give none
        for q, a, b in points:
            reports = run_identity_checks("big-laguerre", QParams(q=q, a=a, b=b), index_max=8)
            assert [r.indices for r in reports if r.status == "fail"] == [], (q, a, b)

    def test_rejects_negative_degrees(self):
        # a negative degree must not wrap to the last entry of a row
        with pytest.raises(DomainError):
            verify_record("big-laguerre", -1, 0, P1)
        with pytest.raises(DomainError):
            verify_record("big-laguerre", 0, -2, P1)


class TestSears:
    @pytest.mark.parametrize("p", PARAMS, ids=["p1", "p2"])
    def test_identity(self, p):
        r = verify_record("sears", 0, 0, p)
        assert r.status == "pass"
        assert r.residual <= 1e-10 * (1 + abs(r.rhs))
        assert "agrees" in r.note

    def test_cross_check_that_cannot_be_formed_costs_its_record(self):
        # at q = 0.998 the cross-check's 2phi1 runs past 10000 terms: the
        # record is inconclusive, with an infinite tail and the cause in its
        # note, and its sum and closed form are those it reads
        r = verify_record("sears", 0, 0, QParams(q=0.998, a=0.5, b=-0.7))
        assert (r.status, r.tail_estimate) == ("inconclusive", math.inf)
        assert r.note == "cross-check not formed: basic series did not converge within 10000 terms"
        assert math.isfinite(r.lhs) and math.isfinite(r.rhs) and r.terms_used > 0

    def test_both_partial_sums_positive(self):
        # each branch sum is positive (weights and squares positive), so
        # its M is its value
        from qortho.orthogonality import _N_CAP, _bilinear_sum, _Store

        store = _Store(P1, 0)
        for rows in store.rows.values():
            entry = lambda n: rows.at(n)[0]  # noqa: E731
            val, _, _, total = _bilinear_sum(entry, entry, store.rel_tol, _N_CAP, store.context, "a term", store.p)
            assert val > 0
            assert total == pytest.approx(float(val), rel=1e-14)

    @pytest.mark.parametrize("p", [P1, QParams(q=0.9, a=0.9, b=-0.5)], ids=["p1", "q0.9"])
    def test_sweep_record_is_big_laguerre_00(self, p):
        # sears reads the sweep store's rows at big-laguerre's (0, 0)
        # scale; P_0 = 1 on every row, so the standalone record, which reads
        # rows of degree 0 only, has the same bits
        from qortho.orthogonality import _Store

        store = _Store(p, 8)
        (sweep,) = run_identity_checks("sears", p, index_max=8, store=store)
        assert sweep == verify_record("sears", 0, 0, p)
        r00 = run_identity_checks("big-laguerre", p, index_max=8, store=store)[0]
        assert r00.indices == (0, 0)
        assert (sweep.lhs, sweep.terms_used, sweep.tail_estimate) == (r00.lhs, r00.terms_used, r00.tail_estimate)


class TestUnitarity:
    def test_columns_diagonal(self):
        r = verify_record("unitarity-columns", 0, 0, P1)
        assert r.status == "pass"
        assert r.lhs == pytest.approx(1.0, abs=1e-8)

    def test_columns_cross_branch(self):
        r = verify_record("unitarity-columns", 0, -1, P1)
        assert r.status == "pass"
        assert abs(r.lhs) <= 1e-8

    def test_rows_diagonal(self):
        r = verify_record("unitarity-rows", 0, 0, P1)
        assert r.status == "pass"
        assert r.lhs == pytest.approx(1.0, abs=1e-8)

    def test_rows_rejects_negative_index(self):
        with pytest.raises(DomainError):
            verify_record("unitarity-rows", -1, 0, P1)

    @pytest.mark.parametrize("p", [P1, extended_params(*P2)], ids=["float", "decimal"])
    def test_store_reads_recurrence_in_its_own_context(self, p):
        # the recurrence coefficients have no decimal context of their own:
        # after a sweep run from the thread's context, the store's entries
        # are those formed on p's exact Decimals in the store's context.  At
        # index-max 16 the entries of the decimal point need more than the
        # 28 digits of the thread's default context
        from qortho.orthogonality import _Store
        from qortho.polynomials import _context_of, _recurrence_entries

        store = _Store(p, 16)
        run_identity_checks("unitarity", p, 16, store=store)
        assert len(store.recurrence) == 16
        with decimal.localcontext(_context_of(p)):
            exact = QParams(*map(decimal.Decimal, p))
            want = list(itertools.islice(_recurrence_entries(exact), 16))
        assert store.recurrence == want

    @pytest.mark.parametrize("p", PARAMS, ids=["p1", "p2"])
    def test_equivalence_with_orthogonality(self, p):
        # rows-unitarity and the q-integral orthogonality state the same
        # identity up to the exact scale pref_i pref_j / Kc; they must
        # agree on pass/fail, and their residuals must coincide within
        # 1e-10 of the identity's natural scale once the rescaling is
        # removed.
        from qortho.operators import _prefactor_entries
        from qortho.orthogonality import _kc

        prefs = [float(pref) for pref in itertools.islice(_prefactor_entries(p), 4)]
        for i, j in [(0, 0), (1, 0), (2, 2), (3, 1)]:
            rows = verify_record("unitarity-rows", i, j, p)
            orth = verify_record("big-laguerre", i, j, p)
            assert rows.passed == orth.passed
            scale = prefs[i] * prefs[j] / _kc(p)
            assert abs(rows.residual / scale - orth.residual) <= 1e-10 * (
                1 + abs(orth.lhs) + abs(orth.rhs)
            )


class TestDualOrthogonality:
    def test_ff_diagonal_against_normalization(self):
        r = verify_record("dual-ff", 0, 0, P1)
        assert r.status == "pass"
        assert r.lhs == pytest.approx(normalization_c(0, P1) ** -2, rel=1e-8)

    def test_gg_diagonal_against_normalization(self):
        r = verify_record("dual-gg", 2, 2, P1)
        assert r.status == "pass"
        assert r.lhs == pytest.approx(normalization_cprime(2, P1) ** -2, rel=1e-8)

    def test_gg_off_diagonal(self):
        r = verify_record("dual-gg", 0, 1, P1)
        assert r.status == "pass"
        assert abs(r.lhs) <= 1e-8

    @pytest.mark.parametrize("n,n2", [(0, 0), (2, 1), (5, 5), (3, 0)])
    def test_fg_vanishes(self, n, n2):
        r = verify_record("dual-fg", n, n2, P1)
        assert r.status == "pass"
        assert abs(r.lhs) <= 1e-8

    @pytest.mark.parametrize("p", PARAMS, ids=["p1", "p2"])
    def test_dual_weight_is_squared_prefactor(self, p):
        # the dual weight (aq,bq;q)_m / ((q;q)_m (-abq^2)^m) q^(-m(m-1)/2)
        # is positive, and it is pref_m^2, the square of the prefactor that
        # the store's columns carry, so the dual-* sums read it
        from qortho.operators import _prefactor_entries

        q, a, b = p.q, p.a, p.b
        for m, pref in enumerate(itertools.islice(_prefactor_entries(p), 13)):
            w = (
                q_pochhammer(a * q, q, m)
                * q_pochhammer(b * q, q, m)
                / (q_pochhammer(q, q, m) * (-a * b * q * q) ** m)
                * q ** (-m * (m - 1) / 2.0)
            )
            assert w > 0
            assert float(pref) ** 2 == pytest.approx(w, rel=1e-12), m

    def test_terms_match_literal_weighted_sum(self):
        # the products of the store's column entries must equal the literal
        # weight w_m = (aq,bq;q)_m/((q;q)_m(-abq^2)^m) q^(-m(m-1)/2) times
        # f_n(q^-m) f_n'(q^-m) computed independently at small m
        from qortho.orthogonality import _Store
        from qortho.routes import dual_f

        p, n, n2 = P1, 1, 2
        store = _Store(p, 0)
        q, a, b = p.q, p.a, p.b
        for m in range(10):
            w = (
                q_pochhammer(a * q, q, m)
                * q_pochhammer(b * q, q, m)
                / (q_pochhammer(q, q, m) * (-a * b * q * q) ** m)
                * q ** (-m * (m - 1) / 2.0)
            )
            assert w > 0
            literal = w * dual_f(n, m, p) * dual_f(n2, m, p)
            engine = float(store.column(n).at(m)[0] * store.column(n2).at(m)[0])
            assert engine == pytest.approx(literal, rel=1e-10)


class TestMeixnerOrthogonality:
    def test_diagonal_n0(self):
        from qortho.qseries import q_pochhammer_inf

        r = verify_record("meixner", 0, 0, P1)
        want = q_pochhammer_inf(P1.b / P1.a, P1.q) / q_pochhammer_inf(P1.b * P1.q, P1.q)
        assert r.status == "pass"
        assert r.lhs == pytest.approx(want, rel=1e-9)

    def test_off_diagonal(self):
        r = verify_record("meixner", 0, 3, P1)
        assert r.status == "pass"
        assert abs(r.lhs) <= 1e-9

    def test_rhs_positive_for_all_n(self):
        for n in range(9):
            r = verify_record("meixner", n, n, P1)
            assert r.rhs > 0

    def test_negb_diagonal_n0(self):
        from qortho.qseries import q_pochhammer_inf

        r = verify_record("meixner-negb", 0, 0, P1)
        want = q_pochhammer_inf(P1.a / P1.b, P1.q) / q_pochhammer_inf(P1.a * P1.q, P1.q)
        assert r.status == "pass"
        assert r.lhs == pytest.approx(want, rel=1e-9)
        assert want > 0  # a/b < 0 makes every product factor exceed 1

    def test_negb_off_diagonal(self):
        r = verify_record("meixner-negb", 1, 2, P1)
        assert r.status == "pass"
        assert abs(r.lhs) <= 1e-9

    def test_negb_is_parameter_swap_of_meixner(self):
        # swapping (a, b) -> (b, a) swaps the two spectral branches, so the
        # negative-parameter sum reads the b-branch labels -n-1, -n2-1
        # where meixner reads the a-branch labels n, n2
        from qortho.orthogonality import _Store

        store = _Store(P1, 0)
        negb = verify_record("meixner-negb", 1, 2, P1)
        assert (negb.lhs, negb.terms_used, negb.tail_estimate) == store.label_sum(-2, -3)[:3]
        meixner = verify_record("meixner", 1, 2, P1)
        assert (meixner.lhs, meixner.terms_used, meixner.tail_estimate) == store.label_sum(1, 2)[:3]


class TestEqZeroIdentity:
    def test_n0_is_eq_at_minus_one(self):
        # the (0,0) case is the q-exponential series at its first zero
        r = verify_record("eq-zero", 0, 0, P1)
        assert r.status == "pass"
        assert abs(r.lhs) <= 1e-9
        assert "E_q" in r.note

    @pytest.mark.parametrize("n,n2", [(1, 0), (2, 3), (5, 5), (0, 4)])
    def test_vanishes(self, n, n2):
        r = verify_record("eq-zero", n, n2, P1)
        assert r.status == "pass"
        assert abs(r.lhs) <= 1e-9


class TestMeixnerCrossRoute:
    # the three q-Meixner families read the label sums of the duality
    # route; the reference takes the other route, the q-Meixner weights
    # and the terminating 2phi1 M_n(q^-m) at 60 digits, over the record's
    # own terms
    REF_DPS = 60

    def reference(self, p):
        """(record) -> (sum of its terms, sum of their magnitudes), with
        the weights and q-Meixner values kept across records; call inside
        workdps(REF_DPS)."""
        import mpmath

        from qortho.polynomials import q_meixner

        q, a, b = (mpmath.mpf(x) for x in (p.q, p.a, p.b))

        def meixner_weight(first, second):
            # the weight of M_n(q^-m; first, -second/first; q), b < 0 included:
            # (first q;q)_m (-second/first)^m q^(m(m-1)/2) / ((second q;q)_m (q;q)_m)
            return functools.cache(
                lambda m: mpmath.qp(first * q, q, m)
                * (-second / first) ** m
                * q ** (m * (m - 1) // 2)
                / (mpmath.qp(second * q, q, m) * mpmath.qp(q, q, m))
            )

        weights = {
            "meixner": meixner_weight(a, b),
            "meixner-negb": meixner_weight(b, a),
            "eq-zero": functools.cache(lambda m: (-1) ** m * q ** (m * (m - 1) / 2) / q_pochhammer(q, q, m)),
        }
        values = {
            "a": functools.cache(lambda n, m: q_meixner(n, m, a, -b / a, q)),
            "b": functools.cache(lambda n, m: q_meixner(n, m, b, -a / b, q)),
        }
        sides = {"meixner": ("a", "a"), "meixner-negb": ("b", "b"), "eq-zero": ("a", "b")}

        def ref(r):
            (n, n2), (s1, s2) = r.indices, sides[r.identity_id]
            terms = [weights[r.identity_id](m) * values[s1](n, m) * values[s2](n2, m) for m in range(r.terms_used)]
            return float(mpmath.fsum(terms)), float(mpmath.fsum(terms, absolute=True))

        return ref

    @pytest.mark.parametrize(
        "p",
        [P1, P2, QParams(q=0.9, a=0.9, b=-0.5), QParams(q=0.95, a=0.9, b=-3.0), P_RETRY],
        ids=["p1", "p2", "q0.9", "q0.95", "retry"],
    )
    def test_views_match_meixner_reference(self, p):
        # every lhs, and so every verdict, lies within tol*scale of the
        # reference: no false `fail` is left at these points
        import mpmath

        with mpmath.workdps(self.REF_DPS):
            reference = self.reference(p)
            for fam in ("meixner", "meixner-negb", "eq-zero"):
                for r in run_identity_checks(fam, p):
                    want, _ = reference(r)
                    err = abs(r.lhs - want)
                    assert err <= r.tolerance * (1 + max(abs(r.lhs), abs(r.rhs))), (fam, r.indices, err)
                    assert r.status == "pass", (fam, r.indices)

    def test_no_engine_calls_q_meixner(self, monkeypatch, tmp_path):
        # the q-Meixner 2phi1 stays the independent reference: no verify
        # engine evaluates it, in double or in extended precision, nor does
        # spectrum's truncation radius; table's "series" rows, four at
        # index-max 1, are the one command that does
        import sys

        from qortho import cli

        calls = []
        for name, mod in list(sys.modules.items()):
            if name.startswith("qortho") and hasattr(mod, "q_meixner"):
                def counted(*args, _inner=mod.q_meixner, **kwargs):
                    calls.append(args)
                    return _inner(*args, **kwargs)

                monkeypatch.setattr(mod, "q_meixner", counted)
        for p in (P1, P_RETRY):
            assert run_identity_checks("all", p)
            assert extended_reports(("all",), p.q, p.a, p.b, 3)
        assert calls == []
        out = str(tmp_path / "out.json")
        assert cli.main(["spectrum", "--dim", "250", "--out", out, "--no-timestamp"]) == 0
        assert calls == []
        assert cli.main(["table", "--index-max", "1", "--out", out, "--no-timestamp"]) == 0
        assert len(calls) == 4


class TestBiorthogonality:
    def test_diagonal(self):
        for label in [0, 2, -1]:
            r = verify_record("biortho", label, label, P1)
            assert r.status == "pass"
            assert r.lhs == pytest.approx(1.0, abs=1e-8)

    def test_cross_branch(self):
        r = verify_record("biortho", 0, -1, P1)
        assert r.status == "pass"
        assert abs(r.lhs) <= 1e-8

    def test_same_branch_off_diagonal(self):
        r = verify_record("biortho", 2, 1, P1)
        assert r.status == "pass"
        assert abs(r.lhs) <= 1e-8


class TestReports:
    def test_pass_iff_residual_bound_on_certified_reports(self):
        # the bound is tolerance max(|rhs|, M), M that of the record's sum
        from qortho.orthogonality import _Store

        store = _Store(P1, 3)
        for r in run_identity_checks("meixner", P1, index_max=3, store=store):
            scale = max(abs(r.rhs), store.label_sum(*r.indices)[3])
            assert r.tail_estimate <= r.tolerance * scale  # certified
            assert r.passed == (r.residual <= r.tolerance * scale)
            assert r.status == ("pass" if r.passed else "fail")

    @pytest.mark.parametrize(
        "index_max, tolerance",
        [(-1, 1e-8), (2, float("inf")), (2, 0.0), (2, -1e-8), (2, float("nan"))],
        ids=["negative-index-max", "inf-tol", "zero-tol", "negative-tol", "nan-tol"],
    )
    def test_library_entries_reject_what_the_cli_rejects(self, index_max, tolerance):
        # a negative index-max gave no records (an IndexError for sears); an
        # infinite tolerance passed every record unchecked, and a zero,
        # negative or nan one made every record inconclusive
        for fam in ("sears", "all"):
            with pytest.raises(DomainError):
                run_identity_checks(fam, P1, index_max, tolerance)
        if index_max >= 0:
            with pytest.raises(DomainError, match="tolerance must be positive and finite"):
                verify_record("sears", 0, 0, P1, tolerance)

    def test_determinism(self):
        a = run_identity_checks("dual", P1, index_max=3)
        b = run_identity_checks("dual", P1, index_max=3)
        assert a == b

    def test_rows_sweep_matches_standalone(self):
        # the sweep shares one store's rows across all pairs; a standalone
        # call builds its own, with K = max(i, j), and since row n reads
        # the forward route up to degree n and the duality closed form
        # above, no entry depends on K
        reports = run_identity_checks("unitarity", P2, index_max=5)
        sweep = [r for r in reports if r.identity_id == "unitarity-rows"]
        assert len(sweep) == 21
        for r in sweep:
            assert r == verify_record("unitarity-rows", *r.indices, P2), r.indices

    @pytest.mark.parametrize("p", [P1, QParams(q=0.95, a=0.5, b=-0.01)], ids=["p1", "q0.95-small-b"])
    def test_verify_record_reproduces_every_sweep_record(self, p):
        # one record alone, on a store of K = max(i, j, 0), has the bits of
        # the sweep's record, for every cell of all 11 ids
        records = run_identity_checks("all", p, 3)
        assert len(records) == 165
        assert {r.identity_id for r in records} == set(RECORD_IDS)
        for r in records:
            assert verify_record(r.identity_id, *r.indices, p) == r, (r.identity_id, r.indices)

    def test_verify_record_rejects_unknown_ids_and_cells(self):
        # a family name is not a record id, and sears has the one cell (0, 0)
        for identity_id in ("dual", "unitarity", "nope"):
            with pytest.raises(DomainError, match="unknown identity id"):
                verify_record(identity_id, 0, 0, P1)
        with pytest.raises(DomainError, match="sears"):
            verify_record("sears", 1, 0, P1)

    def test_unitarity_independent_of_history(self):
        # the basis-index families each build their own store, so a
        # record must not depend on which of them ran before in the process
        families = ("unitarity", "dual", "biortho")
        cold = {fam: run_identity_checks(fam, P2, index_max=3) for fam in families}
        for fam in families:
            assert run_identity_checks(fam, P2, index_max=3) == cold[fam]
        for fam in reversed(families):
            for other in families:
                if other != fam:
                    run_identity_checks(other, P2, index_max=3)
            assert run_identity_checks(fam, P2, index_max=3) == cold[fam]

    def test_extended_records_independent_of_a_double_run(self):
        # a double-precision run of the same point leaves nothing that an
        # extended run reads
        for families in (("dual",), ("unitarity",), ("biortho",), ("eq-zero",), LABEL_FAMILIES):
            cold = extended_reports(families, 0.5, 0.5, -0.7, 3)
            for fam in families:
                run_identity_checks(fam, P1, index_max=3)
            assert extended_reports(families, 0.5, 0.5, -0.7, 3) == cold, families

    def test_sums_leave_in_the_parameters_scalars(self):
        # the Decimal kernels hand a sum, and a normalization constant, back
        # once: the Decimal itself for Decimal parameters, a float for float
        # ones
        from qortho.orthogonality import _Store
        from qortho.qseries import _working_context

        for p, dps in literal_reference_points(P1):
            kind = decimal.Decimal if dps > 30 else float
            store = _Store(p, 1)
            assert store.context is _working_context(dps)
            values = [
                store.label_sum(0, -2)[0],
                store.row_sum(0, 1)[0],
                store.label_c(-2),
                normalization_c(3, p),
            ]
            assert [type(v) for v in values] == [kind] * 4, values

    def test_extended_standalone_records_match_sweep(self):
        # verify_record on Decimal parameters forms the closed forms and
        # verdict in its store's decimal context, as the sweep does: run in a
        # caller's context of 5 digits, it gives the sweep's record of every id
        p = extended_params(0.5, 0.5, -0.7)
        records = run_identity_checks("all", p, index_max=2)
        assert {r.identity_id for r in records} == set(RECORD_IDS)
        with decimal.localcontext(prec=5, rounding=decimal.ROUND_FLOOR):
            for r in records:
                assert r == verify_record(r.identity_id, *r.indices, p), (r.identity_id, r.indices)

    def test_extended_meixner_sums_keep_extended_accuracy(self):
        # at Decimal parameters the store's columns and rows form their
        # entries at 50 digits and add the products exactly: every sum of
        # the six label-sum families that vanishes exactly comes out at
        # the 50-digit rounding level.  The rows' terms decay only
        # geometrically, so their vanishing sums come out at the level of
        # the stop target of 1e-20, which bounds their tails and
        # the products in c_n: 7e-23, where float terms left 6e-17
        reports = extended_reports(LABEL_FAMILIES + ("big-laguerre",), 0.5, 0.5, -0.7, 3)
        zeros = [r for r in reports if r.identity_id not in ("unitarity-rows", "big-laguerre") and r.rhs == 0]
        # unitarity-columns and biortho 28 each, dual-ff, dual-gg, meixner
        # and meixner-negb 6 each, dual-fg and eq-zero 16 each
        assert len(zeros) == 2 * 28 + 4 * 6 + 2 * 16
        assert all(abs(r.lhs) < 1e-45 for r in zeros), max(abs(r.lhs) for r in zeros)
        rows = [r for r in reports if r.identity_id in ("unitarity-rows", "big-laguerre") and r.rhs == 0]
        assert len(rows) == 12
        assert all(abs(r.lhs) < 1e-21 for r in rows), max(abs(r.lhs) for r in rows)

    # the q-Meixner sweeps read one store's label sums, and big-laguerre its
    # coefficient rows a_0..a_K(lam_n) of each spectral branch; a
    # standalone call builds its own, so every record must match field for
    # field
    MEIXNER_FAMILIES = ("meixner", "meixner-negb", "eq-zero")
    MEIXNER_DUAL = {"meixner": "dual-ff", "meixner-negb": "dual-gg", "eq-zero": "dual-fg"}

    @pytest.mark.parametrize("family", ["meixner", "meixner-negb", "eq-zero", "big-laguerre"])
    @pytest.mark.parametrize(
        "p",
        PARAMS + [P_RETRY, QParams(q=0.95, a=0.9, b=-3.0)],
        ids=["p1", "p2", "retry", "q0.95"],
    )
    def test_meixner_sweep_matches_standalone(self, family, p):
        sweep = run_identity_checks(family, p, index_max=8)
        assert len(sweep) == (81 if family == "eq-zero" else 45)
        for r in sweep:
            assert r == verify_record(family, *r.indices, p), r.indices
        if family in self.MEIXNER_DUAL:
            # each view's sum is the matching dual sum, bit for bit
            dual = {r.indices: r for r in run_identity_checks("dual", p, index_max=8)
                    if r.identity_id == self.MEIXNER_DUAL[family]}
            for r in sweep:
                d = dual[r.indices]
                assert (r.lhs, r.terms_used, r.tail_estimate) == (d.lhs, d.terms_used, d.tail_estimate)

    def test_eq_zero_retry_sweep_matches_standalone(self):
        # a tolerance below double-precision rounding changes nothing but
        # the verdicts: sweep and standalone records still agree
        sweep = run_identity_checks("eq-zero", P1, index_max=8, tolerance=1e-15)
        assert len(sweep) == 81
        for r in sweep:
            assert r == verify_record("eq-zero", *r.indices, P1, 1e-15), r.indices

    @pytest.mark.parametrize("family", ["unitarity", "biortho"])
    def test_label_constant_sweep_matches_standalone(self, family):
        # the sweep computes each label's normalization constant once
        sweep = [r for r in run_identity_checks(family, P2, index_max=3) if r.identity_id != "unitarity-rows"]
        assert len(sweep) == 36
        for r in sweep:
            if family == "biortho":
                assert r == verify_record("biortho", *r.indices, P2), r.indices
            else:
                assert r == verify_record("unitarity-columns", *r.indices, P2), r.indices

    def test_eq_zero_matches_literal_per_pair_sum(self):
        # at the point of the hardest cancellation every eq-zero record is
        # the dual-fg record of the same pair, bit for bit, verdict included:
        # no pair takes another route
        dual = {
            r.indices: r for r in run_identity_checks("dual", P_RETRY, index_max=8) if r.identity_id == "dual-fg"
        }
        fields = ("lhs", "rhs", "residual", "terms_used", "tail_estimate", "status")
        records = run_identity_checks("eq-zero", P_RETRY, index_max=8)
        assert len(records) == 81
        for r in records:
            d = dual[r.indices]
            assert [getattr(r, f) for f in fields] == [getattr(d, f) for f in fields], r.indices

    def test_big_laguerre_matches_literal_per_pair_sum(self):
        # reference: the per-pair loop over each spectral branch, with the
        # entries c_n a_m(lam_n) built here, apart from any table (forward
        # sweeps for the degrees m <= n, the duality closed form above),
        # each pair's sum, tail and M scaled by Kc / (pref_m pref_m2), and
        # the value an mpf dot product at twice the table's digits of the
        # entries read into mpfs; a table that reads the wrong row, degree
        # or scale fails here, while the sweep-vs-standalone test cannot
        # tell, since both sides share it.  c_n, c'_n and Kc are formed in
        # the table's decimal context on the exact Decimals of p, as the
        # table forms them, and Kc is read as its float for float p
        import itertools

        import mpmath

        from qortho.operators import _a_coeff_logs, _normalization_entries, _prefactor_entries
        from qortho.orthogonality import _N_CAP, _bilinear_sum, _kc
        from qortho.polynomials import _duality_entries, _LazyList, _recurrence_entries
        from qortho.qseries import _working_context

        K = 8
        for p, dps in literal_reference_points(P2):
            context = _working_context(dps)
            prefs = list(itertools.islice(_prefactor_entries(p), K + 1))
            with decimal.localcontext(context):
                pw = QParams(*map(decimal.Decimal, p))
            recurrence = _LazyList(_recurrence_entries(pw))
            norm = {branch: (_normalization_entries(p, branch), []) for branch in "ab"}
            with decimal.localcontext(context):
                kc = _kc(pw)
            kc = kc if isinstance(p.q, decimal.Decimal) else float(kc)

            def c(branch, n):
                source, values = norm[branch]
                while len(values) <= n:
                    values.append(next(source))
                return values[n]

            @functools.cache
            def row(branch, n):
                top = min(n, K)
                c_n = c(branch, n)
                with decimal.localcontext(context):
                    coeffs = _a_coeff_logs(branch, n, top, prefs[: top + 1], pw, recurrence)
                    duality = [pref * v for pref, v in zip(prefs, _duality_entries(p, branch, n))]
                    return [c_n * x for x in coeffs + duality[top + 1 :]]

            def reader(branch, m, out):
                # entry m of the rows of the branch, kept in out as read
                def read(n):
                    out.append(row(branch, n)[m])
                    return out[-1], float(out[-1])

                return read

            def literal(m, m2):
                with decimal.localcontext(context):
                    size = abs(float(decimal.Decimal(kc) / (prefs[m] * prefs[m2])))
                xs, ys, used, tail = [], [], 0, 0.0
                for branch in "ab":
                    readers = reader(branch, m, xs), reader(branch, m2, ys)
                    _, used_b, tail_b, _ = _bilinear_sum(*readers, _stop_target(p.q), _N_CAP, context, "a term", p)
                    used, tail = used + used_b, tail + tail_b
                tail *= size
                with mpmath.workdps(2 * dps):
                    xs, ys = ([mpmath.mpf(str(v)) for v in values] for values in (xs, ys))
                    scale = to_mpf(kc) / (mpmath.mpf(str(prefs[m])) * mpmath.mpf(str(prefs[m2])))
                    terms = [scale * x * y for x, y in zip(xs, ys)]
                    return scale * mpmath.fdot(xs, ys), used, tail, mpmath.fsum(terms, absolute=True)

            reports = run_identity_checks("big-laguerre", p, index_max=K)
            assert len(reports) == 45
            for r in reports:
                value, used, tail, total_abs = literal(*r.indices)
                assert (r.terms_used, r.tail_estimate) == (used, tail), (dps, r.indices)
                assert_within_rounding(r.lhs, value, total_abs, dps, (dps, r.indices))

    def test_basis_index_families_match_literal_per_pair_sum(self):
        # reference: the per-pair loop with the coefficients of both sides
        # built here, apart from any table, each label with its own
        # prefactor iterator, and biortho on the psi/phi prefactors; the
        # value is an mpf dot product at twice the table's digits of the
        # coefficients read into mpfs.  A store that reads a wrong entry
        # fails here, while the sweep-vs-standalone test cannot tell, since
        # both sides share the store
        import mpmath

        from qortho.operators import _pref_a_ratio, _prefactor_entries
        from qortho.representation import _pref_phi_ratio, _pref_psi_ratio
        from qortho.orthogonality import _M_CAP, DEFAULT_TOLERANCE, _bilinear_sum, _record, _Store
        from qortho.polynomials import _duality_entries
        from qortho.qseries import _working_context

        for p, dps in literal_reference_points(QParams(q=0.9, a=0.9, b=-0.5)):

            @functools.cache
            def source(label, ratio):
                spec = ("a", label) if label >= 0 else ("b", -label - 1)
                return _prefactor_entries(p, ratio), _duality_entries(p, *spec), []

            def coeff(label, ratio, m):
                prefs, values, out = source(label, ratio)
                while len(out) <= m:
                    pref, value = next(prefs), next(values)
                    with decimal.localcontext(_working_context(dps)):
                        out.append(pref * value)
                return out[m]

            def reader(label, ratio, out):
                # the ratio's coefficients of the label, kept in out as
                # read, with the float copies of the a_m
                def read(m):
                    out.append(coeff(label, ratio, m))
                    return out[-1], float(coeff(label, _pref_a_ratio, m))

                return read

            def literal(i, j, ratio_i=_pref_a_ratio, ratio_j=_pref_a_ratio):
                # the float terms a_m a_m pick the terms used; the value is
                # the sum of the exact products of the ratios' coefficients,
                # returned with the sum of their magnitudes
                xs, ys = [], []
                readers = reader(i, ratio_i, xs), reader(j, ratio_j, ys)
                _, used, tail, _ = _bilinear_sum(*readers, _stop_target(p.q), _M_CAP, _working_context(dps), "a term", p)
                with mpmath.workdps(2 * dps):
                    xs, ys = ([mpmath.mpf(str(v)) for v in values] for values in (xs, ys))
                    total_abs = mpmath.fsum([x * y for x, y in zip(xs, ys)], absolute=True)
                    return mpmath.fdot(xs, ys), used, tail, total_abs

            @functools.cache
            def c(label):
                return normalization_c(label, p) if label >= 0 else normalization_cprime(-label - 1, p)

            def scaled(i, j, value, used, tail, total_abs):
                # the tail as the record forms it, the rest at twice the digits
                with decimal.localcontext(_working_context(dps)):
                    tail = float(c(i) * c(j)) * tail
                with mpmath.workdps(2 * dps):
                    cc = to_mpf(c(i)) * to_mpf(c(j))
                    return cc * value, used, tail, abs(cc) * total_abs

            reference = {
                "dual-ff": lambda n, n2: literal(n, n2),
                "dual-gg": lambda n, n2: literal(-n - 1, -n2 - 1),
                "dual-fg": lambda n, n2: literal(n, -n2 - 1),
                "unitarity-columns": lambda i, j: scaled(i, j, *literal(i, j)),
                "biortho": lambda i, j: scaled(i, j, *literal(i, j, _pref_psi_ratio, _pref_phi_ratio)),
            }
            # the unitarity-columns records without the sweep's rows, whose
            # normalization constants dominate the time at 50 digits
            store = _Store(p, 4)
            labels = range(-5, 5)
            records = [r for fam in ("dual", "biortho") for r in run_identity_checks(fam, p, index_max=4, store=store)]
            with decimal.localcontext(store.context):
                records += [
                    _record("unitarity-columns", i, j, store, DEFAULT_TOLERANCE)
                    for i in labels
                    for j in labels
                    if i <= j
                ]
            assert len(records) == 165
            for fam in ("dual-gg", "unitarity-columns", "biortho"):
                assert any(r.terms_used > 49 for r in records if r.identity_id == fam), fam
            for r in records:
                value, used, tail, total_abs = reference[r.identity_id](*r.indices)
                assert (r.terms_used, r.tail_estimate) == (used, float(tail)), (dps, r.identity_id, r.indices)
                # biortho's psi_k phi_k equals a_k a_k term for term, but the
                # products of dps-digit factors differ in their last digits,
                # which the bound allows for
                assert_within_rounding(r.lhs, value, total_abs, dps, (dps, r.identity_id, r.indices))

    @pytest.mark.parametrize("p", PARAMS, ids=["p1", "p2"])
    def test_pair_sum_is_symmetric(self, p):
        # the store keeps one label sum per unordered label pair, which is
        # sound only because the sum does not depend on the order
        from qortho.orthogonality import _M_CAP, _bilinear_sum, _Store

        store = _Store(p, 8)

        def label_sum(i, j):
            return _bilinear_sum(store.column(i).at, store.column(j).at, store.rel_tol, _M_CAP, store.context, "a term", p)

        labels = range(-9, 9)
        for i in labels:
            for j in labels:
                if i < j:
                    assert label_sum(i, j) == label_sum(j, i), (i, j)

    def test_store_computes_each_label_pair_sum_once(self, monkeypatch):
        # unitarity-columns, dual, biortho and the three q-Meixner families
        # read one store's sums: the 171 unordered pairs of the 18 labels at
        # index-max 8, each summed once for the 684 records.  A label sum
        # reads two of the store's columns, one list per label
        from qortho import orthogonality

        pairs = []
        bilinear_sum = orthogonality._bilinear_sum

        def counted(u, v, rel_tol, hard_cap, *args):
            if hard_cap == orthogonality._M_CAP:
                pairs.append(frozenset((id(u.__self__), id(v.__self__))))
            return bilinear_sum(u, v, rel_tol, hard_cap, *args)

        monkeypatch.setattr(orthogonality, "_bilinear_sum", counted)
        reports = run_identity_checks("all", P1)
        shared = [r for r in reports if r.identity_id not in ("big-laguerre", "sears", "unitarity-rows")]
        assert len(shared) == 684
        assert len(pairs) == len(set(pairs)) == 171

    def test_store_computes_each_row_pair_sum_once(self, monkeypatch):
        # unitarity-rows, big-laguerre and sears read one store's row sums:
        # the 91 row records at index-max 8 need the 90 sums of 45 pairs,
        # one certified sum per branch each; big-laguerre scales the
        # unitarity-rows sum, and sears reads its (0, 0) sum, so neither
        # sums anything
        from qortho import orthogonality

        calls = []
        bilinear_sum = orthogonality._bilinear_sum

        def counted(u, v, rel_tol, hard_cap, *args):
            if hard_cap == orthogonality._N_CAP:
                calls.append(hard_cap)
            return bilinear_sum(u, v, rel_tol, hard_cap, *args)

        monkeypatch.setattr(orthogonality, "_bilinear_sum", counted)
        reports = run_identity_checks("all", P1)
        rows = [r for r in reports if r.identity_id in ("big-laguerre", "sears", "unitarity-rows")]
        assert len(rows) == 91
        assert len(calls) == 90

    def test_label_entries_computed_once(self, monkeypatch):
        # each sum extends its labels' duality entries, and the shared
        # prefactors, one at a time as it reads them; no entry is computed
        # twice, and the 18 labels need 928 entries, the most any sum reads
        # of each label, where a cut-off doubled from 48 took 1602
        import collections

        from qortho import operators, orthogonality
        from qortho.orthogonality import _Store

        computed = collections.Counter()
        started = collections.Counter()

        def counting(source, key):
            def wrapped(*args):
                started[key(*args)] += 1
                for value in source(*args):
                    computed[key(*args)] += 1
                    yield value

            return wrapped

        entries = counting(operators._duality_entries, lambda p, branch, j: (branch, j))
        prefs = counting(orthogonality._prefactor_entries, lambda p: "pref")
        monkeypatch.setattr(operators, "_duality_entries", entries)
        monkeypatch.setattr(orthogonality, "_prefactor_entries", prefs)
        p = QParams(q=0.9, a=0.9, b=-0.5)
        store = _Store(p, 8)
        run_identity_checks("all", p, store=store)
        pref = "pref"
        assert started[pref] == 1 and computed[pref] == len(store.prefs)
        assert len(store._columns) == 18
        for label, entries in store._columns.items():
            spec = ("a", label) if label >= 0 else ("b", -label - 1)
            assert started[spec] == 1 and computed[spec] == len(entries), label
        assert len(started) == 19
        assert max(map(len, store._columns.values())) == 59
        assert sum(computed.values()) - computed[pref] == 928

    def test_label_coefficient_exact_after_unitarity(self):
        # a_96(lam_4) on both branches at q = 0.95, read from the store's
        # columns after the unitarity sweep asked for the same points at
        # cut-offs 8 and 48; the reference is the terminating 3phi2 at a
        # precision doubled until two runs agree to 40 digits
        import mpmath

        from qortho.operators import _prefactor_entries
        from qortho.orthogonality import _Store

        p = QParams(q=0.95, a=0.9, b=-3.0)
        store = _Store(p, 8)
        run_identity_checks("unitarity", p, store=store)

        def exact(first, dps):
            with mpmath.workdps(dps):
                q, a, b = mpmath.mpf(p.q), mpmath.mpf(p.a), mpmath.mpf(p.b)
                return phi_3_2(q**-96, 0, mpmath.mpf(first) * q**5, a * q, b * q, q, q)

        for label, first in ((4, p.a), (-5, p.b)):
            got = str(store.column(label).at(96)[0])
            dps, prev = 60, exact(first, 60)
            while True:
                dps *= 2
                cur = exact(first, dps)
                with mpmath.workdps(dps):
                    if abs(cur - prev) <= mpmath.mpf(10) ** -40 * abs(cur):
                        break
                prev = cur
            with mpmath.workdps(dps):
                want = mpmath.mpf(str(next(itertools.islice(_prefactor_entries(p), 96, None)))) * cur
                assert abs(mpmath.mpf(got) - want) <= mpmath.mpf(10) ** -20 * abs(want), label

    def test_store_rejects_other_parameters(self):
        # a store holds the rows of one largest index K and one parameter
        # set of one scalar type: a sweep that differs in any builds its own
        from qortho.orthogonality import _Store

        for store in (_Store(P1, 3), _Store(P2, 4)):
            with pytest.raises(ValueError):
                run_identity_checks("dual", P1, index_max=4, store=store)
        assert run_identity_checks("dual", P1, index_max=4, store=_Store(P1, 4))
        # QParams of Decimals equal those of the same floats, yet a float
        # store gives float records at a float stop target
        float_p = QParams(0.5, 0.5, -0.5)
        decimal_p = QParams(*map(decimal.Decimal, ("0.5", "0.5", "-0.5")))
        assert decimal_p == float_p
        with pytest.raises(ValueError):
            run_identity_checks("dual", decimal_p, index_max=1, store=_Store(float_p, 1))
        with pytest.raises(ValueError):
            run_identity_checks("dual", float_p, index_max=1, store=_Store(decimal_p, 1))

    def test_meixner_families_independent_of_history(self):
        cold = {fam: run_identity_checks(fam, P_RETRY, index_max=4) for fam in self.MEIXNER_FAMILIES}
        for fam in self.MEIXNER_FAMILIES:
            assert run_identity_checks(fam, P_RETRY, index_max=4) == cold[fam]
        for fam in reversed(list(self.MEIXNER_FAMILIES)):
            run_identity_checks("dual", P_RETRY, index_max=2)
            assert run_identity_checks(fam, P_RETRY, index_max=4) == cold[fam]

    def test_sorted_by_identity_and_indices(self):
        reports = run_identity_checks("dual", P1, index_max=2)
        keys = [(r.identity_id, r.indices) for r in reports]
        assert keys == sorted(keys)

    def test_unknown_identity_rejected(self):
        with pytest.raises(DomainError):
            run_identity_checks("nope", P1)

    @pytest.mark.parametrize("p", PARAMS, ids=["p1", "p2"])
    def test_full_sweep_small_grid_all_pass(self, p):
        reports = run_identity_checks("all", p, index_max=3)
        assert reports, "sweep produced no reports"
        assert all(r.status == "pass" for r in reports)

    def test_near_degenerate_b_extreme(self):
        # |b| << a inflates the lower-branch norms to ~1e5; the bilinear
        # terms must keep full relative accuracy for the off-diagonal
        # cancellations to reach 1e-8 of their sums' M
        p = QParams(q=0.5, a=0.5, b=-0.01)
        reports = run_identity_checks("all", p, index_max=4)
        assert all(r.status == "pass" for r in reports), [
            (r.identity_id, r.indices) for r in reports if r.status != "pass"
        ]

    def test_slow_decay_base_certifies(self):
        # at q = 0.9 the spectral-index sums contract slowly; the tail
        # certification must still converge rather than go inconclusive
        p = QParams(q=0.9, a=0.8, b=-0.5)
        for r in [
            verify_record("sears", 0, 0, p),
            verify_record("big-laguerre", 1, 1, p),
            verify_record("unitarity-rows", 2, 2, p),
        ]:
            assert r.status == "pass", (r.identity_id, r.status, r.tail_estimate)


def shift_rhs(monkeypatch, identity_ids, shift=1e-6):
    """Make every record of the identity ids given read an rhs shifted by
    shift max(|rhs|, M): a violation of shift / tolerance times the bound
    its verdict reads, whatever the size of its sum."""
    from qortho import orthogonality

    finalize = orthogonality._finalize

    def shifted(identity_id, p, indices, lhs, rhs, used, tail, magnitude, *args):
        if identity_id in identity_ids:
            rhs += shift * max(abs(rhs), magnitude)
        return finalize(identity_id, p, indices, lhs, rhs, used, tail, magnitude, *args)

    monkeypatch.setattr(orthogonality, "_finalize", shifted)


class TestLabelSumVerdicts:
    # the six store families read one set of label sums, added exactly:
    # a `fail` there is a violated identity, not rounding

    @pytest.mark.parametrize("p", [P1, QParams(q=0.9, a=0.9, b=-0.5), P_RETRY], ids=["p1", "q0.9", "retry"])
    def test_broken_identity_fails(self, monkeypatch, p):
        # an rhs shifted by 1e-6 of its record's scale is a real violation:
        # every record of dual and meixner-negb must be `fail`, and the
        # unshifted meixner records, which read the dual-ff sums, still pass
        from qortho.orthogonality import _Store

        shift_rhs(monkeypatch, ("dual-ff", "dual-gg", "dual-fg", "meixner-negb"))
        store = _Store(p, 8)
        broken = [r for fam in ("dual", "meixner-negb") for r in run_identity_checks(fam, p, store=store)]
        assert len(broken) == 45 + 45 + 81 + 45
        assert [r for r in broken if r.status != "fail"] == []
        assert all(r.status == "pass" for r in run_identity_checks("meixner", p, store=store))

    @pytest.mark.parametrize("p", [P1, QParams(q=0.9, a=0.9, b=-0.5), P_RETRY], ids=["p1", "q0.9", "retry"])
    def test_broken_row_identity_fails(self, monkeypatch, p):
        # the twin over the spectral index: the row sums are added exactly
        # too, so every record of unitarity-rows and big-laguerre must be
        # `fail`, and the unshifted sears record, which reads the
        # big-laguerre (0, 0) sum, still passes
        from qortho.orthogonality import _Store

        shift_rhs(monkeypatch, ("unitarity-rows", "big-laguerre"))
        store = _Store(p, 8)
        broken = [r for fam in ("unitarity", "big-laguerre") for r in run_identity_checks(fam, p, store=store)]
        broken = [r for r in broken if r.identity_id in ("unitarity-rows", "big-laguerre")]
        assert len(broken) == 45 + 45
        assert [r for r in broken if r.status != "fail"] == []
        assert [r.status for r in run_identity_checks("sears", p, store=store)] == ["pass"]

    @pytest.mark.parametrize(
        "p",
        [
            QParams(q=0.9, a=0.9, b=-0.5),
            P_RETRY,
            QParams(q=0.95, a=0.9, b=-3.0),
            QParams(q=0.3, a=0.999 / 0.3, b=-0.01),
        ],
        ids=["q0.9", "retry", "q0.95", "a-edge"],
    )
    def test_edge_of_domain_store_families_never_fail(self, p):
        """The six families of the label sums, with unitarity-rows and
        big-laguerre.  sears still gives a known false `fail` at
        (0.95, 0.9, -3.0): its 1e-11 basic-series cross-check sees the
        truncation error of the float kernels."""
        from qortho.orthogonality import _Store

        store = _Store(p, 8)
        families = ("big-laguerre",) + LABEL_FAMILIES
        reports = [r for fam in families for r in run_identity_checks(fam, p, store=store)]
        assert len(reports) == 45 + 45 + 171 + 171 + 45 + 45 + 81 + 171
        assert [(r.identity_id, r.indices) for r in reports if r.status == "fail"] == []

    def test_edge_of_domain_negb_small_b_near_q_one(self):
        # the terms of this vanishing sum reach 1e82, so 32-digit duality
        # coefficients leave an lhs far from 0; it is about 1e-20 of the
        # sum's M, a pass, where an absolute scale called it `fail`
        p = QParams(q=0.95, a=0.5, b=-0.01)
        assert verify_record("meixner-negb", 0, 1, p).status != "fail"

    def test_tiny_q_dual_fg_cancellation(self):
        # dual-fg (1, 1) adds 14 terms up to 1e30 whose sum vanishes, and
        # the rounding of the 32-digit entries leaves lhs -0.0233, 2e-32 of
        # the largest term.  An absolute scale gave 240 false fails here at
        # index-max 8 (dual-fg and eq-zero 64 each, dual-ff, dual-gg,
        # meixner and meixner-negb 28 each)
        p = QParams(q=1e-30, a=0.5, b=-0.7)
        assert verify_record("dual-fg", 1, 1, p).status == "pass"


class TestVerdictScale:
    # every verdict reads its sum's own scale max(|rhs|, M), M the sum of
    # the magnitudes of the terms used; these tests show that the scale
    # keeps the records' teeth and leaves no false `fail`

    def test_seeded_grid_all_pass(self):
        # 60 points over the domain: q, a q down to 1e-4 and up to 0.99999,
        # |b| from 1e-4 to 1e4.  The absolute scale 1 + max(|lhs|, |rhs|)
        # gave 1387 `fail` and 155 `inconclusive` records at 15 of them
        import math
        import random

        rng = random.Random(7)
        for _ in range(60):
            q = rng.uniform(0.01, 0.97)
            aq = 10 ** rng.uniform(-4, math.log10(0.99999))
            b = -(10 ** rng.uniform(-4, 4))
            reports = run_identity_checks("all", QParams(q=q, a=aq / q, b=b), 8)
            assert len(reports) == 775
            assert [(r.identity_id, r.indices, r.status) for r in reports if r.status != "pass"] == [], (q, aq / q, b)

    @pytest.mark.parametrize("p", [P1, QParams(q=0.95, a=0.5, b=-0.01)], ids=["p1", "q0.95-small-b"])
    def test_shifted_rhs_fails_every_record(self, monkeypatch, p):
        shift_rhs(monkeypatch, set(r.identity_id for r in run_identity_checks("all", p)))
        reports = run_identity_checks("all", p)
        assert len(reports) == 775
        assert [(r.identity_id, r.indices) for r in reports if r.status != "fail"] == []

    def test_mutated_normalization_fails_row_records(self, monkeypatch):
        # c_3 off by 1e-6 inside the running product of the a-branch: row
        # 3 of the connection matrix moves, and 43 of the 45 records of
        # unitarity-rows and of big-laguerre see it (the absolute scale
        # failed 39 and 2)
        from qortho import orthogonality

        entries = orthogonality._normalization_entries

        def mutated(p, branch):
            for n, c in enumerate(entries(p, branch)):
                yield c * decimal.Decimal("1.000001") if (branch, n) == ("a", 3) else c

        monkeypatch.setattr(orthogonality, "_normalization_entries", mutated)
        reports = run_identity_checks("all", P1)
        for identity_id in ("unitarity-rows", "big-laguerre"):
            failed = [r for r in reports if r.identity_id == identity_id and r.status == "fail"]
            assert len(failed) >= 43, identity_id

    def test_big_laguerre_diagonals_match_closed_form(self):
        # every diagonal is within 1e-12 of its closed-form norm h_m, where
        # the absolute scale passed lhs 7.1e-5 off h_6 and 6.8e-6 off h_8
        reports = run_identity_checks("big-laguerre", P1)
        diagonals = [r for r in reports if r.indices[0] == r.indices[1]]
        assert len(diagonals) == 9
        for r in diagonals:
            assert r.status == "pass" and r.residual <= 1e-12 * abs(r.rhs), (r.indices, r.residual / r.rhs)

    @pytest.mark.xfail(
        strict=True,
        reason="the float copy of M underflows at q = 1e-100, so the verdict bound tol max(|rhs|, M) is 0 "
        "and a Decimal residual below the float range fails",
    )
    def test_extended_big_laguerre_tiny_q_bound_underflow(self):
        # the double run at the same point passes all six records; at 50
        # digits (1, 2) and (2, 2) come out `fail` with lhs, rhs, residual
        # and tail all 0.0 as floats
        p = extended_params(1e-100, 0.5, -0.7)
        assert all(r.passed for r in run_identity_checks("big-laguerre", QParams(1e-100, 0.5, -0.7), 2))
        reports = run_identity_checks("big-laguerre", p, 2)
        assert [(r.indices, r.status) for r in reports if r.status != "pass"] == []


# each named side and scale of the record table, and the records that fail
# when it alone is off by 1e-6 of itself; the side 0 of eq-zero (and of
# dual-fg, whose labels never meet) has no relative perturbation, and an
# additive one is `shift_rhs`'s
MUTATION_ROWS = {
    "_big_laguerre_norm": {"big-laguerre": 4},
    "_kc_over_prefs": {"big-laguerre": 4, "sears": 1},
    "_sears_product": {"sears": 1},
    "_inverse_c_squared": {"dual-ff": 4, "dual-gg": 4},
    "_meixner_norm": {"meixner": 4, "meixner-negb": 4},
    "_c_product": {"unitarity-columns": 8, "biortho": 8},
    "_delta": {"unitarity-rows": 4, "unitarity-columns": 8, "biortho": 8},
}


class TestMutationMatrix:
    # the first rows of a mutation matrix: each closed form and scale that a
    # record reads, scaled by 1 + 1e-6 in every row of `_RECORDS` that
    # names it, must fail exactly the records pinned here, and nothing
    # fails unmutated

    @pytest.mark.parametrize("p", [P1, QParams(q=0.95, a=0.5, b=-0.01)], ids=["p1", "q0.95-small-b"])
    def test_unmutated_table_fails_nothing(self, p):
        assert [(r.identity_id, r.indices) for r in run_identity_checks("all", p, 3) if r.status != "pass"] == []

    @pytest.mark.parametrize("p", [P1, QParams(q=0.95, a=0.5, b=-0.01)], ids=["p1", "q0.95-small-b"])
    @pytest.mark.parametrize("target", MUTATION_ROWS)
    def test_mutated_closed_form_fails_its_records(self, monkeypatch, p, target):
        import collections

        from qortho import orthogonality

        original = getattr(orthogonality, target)

        def mutated(*args):
            return original(*args) * (1 + 1e-6)

        rows = {identity_id: row for identity_id, row in orthogonality._RECORDS.items() if original in row}
        assert rows, target
        for identity_id, row in rows.items():
            monkeypatch.setitem(orthogonality._RECORDS, identity_id, tuple(mutated if f is original else f for f in row))
        reports = run_identity_checks("all", p, 3)
        failed = collections.Counter(r.identity_id for r in reports if r.status == "fail")
        assert failed == MUTATION_ROWS[target]
        assert all(r.status == "pass" for r in reports if r.identity_id not in failed)


# the records at index-max 8 that lie farther from the 50-digit truth than
# their tail_estimate plus the rounding of a double, per record id: each
# lies within 1.3 times that allowance, the undershoot of `_bilinear_sum`'s
# geometric tail estimate
ORACLE_MISSES = {
    (0.5, 0.5, -0.7): {},
    (0.95, 0.5, -0.01): {"big-laguerre": 36},
    (0.7, 0.9, -0.4): {},
    (0.97, 0.9, -0.5): {"big-laguerre": 40, "sears": 1, "unitarity-rows": 16},
    (0.9, 0.5, -1e4): {"big-laguerre": 36},
}


def oracle_truths(p: QParams) -> dict:
    """Record id -> the true value of its cell (i, j), formed in mpmath
    from the exact binary values of p and read in a context of 50 digits:
    h_i delta_ij (big-laguerre), Kc (sears), delta_ij (unitarity, biortho),
    delta_ij / c_i^2 (dual-ff, meixner), delta_ij / c'_i^2 (dual-gg,
    meixner-negb) and 0 (dual-fg, eq-zero).  Each infinite product is
    formed on its first read, to as many factors as it needs."""
    mp = pytest.importorskip("mpmath")
    q, a, b = map(mp.mpf, p)

    def qp(x, n=None):
        # mpmath stops an infinite product at 50 factors per bit of
        # precision, short of the 12 600 that q = 0.99 needs at 50 digits
        return mp.qp(x, q, n, maxterms=10**6)

    @functools.cache
    def kc():
        return qp(q) * qp(b / a) * qp(a * q / b) / (qp(a * q) * qp(b * q))

    def h(m):
        weight = qp(q, m) / (qp(a * q, m) * qp(b * q, m))
        return kc() * weight * (-a * b) ** m * q ** (m * (m + 3) // 2)

    @functools.cache
    def c0_squared(first, second):
        return qp(second * q) / qp(second / first)

    def inverse_c_squared(first, second, n):
        # c_n^2 = c_0^2 (first q; q)_n q^n / ((first q/second; q)_n (q; q)_n)
        return qp(first * q / second, n) * qp(q, n) / (c0_squared(first, second) * qp(first * q, n) * q**n)

    return {
        "big-laguerre": lambda i, j: h(i) if i == j else 0,
        "sears": lambda i, j: kc(),
        "unitarity-rows": lambda i, j: int(i == j),
        "unitarity-columns": lambda i, j: int(i == j),
        "biortho": lambda i, j: int(i == j),
        "dual-ff": lambda i, j: inverse_c_squared(a, b, i) if i == j else 0,
        "meixner": lambda i, j: inverse_c_squared(a, b, i) if i == j else 0,
        "dual-gg": lambda i, j: inverse_c_squared(b, a, i) if i == j else 0,
        "meixner-negb": lambda i, j: inverse_c_squared(b, a, i) if i == j else 0,
        "dual-fg": lambda i, j: 0,
        "eq-zero": lambda i, j: 0,
    }


# one sweep per point serves every test of TestOracle: at (0.97, 0.9, -0.5)
# a sweep and its 775 truths take about 4 s
@functools.cache
def oracle_ratios(p: QParams, index_max: int = 8):
    """(record id, indices, ratio) of each record of `verify` at p: its
    distance from its true value (`oracle_truths`) over its allowance
    tail_estimate + 4e-16 max(|rhs|, 1)."""
    mp = pytest.importorskip("mpmath")

    truths = oracle_truths(p)
    reports = run_identity_checks("all", p, index_max)
    assert len(reports) == 775 and {r.identity_id for r in reports} == set(truths)
    with mp.workdps(50):
        return [
            (
                r.identity_id,
                r.indices,
                float(abs(mp.mpf(r.lhs) - truths[r.identity_id](*r.indices)))
                / (r.tail_estimate + 4e-16 * max(abs(r.rhs), 1)),
            )
            for r in reports
        ]


def oracle_misses(p: QParams):
    """The Counter, by record id, of the records of `verify` at p that lie
    farther from their true value than their allowance (`oracle_ratios`)."""
    import collections

    return collections.Counter(identity_id for identity_id, _, ratio in oracle_ratios(p) if ratio > 1)


# the in-domain points where verify once exited 70 with no record, each
# with its --index-max: a term of a sum past the float range at q = 0.999
# and at q = 1e-30 with --index-max 11, c'_0 at (0.99, 1.0, -0.001), and Kc
# at (0.9, 0.5, -1e-6) and b = -1e300
FLOAT_RANGE_POINTS = [
    ((0.999, 0.5, -0.7), 8),
    ((0.99, 1.0, -0.001), 8),
    ((0.9, 0.5, -1e-6), 8),
    ((0.5, 0.5, -1e300), 8),
    ((1e-30, 0.5, -0.7), 11),
]


class TestOracle:
    @pytest.mark.parametrize(
        "params",
        [
            pytest.param(
                params,
                marks=pytest.mark.xfail(
                    strict=True,
                    reason=f"{sum(misses.values())} of 775 records lie farther from the 50-digit truth than their "
                    "tail_estimate: the geometric tail estimate of a sum undershoots its remainder",
                ),
            )
            for params, misses in ORACLE_MISSES.items()
            if misses
        ],
        ids=str,
    )
    def test_every_record_within_its_bound(self, params):
        assert oracle_misses(QParams(*params)) == {}

    @pytest.mark.parametrize("params", list(ORACLE_MISSES), ids=str)
    def test_no_more_misses_than_pinned(self, params):
        misses = oracle_misses(QParams(*params))
        pinned = ORACLE_MISSES[params]
        assert all(count <= pinned.get(identity_id, 0) for identity_id, count in misses.items()), misses

    @pytest.mark.parametrize("params", list(ORACLE_MISSES), ids=str)
    def test_every_record_within_one_and_a_half_bounds(self, params):
        # c_n, c'_n and Kc exact to the store's rounding: what a miss leaves
        # is the undershoot of a tail estimate, not the error of a constant
        worst = max(oracle_ratios(QParams(*params)), key=lambda record: record[2])
        assert worst[2] <= 1.5, worst

    @pytest.mark.parametrize("params, index_max", FLOAT_RANGE_POINTS, ids=str)
    def test_every_pass_beside_the_float_range_within_its_bound(self, monkeypatch, params, index_max):
        # at each point some sum, constant or closed form leaves the float
        # range and costs the records that read it; every record that
        # still passes must lie within its verdict bound tol max(|rhs|, M)
        # of its 50-digit truth, as a float holds it: at q = 1e-30 the norm
        # h_4 = 3.6e-422 of big-laguerre (4, 4) reads 0.0, as do its sides
        import mpmath

        from qortho import orthogonality

        bounds = {}
        finalize = orthogonality._finalize

        def kept_bound(identity_id, p, indices, lhs, rhs, terms, tail, magnitude, tolerance, note=""):
            bounds[identity_id, indices] = tolerance * max(float(abs(rhs)), magnitude)
            return finalize(identity_id, p, indices, lhs, rhs, terms, tail, magnitude, tolerance, note)

        monkeypatch.setattr(orthogonality, "_finalize", kept_bound)
        p = QParams(*params)
        truths = oracle_truths(p)
        reports = run_identity_checks("all", p, index_max)
        assert len(reports) == len(bounds) == {8: 775, 11: 1357}[index_max]
        assert all(r.status != "fail" for r in reports)
        with mpmath.workdps(50):
            for r in reports:
                if r.passed:
                    miss = abs(mpmath.mpf(r.lhs) - float(truths[r.identity_id](*r.indices)))
                    assert miss <= bounds[r.identity_id, r.indices], r


class TestConstantsAtStorePrecision:
    # c_n, c'_n and Kc formed on the exact Decimals of p at the store's
    # precision, their infinite products exact to its rounding, so no error
    # of theirs decides a verdict, at --tol 1e-11 or 1e-12
    @pytest.mark.parametrize(
        "params, tolerance, failing",
        [
            ((0.95, 0.5, -0.01), 1e-11, {}),
            ((0.97, 0.9, -0.5), 1e-11, {}),
            ((0.95, 0.5, -0.01), 1e-12, {}),
            ((0.9, 0.5, -1e4), 1e-12, {}),
            ((0.5, 0.5, -0.7), 1e-12, {}),
            # the cross-check's 2phi1 at z = q stops on a term test that
            # leaves 7e-10 here, past 1e-11 of the sum: the series stop,
            # not a constant
            ((0.95, 0.9, -3.0), 1e-11, {"sears": 1}),
        ],
        ids=str,
    )
    def test_tight_tolerance_fails_nothing_but_sears(self, params, tolerance, failing):
        import collections

        reports = run_identity_checks("all", QParams(*params), 8, tolerance)
        assert collections.Counter(r.identity_id for r in reports if r.status == "fail") == failing

    @pytest.mark.parametrize("branch", "ab")
    @pytest.mark.parametrize("params", [(0.6, 0.5, -0.7), (0.95, 0.5, -0.01)], ids=str)
    def test_extended_c0_to_50_digits(self, params, branch):
        import mpmath

        from qortho.operators import _normalization_entries

        p = extended_params(*params)
        c0 = next(_normalization_entries(p, branch))
        with mpmath.workdps(60):
            q, a, b = map(to_mpf, p)
            first, second = (a, b) if branch == "a" else (b, a)
            want = mpmath.sqrt(mpmath.qp(second * q, q) / mpmath.qp(second / first, q))
            assert abs(to_mpf(c0) - want) <= 1e-45 * want

    def test_branch_sums_cancel_where_aq_is_near_one(self):
        # at a q = 0.999 the two branch sums of a row pair, each about 0.4,
        # cancel to their rounding: c_0 and c'_0 carry no float error of
        # the near-1 factor 1 - a q
        p = QParams(0.3, 0.999 / 0.3, -0.01)
        reports = run_identity_checks("unitarity", p, 8)
        off = [r for r in reports if r.identity_id == "unitarity-rows" and r.indices[0] != r.indices[1]]
        assert len(off) == 36 and max(abs(r.lhs) for r in off) <= 1e-17
