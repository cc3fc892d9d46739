"""Tests for the identity-verification engines."""

import pytest

from qortho.qseries import DomainError, QParams, Truncation, q_pochhammer
from qortho.operators import normalization_c, normalization_cprime
from qortho.orthogonality import (
    DualPair,
    RowCol,
    run_identity_checks,
    verify_Eq_zero_identity,
    verify_big_laguerre_orthogonality,
    verify_biorthogonality,
    verify_dual_orthogonality,
    verify_identity_3637,
    verify_meixner_orthogonality,
    verify_negative_b_meixner_orthogonality,
    verify_unitarity,
)

T = Truncation()
P1 = QParams(q=0.5, a=0.5, b=-0.7)
P2 = QParams(q=0.7, a=0.9, b=-0.4)
PARAMS = [P1, P2]
# the hardest cancellation of these points: at index-max 8 the vanishing
# label sums add terms of size up to 3e12
P_RETRY = QParams(q=0.3, a=3.2, b=-0.01)
# the six families that read the label table's sums (unitarity's rows read
# the spectral-index row tables)
LABEL_FAMILIES = ("unitarity", "dual", "meixner", "meixner-negb", "eq-zero", "biortho")


def extended_reports(families, q, a, b, index_max):
    """The families' reports at 50-digit parameters, as `verify
    --precision extended` runs them: in order, on one store."""
    import mpmath

    from qortho.orthogonality import _Store

    with mpmath.workdps(50):
        p = QParams(q=mpmath.mpf(repr(q)), a=mpmath.mpf(repr(a)), b=mpmath.mpf(repr(b)))
        t = Truncation(rel_tol=1e-20)
        store = _Store(p, t)
        return [r for fam in families for r in run_identity_checks(fam, p, t, index_max, store=store)]


def literal_reference_points(p):
    """(p, t, dps) of the literal-reference tests: p in floats at the
    working precision, and p in 50-digit scalars as `verify --precision
    extended` runs it; the caller runs its check inside the iteration, so
    the mpf case runs at 50 digits."""
    import mpmath

    from qortho.polynomials import _WORKING_DPS

    yield p, T, _WORKING_DPS
    with mpmath.workdps(50):
        pm = QParams(q=mpmath.mpf(repr(p.q)), a=mpmath.mpf(repr(p.a)), b=mpmath.mpf(repr(p.b)))
        yield pm, Truncation(rel_tol=1e-20), 50


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
    def test_terms_used_counts_the_terms_summed_at_the_cap(self):
        from qortho.orthogonality import _certified_sum

        summed = []

        def term(m):
            summed.append(m)
            return 1.0  # never negligible, so the tail is never certified

        value, used, tail = _certified_sum(term, T, hard_cap=10)
        assert summed == list(range(11))
        assert (value, used, tail) == (11.0, 11, float("inf"))

    def test_terms_used_counts_the_terms_summed_when_certified(self):
        from qortho.orthogonality import _certified_sum

        summed = []

        def term(m):
            summed.append(m)
            return 0.5**m

        value, used, tail = _certified_sum(term, T)
        assert used == len(summed) < 2000
        assert tail <= T.rel_tol * (1 + value)


class TestBigLaguerreOrthogonality:
    def test_diagonal_m0_reduces_to_sears(self):
        r00 = verify_big_laguerre_orthogonality(0, 0, P1, T)
        sears = verify_identity_3637(P1, T)
        assert r00.status == "pass"
        assert r00.lhs == pytest.approx(sears.lhs, rel=1e-14)
        assert r00.rhs == pytest.approx(sears.rhs, rel=1e-14)

    def test_off_diagonal(self):
        r = verify_big_laguerre_orthogonality(0, 1, P1, T)
        assert r.status == "pass"
        assert abs(r.lhs) <= 1e-9

    def test_diagonal_m2(self):
        r = verify_big_laguerre_orthogonality(2, 2, P1, T)
        assert r.status == "pass"
        assert r.residual <= 1e-9 * (1 + abs(r.rhs))

    @pytest.mark.parametrize("p", PARAMS, ids=["p1", "p2"])
    def test_grid(self, p):
        for m in range(0, 9, 2):
            for m2 in range(m, 9, 3):
                r = verify_big_laguerre_orthogonality(m, m2, p, T)
                assert r.status == "pass", (m, m2)

    def test_no_false_fail_at_large_a_small_b(self):
        # a float forward recurrence over the spectral points gave 8 false
        # `fail`s here; the 30-digit coefficient rows give none
        reports = run_identity_checks("big-laguerre", P_RETRY, T, index_max=8)
        assert len(reports) == 45
        assert [r.indices for r in reports if r.status != "pass"] == []

    def test_rejects_negative_degrees(self):
        # a negative degree must not wrap to the last entry of a row
        with pytest.raises(DomainError):
            verify_big_laguerre_orthogonality(-1, 0, P1, T)
        with pytest.raises(DomainError):
            verify_big_laguerre_orthogonality(0, -2, P1, T)


class TestSears:
    @pytest.mark.parametrize("p", PARAMS, ids=["p1", "p2"])
    def test_identity(self, p):
        r = verify_identity_3637(p, T)
        assert r.status == "pass"
        assert r.residual <= 1e-10 * (1 + abs(r.rhs))
        assert "agrees" in r.note

    def test_both_partial_sums_positive(self):
        # each branch sum is positive (weights and squares positive)
        import math

        from qortho.orthogonality import _Store

        store = _Store(P1, T)
        for table in store.rows(0):
            val, _, _ = table.pair_sum(0, 0, T, math.log10(store.kc))
            assert val > 0

    @pytest.mark.parametrize("p", [P1, QParams(q=0.9, a=0.9, b=-0.5)], ids=["p1", "q0.9"])
    def test_sweep_record_is_big_laguerre_00(self, p):
        # sears reads the sweep store's row tables at big-laguerre's (0, 0)
        # scale; P_0 = 1 on every row, so the standalone record, which reads
        # rows of degree 0 only, has the same bits
        from qortho.orthogonality import _Store

        store = _Store(p, T)
        (sweep,) = run_identity_checks("sears", p, T, index_max=8, store=store)
        assert sweep == verify_identity_3637(p, T)
        r00 = run_identity_checks("big-laguerre", p, T, index_max=8, store=store)[0]
        assert r00.indices == (0, 0)
        assert (sweep.lhs, sweep.terms_used, sweep.tail_estimate) == (r00.lhs, r00.terms_used, r00.tail_estimate)


class TestUnitarity:
    def test_columns_diagonal(self):
        r = verify_unitarity(RowCol.COLUMNS, 0, 0, P1, T)
        assert r.status == "pass"
        assert r.lhs == pytest.approx(1.0, abs=1e-8)

    def test_columns_cross_branch(self):
        r = verify_unitarity(RowCol.COLUMNS, 0, -1, P1, T)
        assert r.status == "pass"
        assert abs(r.lhs) <= 1e-8

    def test_rows_diagonal(self):
        r = verify_unitarity(RowCol.ROWS, 0, 0, P1, T)
        assert r.status == "pass"
        assert r.lhs == pytest.approx(1.0, abs=1e-8)

    def test_rows_rejects_negative_index(self):
        with pytest.raises(DomainError):
            verify_unitarity(RowCol.ROWS, -1, 0, P1, T)

    @pytest.mark.parametrize("p", PARAMS, ids=["p1", "p2"])
    def test_equivalence_with_orthogonality(self, p):
        # rows-unitarity and the q-integral orthogonality state the same
        # identity up to the exact scale pref_i pref_j / Kc; they must
        # agree on pass/fail, and their residuals must coincide within
        # 1e-10 of the identity's natural scale once the rescaling is
        # removed.
        from qortho.operators import _prefactors
        from qortho.orthogonality import _kc

        prefs = [float(pref) for pref in _prefactors(p, 3)]
        for i, j in [(0, 0), (1, 0), (2, 2), (3, 1)]:
            rows = verify_unitarity(RowCol.ROWS, i, j, p, T)
            orth = verify_big_laguerre_orthogonality(i, j, p, T)
            assert rows.passed == orth.passed
            scale = prefs[i] * prefs[j] / _kc(p, T)
            assert abs(rows.residual / scale - orth.residual) <= 1e-10 * (
                1 + abs(orth.lhs) + abs(orth.rhs)
            )


class TestDualOrthogonality:
    def test_ff_diagonal_against_normalization(self):
        r = verify_dual_orthogonality(DualPair.FF, 0, 0, P1, T)
        assert r.status == "pass"
        assert r.lhs == pytest.approx(normalization_c(0, P1, T) ** -2, rel=1e-8)

    def test_gg_diagonal_against_normalization(self):
        r = verify_dual_orthogonality(DualPair.GG, 2, 2, P1, T)
        assert r.status == "pass"
        assert r.lhs == pytest.approx(normalization_cprime(2, P1, T) ** -2, rel=1e-8)

    def test_gg_off_diagonal(self):
        r = verify_dual_orthogonality(DualPair.GG, 0, 1, P1, T)
        assert r.status == "pass"
        assert abs(r.lhs) <= 1e-8

    @pytest.mark.parametrize("n,n2", [(0, 0), (2, 1), (5, 5), (3, 0)])
    def test_fg_vanishes(self, n, n2):
        r = verify_dual_orthogonality(DualPair.FG, n, n2, P1, T)
        assert r.status == "pass"
        assert abs(r.lhs) <= 1e-8

    def test_weight_evaluators_positive_and_consistent(self):
        # the three scalar-product weights are positive term by term and
        # the q-Meixner weights are the dual weight with the branch
        # rescaling (q^-m/c;q)_m^-2 folded in
        from qortho.orthogonality import dual_weight, meixner_weight, negative_b_meixner_weight

        q, a, b = P1.q, P1.a, P1.b
        for m in range(12):
            assert dual_weight(m, P1) > 0
            assert meixner_weight(m, P1) > 0
            assert negative_b_meixner_weight(m, P1) > 0
            resc_f = q_pochhammer(b * q, q, m) * (-b) ** -m * q ** (-m * (m + 1) / 2.0)
            assert meixner_weight(m, P1) == pytest.approx(
                dual_weight(m, P1) / resc_f**2, rel=1e-12
            )

    def test_terms_match_literal_weighted_sum(self):
        # the products of the label table's entries must equal the literal
        # weight w_m = (aq,bq;q)_m/((q;q)_m(-abq^2)^m) q^(-m(m-1)/2) times
        # f_n(q^-m) f_n'(q^-m) computed independently at small m
        from qortho.orthogonality import _Store
        from qortho.polynomials import dual_f

        p, n, n2 = P1, 1, 2
        table = _Store(p, T).labels
        q, a, b = p.q, p.a, p.b
        for m in range(10):
            w = (
                q_pochhammer(a * q, q, m)
                * q_pochhammer(b * q, q, m)
                / (q_pochhammer(q, q, m) * (-a * b * q * q) ** m)
                * q ** (-m * (m - 1) / 2.0)
            )
            assert w > 0
            literal = w * dual_f(n, m, p, T) * dual_f(n2, m, p, T)
            engine = float(table.entry(n, m)[0] * table.entry(n2, m)[0])
            assert engine == pytest.approx(literal, rel=1e-10)


class TestMeixnerOrthogonality:
    def test_diagonal_n0(self):
        from qortho.qseries import q_pochhammer_inf

        r = verify_meixner_orthogonality(0, 0, P1, T)
        want = q_pochhammer_inf(P1.b / P1.a, P1.q, T) / q_pochhammer_inf(P1.b * P1.q, P1.q, T)
        assert r.status == "pass"
        assert r.lhs == pytest.approx(want, rel=1e-9)

    def test_off_diagonal(self):
        r = verify_meixner_orthogonality(0, 3, P1, T)
        assert r.status == "pass"
        assert abs(r.lhs) <= 1e-9

    def test_rhs_positive_for_all_n(self):
        for n in range(9):
            r = verify_meixner_orthogonality(n, n, P1, T)
            assert r.rhs > 0

    def test_negb_diagonal_n0(self):
        from qortho.qseries import q_pochhammer_inf

        r = verify_negative_b_meixner_orthogonality(0, 0, P1, T)
        want = q_pochhammer_inf(P1.a / P1.b, P1.q, T) / q_pochhammer_inf(P1.a * P1.q, P1.q, T)
        assert r.status == "pass"
        assert r.lhs == pytest.approx(want, rel=1e-9)
        assert want > 0  # a/b < 0 makes every product factor exceed 1

    def test_negb_off_diagonal(self):
        r = verify_negative_b_meixner_orthogonality(1, 2, P1, T)
        assert r.status == "pass"
        assert abs(r.lhs) <= 1e-9

    def test_negb_is_parameter_swap_of_meixner(self):
        # swapping (a, b) -> (b, a) swaps the two spectral branches, so the
        # negative-parameter sum reads the b-branch labels -n-1, -n2-1
        # where meixner reads the a-branch labels n, n2
        from qortho.orthogonality import _Store

        labels = _Store(P1, T).labels
        negb = verify_negative_b_meixner_orthogonality(1, 2, P1, T)
        assert (negb.lhs, negb.terms_used, negb.tail_estimate) == labels.pair_sum(-2, -3, T)
        meixner = verify_meixner_orthogonality(1, 2, P1, T)
        assert (meixner.lhs, meixner.terms_used, meixner.tail_estimate) == labels.pair_sum(1, 2, T)


class TestEqZeroIdentity:
    def test_n0_is_eq_at_minus_one(self):
        # the (0,0) case is the q-exponential series at its first zero
        r = verify_Eq_zero_identity(0, 0, P1, T)
        assert r.status == "pass"
        assert abs(r.lhs) <= 1e-9
        assert "E_q" in r.note

    @pytest.mark.parametrize("n,n2", [(1, 0), (2, 3), (5, 5), (0, 4)])
    def test_vanishes(self, n, n2):
        r = verify_Eq_zero_identity(n, n2, P1, T)
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
        import functools

        import mpmath

        from qortho.orthogonality import meixner_weight, negative_b_meixner_weight
        from qortho.polynomials import q_meixner

        q, a, b = (mpmath.mpf(x) for x in (p.q, p.a, p.b))
        pm = QParams(q=q, a=a, b=b)
        t60 = Truncation(rel_tol=1e-50)
        weights = {
            "meixner": functools.cache(lambda m: meixner_weight(m, pm)),
            "meixner-negb": functools.cache(lambda m: negative_b_meixner_weight(m, pm)),
            "eq-zero": functools.cache(lambda m: (-1) ** m * q ** (m * (m - 1) / 2) / q_pochhammer(q, q, m)),
        }
        values = {
            "a": functools.cache(lambda n, m: q_meixner(n, m, a, -b / a, q, t60)),
            "b": functools.cache(lambda n, m: q_meixner(n, m, b, -a / b, q, t60)),
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
                for r in run_identity_checks(fam, p, T):
                    want, _ = reference(r)
                    err = abs(r.lhs - want)
                    assert err <= r.tolerance * (1 + max(abs(r.lhs), abs(r.rhs))), (fam, r.indices, err)
                    assert r.status == "pass", (fam, r.indices)

    def test_no_engine_calls_q_meixner(self, monkeypatch):
        # the q-Meixner 2phi1 stays the independent reference: no verify
        # engine evaluates it, in double or in extended precision
        import sys

        calls = []
        for name, mod in list(sys.modules.items()):
            if name.startswith("qortho") and hasattr(mod, "q_meixner"):
                def counted(*args, _inner=mod.q_meixner, **kwargs):
                    calls.append(args)
                    return _inner(*args, **kwargs)

                monkeypatch.setattr(mod, "q_meixner", counted)
        for p in (P1, P_RETRY):
            assert run_identity_checks("all", p, T)
            assert extended_reports(("all",), p.q, p.a, p.b, 3)
        assert calls == []


class TestBiorthogonality:
    def test_diagonal(self):
        for label in [0, 2, -1]:
            r = verify_biorthogonality(label, label, P1, T)
            assert r.status == "pass"
            assert r.lhs == pytest.approx(1.0, abs=1e-8)

    def test_cross_branch(self):
        r = verify_biorthogonality(0, -1, P1, T)
        assert r.status == "pass"
        assert abs(r.lhs) <= 1e-8

    def test_same_branch_off_diagonal(self):
        r = verify_biorthogonality(2, 1, P1, T)
        assert r.status == "pass"
        assert abs(r.lhs) <= 1e-8


class TestReports:
    def test_pass_iff_residual_bound_on_certified_reports(self):
        for r in run_identity_checks("meixner", P1, T, index_max=3):
            scale = 1 + max(abs(r.lhs), abs(r.rhs))
            assert r.tail_estimate <= r.tolerance * scale  # certified
            assert r.passed == (r.residual <= r.tolerance * scale)
            assert r.status == ("pass" if r.passed else "fail")

    def test_determinism(self):
        a = run_identity_checks("dual", P1, T, index_max=3)
        b = run_identity_checks("dual", P1, T, index_max=3)
        assert a == b

    def test_rows_sweep_matches_standalone(self):
        # the sweep shares one row table per branch across all pairs; a
        # standalone call builds its own, with K = max(i, j), and since row
        # n reads the forward route up to degree n and the duality closed
        # form above, no entry depends on K
        reports = run_identity_checks("unitarity", P2, T, index_max=5)
        sweep = [r for r in reports if r.identity_id == "unitarity-rows"]
        assert len(sweep) == 21
        for r in sweep:
            assert r == verify_unitarity(RowCol.ROWS, *r.indices, P2, T), r.indices

    def test_unitarity_independent_of_history(self):
        # the basis-index families each build their own label table, so a
        # record must not depend on which of them ran before in the process
        families = ("unitarity", "dual", "biortho")
        cold = {fam: run_identity_checks(fam, P2, T, index_max=3) for fam in families}
        for fam in families:
            assert run_identity_checks(fam, P2, T, index_max=3) == cold[fam]
        for fam in reversed(families):
            for other in families:
                if other != fam:
                    run_identity_checks(other, P2, T, index_max=3)
            assert run_identity_checks(fam, P2, T, index_max=3) == cold[fam]

    def test_extended_records_independent_of_a_double_run(self):
        # a double-precision run of the same point leaves nothing that an
        # extended run reads
        for families in (("dual",), ("unitarity",), ("biortho",), ("eq-zero",), LABEL_FAMILIES):
            cold = extended_reports(families, 0.5, 0.5, -0.7, 3)
            for fam in families:
                run_identity_checks(fam, P1, T, index_max=3)
            assert extended_reports(families, 0.5, 0.5, -0.7, 3) == cold, families

    def test_extended_meixner_sums_keep_extended_accuracy(self):
        # in 50-digit scalars the label and the row tables form their
        # entries at 50 digits and add the products exactly: every sum of
        # the six label-table families that vanishes exactly comes out at
        # the 50-digit rounding level.  The rows' terms decay only
        # geometrically, so their vanishing sums come out at the level of
        # the truncation's rel_tol of 1e-20, which bounds their tails and
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

    # the q-Meixner sweeps read the sums of one label table, and big-laguerre
    # one table of coefficient rows a_0..a_K(lam_n) per spectral branch; a
    # standalone call builds its own, so every record must match field for
    # field
    MEIXNER_STANDALONE = {
        "meixner": verify_meixner_orthogonality,
        "meixner-negb": verify_negative_b_meixner_orthogonality,
        "eq-zero": verify_Eq_zero_identity,
    }
    SWEEP_STANDALONE = {**MEIXNER_STANDALONE, "big-laguerre": verify_big_laguerre_orthogonality}
    MEIXNER_DUAL = {"meixner": "dual-ff", "meixner-negb": "dual-gg", "eq-zero": "dual-fg"}

    @pytest.mark.parametrize("family", ["meixner", "meixner-negb", "eq-zero", "big-laguerre"])
    @pytest.mark.parametrize(
        "p",
        PARAMS + [P_RETRY, QParams(q=0.95, a=0.9, b=-3.0)],
        ids=["p1", "p2", "retry", "q0.95"],
    )
    def test_meixner_sweep_matches_standalone(self, family, p):
        sweep = run_identity_checks(family, p, T, index_max=8)
        assert len(sweep) == (81 if family == "eq-zero" else 45)
        standalone = self.SWEEP_STANDALONE[family]
        for r in sweep:
            assert r == standalone(*r.indices, p, T), r.indices
        if family in self.MEIXNER_DUAL:
            # each view's sum is the matching dual sum, bit for bit
            dual = {r.indices: r for r in run_identity_checks("dual", p, T, index_max=8)
                    if r.identity_id == self.MEIXNER_DUAL[family]}
            for r in sweep:
                d = dual[r.indices]
                assert (r.lhs, r.terms_used, r.tail_estimate) == (d.lhs, d.terms_used, d.tail_estimate)

    def test_eq_zero_retry_sweep_matches_standalone(self):
        # a tolerance below double-precision rounding changes nothing but
        # the verdicts: sweep and standalone records still agree
        sweep = run_identity_checks("eq-zero", P1, T, index_max=8, tolerance=1e-15)
        assert len(sweep) == 81
        for r in sweep:
            assert r == verify_Eq_zero_identity(*r.indices, P1, T, 1e-15), r.indices

    @pytest.mark.parametrize("family", ["unitarity", "biortho"])
    def test_label_constant_sweep_matches_standalone(self, family):
        # the sweep computes each label's normalization constant once
        sweep = [r for r in run_identity_checks(family, P2, T, index_max=3) if r.identity_id != "unitarity-rows"]
        assert len(sweep) == 36
        for r in sweep:
            if family == "biortho":
                assert r == verify_biorthogonality(*r.indices, P2, T), r.indices
            else:
                assert r == verify_unitarity(RowCol.COLUMNS, *r.indices, P2, T), r.indices

    def test_eq_zero_matches_literal_per_pair_sum(self):
        # at the point of the hardest cancellation every eq-zero record is
        # the dual-fg record of the same pair, bit for bit, verdict included:
        # no pair takes another route
        dual = {
            r.indices: r for r in run_identity_checks("dual", P_RETRY, T, index_max=8) if r.identity_id == "dual-fg"
        }
        fields = ("lhs", "rhs", "residual", "terms_used", "tail_estimate", "status")
        records = run_identity_checks("eq-zero", P_RETRY, T, index_max=8)
        assert len(records) == 81
        for r in records:
            d = dual[r.indices]
            assert [getattr(r, f) for f in fields] == [getattr(d, f) for f in fields], r.indices

    def test_big_laguerre_matches_literal_per_pair_sum(self):
        # reference: the per-pair loop over each spectral branch, with the
        # entries c_n a_m(lam_n) built here, apart from any table (forward
        # sweeps for the degrees m <= n, the duality closed form above),
        # each pair's float terms scaled by Kc / (pref_m pref_m2), and the
        # value an mpf dot product at twice the table's digits; a table
        # that reads the wrong row, degree or scale fails here, while the
        # sweep-vs-standalone test cannot tell, since both sides share it
        import functools
        import itertools

        import mpmath

        from qortho.operators import _a_coeff_logs, _prefactor_entries
        from qortho.orthogonality import _certified_sum, _kc
        from qortho.polynomials import _duality_entries, _working_coefficients

        K = 8
        for p, t, dps in literal_reference_points(P2):
            prefs = list(itertools.islice(_prefactor_entries(p, dps), K + 1))
            recurrence = _working_coefficients(p, dps)
            norm = {"a": normalization_c, "b": normalization_cprime}
            kc = _kc(p, t)

            @functools.cache
            def row(branch, n):
                top = min(n, K)
                coeffs = _a_coeff_logs(p, branch, n, top, prefs[: top + 1], recurrence)
                c = norm[branch](n, p, t)
                with mpmath.workdps(dps):
                    duality = [pref * v for pref, v in zip(prefs, _duality_entries(p, branch, n, dps))]
                    return [c * x for x in coeffs + duality[top + 1 :]]

            def literal(m, m2):
                with mpmath.workdps(dps):
                    fscale = float(kc / (prefs[m] * prefs[m2]))
                xs, ys, used, tail = [], [], 0, 0.0
                for branch in "ab":
                    def term(n):
                        xs.append(row(branch, n)[m])
                        ys.append(row(branch, n)[m2])
                        return float(xs[-1]) * float(ys[-1]) * fscale

                    _, used_b, tail_b = _certified_sum(term, t)
                    used, tail = used + used_b, tail + tail_b
                with mpmath.workdps(2 * dps):
                    scale = kc / (prefs[m] * prefs[m2])
                    terms = [scale * x * y for x, y in zip(xs, ys)]
                    return scale * mpmath.fdot(xs, ys), used, tail, mpmath.fsum(terms, absolute=True)

            reports = run_identity_checks("big-laguerre", p, t, index_max=K)
            assert len(reports) == 45
            for r in reports:
                value, used, tail, total_abs = literal(*r.indices)
                assert (r.terms_used, r.tail_estimate) == (used, tail), (dps, r.indices)
                assert_within_rounding(r.lhs, value, total_abs, dps, (dps, r.indices))

    def test_basis_index_families_match_literal_per_pair_sum(self):
        # reference: the per-pair loop with the coefficients of both sides
        # built here, apart from any table, each label with its own
        # prefactor iterator, and biortho on the psi/phi prefactors; the
        # value is an mpf dot product at twice the table's digits.  A label
        # table that reads a wrong entry fails here, while the
        # sweep-vs-standalone test cannot tell, since both sides share the
        # table
        import functools

        import mpmath

        from qortho.operators import _pref_a_ratio, _pref_phi_ratio, _pref_psi_ratio, _prefactor_entries
        from qortho.orthogonality import DEFAULT_TOLERANCE, _certified_sum, _Store, _verify_columns
        from qortho.polynomials import _duality_entries

        for p, t, dps in literal_reference_points(QParams(q=0.9, a=0.9, b=-0.5)):

            @functools.cache
            def source(label, ratio):
                spec = ("a", label) if label >= 0 else ("b", -label - 1)
                return _prefactor_entries(p, dps, ratio), _duality_entries(p, *spec, dps), []

            def coeff(label, ratio, m):
                prefs, values, out = source(label, ratio)
                while len(out) <= m:
                    with mpmath.workdps(dps):
                        out.append(next(prefs) * next(values))
                return out[m]

            def literal(i, j, ratio_i=_pref_a_ratio, ratio_j=_pref_a_ratio):
                # the float terms a_m a_m pick the terms used; the value is
                # the sum of the exact products of the ratios' coefficients,
                # returned with the sum of their magnitudes
                xs, ys = [], []

                def term(m):
                    xs.append(coeff(i, ratio_i, m))
                    ys.append(coeff(j, ratio_j, m))
                    return float(coeff(i, _pref_a_ratio, m)) * float(coeff(j, _pref_a_ratio, m))

                _, used, tail = _certified_sum(term, t, hard_cap=320)
                with mpmath.workdps(2 * dps):
                    total_abs = mpmath.fsum([x * y for x, y in zip(xs, ys)], absolute=True)
                    return mpmath.fdot(xs, ys), used, tail, total_abs

            @functools.cache
            def c(label):
                return normalization_c(label, p, t) if label >= 0 else normalization_cprime(-label - 1, p, t)

            def scaled(i, j, value, used, tail, total_abs):
                # the tail as the record forms it, the rest at twice the digits
                tail = c(i) * c(j) * tail
                with mpmath.workdps(2 * dps):
                    return c(i) * c(j) * value, used, tail, abs(c(i) * c(j)) * total_abs

            reference = {
                "dual-ff": lambda n, n2: literal(n, n2),
                "dual-gg": lambda n, n2: literal(-n - 1, -n2 - 1),
                "dual-fg": lambda n, n2: literal(n, -n2 - 1),
                "unitarity-columns": lambda i, j: scaled(i, j, *literal(i, j)),
                "biortho": lambda i, j: scaled(i, j, *literal(i, j, _pref_psi_ratio, _pref_phi_ratio)),
            }
            # the unitarity-columns records without the sweep's rows, whose
            # normalization constants dominate the time at 50 digits
            store = _Store(p, t)
            labels = range(-5, 5)
            records = [r for fam in ("dual", "biortho") for r in run_identity_checks(fam, p, t, index_max=4, store=store)]
            records += [
                _verify_columns("unitarity-columns", i, j, p, t, DEFAULT_TOLERANCE, store.labels)
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
        # the label table keeps one sum per unordered label pair, which is
        # sound only because the sum does not depend on the order
        from qortho.orthogonality import _Store

        table = _Store(p, T).labels
        labels = range(-9, 9)
        for i in labels:
            for j in labels:
                if i < j:
                    assert table._sum(i, j, T) == table._sum(j, i, T), (i, j)

    def test_store_computes_each_label_pair_sum_once(self, monkeypatch):
        # unitarity-columns, dual, biortho and the three q-Meixner families
        # read one store's sums: the 171 unordered pairs of the 18 labels at
        # index-max 8, each summed once for the 684 records
        from qortho.orthogonality import _LabelTable

        pairs = []
        label_sum = _LabelTable._sum

        def counted(self, i, j, t):
            pairs.append(frozenset((i, j)))
            return label_sum(self, i, j, t)

        monkeypatch.setattr(_LabelTable, "_sum", counted)
        reports = run_identity_checks("all", P1, T)
        shared = [r for r in reports if r.identity_id not in ("big-laguerre", "sears", "unitarity-rows")]
        assert len(shared) == 684
        assert len(pairs) == len(set(pairs)) == 171

    def test_label_entries_computed_once(self, monkeypatch):
        # each sum extends its labels' duality entries, and the shared
        # prefactors, one at a time as it reads them; no entry is computed
        # twice, and the 18 labels need 1004 entries, the most any sum
        # reads of each label, where a cut-off doubled from 48 took 1602
        import collections

        from qortho import orthogonality
        from qortho.orthogonality import _Store
        from qortho.polynomials import _WORKING_DPS

        computed = collections.Counter()
        started = collections.Counter()

        def counting(source, key):
            def wrapped(*args):
                started[key(*args)] += 1
                for value in source(*args):
                    computed[key(*args)] += 1
                    yield value

            return wrapped

        # keyed with the precision asked for: float parameters ask for every
        # entry at the working precision
        entries = counting(orthogonality._duality_entries, lambda p, branch, j, dps: (branch, j, dps))
        prefs = counting(orthogonality._prefactor_entries, lambda p, dps: ("pref", dps))
        monkeypatch.setattr(orthogonality, "_duality_entries", entries)
        monkeypatch.setattr(orthogonality, "_prefactor_entries", prefs)
        p = QParams(q=0.9, a=0.9, b=-0.5)
        store = _Store(p, T)
        run_identity_checks("all", p, T, store=store)
        table = store.labels
        pref = ("pref", _WORKING_DPS)
        assert started[pref] == 1 and computed[pref] == len(table._prefs)
        assert len(table._coeffs) == 18
        for label, (values, _) in table._coeffs.items():
            spec = ("a", label, _WORKING_DPS) if label >= 0 else ("b", -label - 1, _WORKING_DPS)
            assert started[spec] == 1 and computed[spec] == len(values), label
        assert len(started) == 19
        assert max(len(values) for values, _ in table._coeffs.values()) == 64
        assert sum(computed.values()) - computed[pref] == 1004

    def test_label_coefficient_exact_after_unitarity(self):
        # a_96(lam_4) on both branches at q = 0.95, read from the label
        # table after the unitarity sweep asked for the same points at
        # cut-offs 8 and 48; the reference is the terminating 3phi2 at a
        # precision doubled until two runs agree to 40 digits
        import mpmath

        from qortho.operators import _prefactors
        from qortho.orthogonality import _Store
        from qortho.polynomials import _bigql_series_sum

        p = QParams(q=0.95, a=0.9, b=-3.0)
        store = _Store(p, T)
        run_identity_checks("unitarity", p, T, store=store)

        def exact(first, dps):
            with mpmath.workdps(dps):
                q, a, b = mpmath.mpf(p.q), mpmath.mpf(p.a), mpmath.mpf(p.b)
                return _bigql_series_sum(96, mpmath.mpf(first) * q**5, a, b, q)[0]

        for label, first in ((4, p.a), (-5, p.b)):
            got = store.labels.entry(label, 96)[0]
            dps, prev = 60, exact(first, 60)
            while True:
                dps *= 2
                cur = exact(first, dps)
                with mpmath.workdps(dps):
                    if abs(cur - prev) <= mpmath.mpf(10) ** -40 * abs(cur):
                        break
                prev = cur
            with mpmath.workdps(dps):
                want = _prefactors(p, 96)[96] * cur
                assert abs(got - want) <= mpmath.mpf(10) ** -20 * abs(want), label

    def test_store_rejects_other_parameters(self):
        from qortho.orthogonality import _Store

        with pytest.raises(ValueError):
            run_identity_checks("dual", P1, T, index_max=1, store=_Store(P2, T))

    def test_meixner_families_independent_of_history(self):
        cold = {fam: run_identity_checks(fam, P_RETRY, T, index_max=4) for fam in self.MEIXNER_STANDALONE}
        for fam in self.MEIXNER_STANDALONE:
            assert run_identity_checks(fam, P_RETRY, T, index_max=4) == cold[fam]
        for fam in reversed(list(self.MEIXNER_STANDALONE)):
            run_identity_checks("dual", P_RETRY, T, index_max=2)
            assert run_identity_checks(fam, P_RETRY, T, index_max=4) == cold[fam]

    def test_sorted_by_identity_and_indices(self):
        reports = run_identity_checks("dual", P1, T, index_max=2)
        keys = [(r.identity_id, r.indices) for r in reports]
        assert keys == sorted(keys)

    def test_unknown_identity_rejected(self):
        with pytest.raises(DomainError):
            run_identity_checks("nope", P1, T)

    @pytest.mark.parametrize("p", PARAMS, ids=["p1", "p2"])
    def test_full_sweep_small_grid_all_pass(self, p):
        reports = run_identity_checks("all", p, T, index_max=3)
        assert reports, "sweep produced no reports"
        assert all(r.status == "pass" for r in reports)

    def test_near_degenerate_b_extreme(self):
        # |b| << a inflates the lower-branch norms to ~1e5; the bilinear
        # terms must keep full relative accuracy for the off-diagonal
        # cancellations to reach the absolute 1e-8 scale
        p = QParams(q=0.5, a=0.5, b=-0.01)
        reports = run_identity_checks("all", p, T, index_max=4)
        assert all(r.status == "pass" for r in reports), [
            (r.identity_id, r.indices) for r in reports if r.status != "pass"
        ]

    def test_slow_decay_base_certifies(self):
        # at q = 0.9 the spectral-index sums contract slowly; the tail
        # certification must still converge rather than go inconclusive
        p = QParams(q=0.9, a=0.8, b=-0.5)
        for r in [
            verify_identity_3637(p, T),
            verify_big_laguerre_orthogonality(1, 1, p, T),
            verify_unitarity(RowCol.ROWS, 2, 2, p, T),
        ]:
            assert r.status == "pass", (r.identity_id, r.status, r.tail_estimate)


class TestLabelSumVerdicts:
    # the six store families read one set of label sums, added exactly:
    # a `fail` there is a violated identity, not rounding
    SHIFT = 1e-6

    @pytest.mark.parametrize("p", [P1, QParams(q=0.9, a=0.9, b=-0.5), P_RETRY], ids=["p1", "q0.9", "retry"])
    def test_broken_identity_fails(self, monkeypatch, p):
        # an rhs shifted by 1e-6 is a real violation wherever the shift
        # exceeds tol*scale, which holds for every vanishing sum: each such
        # record of dual and meixner-negb must be `fail`, and the unshifted
        # meixner records, which read the dual-ff sums, still pass
        from qortho import orthogonality

        finalize = orthogonality._finalize

        def shifted(identity_id, p, indices, lhs, rhs, *args):
            if identity_id.startswith("dual-") or identity_id == "meixner-negb":
                rhs += self.SHIFT
            return finalize(identity_id, p, indices, lhs, rhs, *args)

        monkeypatch.setattr(orthogonality, "_finalize", shifted)
        store = orthogonality._Store(p, T)
        broken = [r for fam in ("dual", "meixner-negb") for r in run_identity_checks(fam, p, T, store=store)]
        visible = [r for r in broken if self.SHIFT > r.tolerance * (1 + max(abs(r.lhs), abs(r.rhs)))]
        assert len(visible) >= 36 + 36 + 81 + 36  # the off-diagonal dual-ff, dual-gg, dual-fg, meixner-negb
        assert [r for r in visible if r.status != "fail"] == []
        assert all(r.status == "pass" for r in run_identity_checks("meixner", p, T, store=store))

    @pytest.mark.parametrize("p", [P1, QParams(q=0.9, a=0.9, b=-0.5), P_RETRY], ids=["p1", "q0.9", "retry"])
    def test_broken_row_identity_fails(self, monkeypatch, p):
        # the twin over the spectral index: the row sums are added exactly
        # too, so each record of unitarity-rows and big-laguerre whose rhs
        # shift exceeds tol*scale must be `fail`, and the unshifted sears
        # record, which reads the big-laguerre (0, 0) sum, still passes
        from qortho import orthogonality

        finalize = orthogonality._finalize

        def shifted(identity_id, p, indices, lhs, rhs, *args):
            if identity_id in ("unitarity-rows", "big-laguerre"):
                rhs += self.SHIFT
            return finalize(identity_id, p, indices, lhs, rhs, *args)

        monkeypatch.setattr(orthogonality, "_finalize", shifted)
        store = orthogonality._Store(p, T)
        broken = [r for fam in ("unitarity", "big-laguerre") for r in run_identity_checks(fam, p, T, store=store)]
        broken = [r for r in broken if r.identity_id in ("unitarity-rows", "big-laguerre")]
        visible = [r for r in broken if self.SHIFT > r.tolerance * (1 + max(abs(r.lhs), abs(r.rhs)))]
        assert len(visible) >= 45 + 36  # every unitarity-rows record, the off-diagonal big-laguerre ones
        assert [r for r in visible if r.status != "fail"] == []
        assert [r.status for r in run_identity_checks("sears", p, T, store=store)] == ["pass"]

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
        """The six families of the label table, with unitarity-rows.  The
        other families still give known false `fail`s at two of these
        points: sears' 1e-11 basic-series cross-check at (0.95, 0.9, -3.0),
        and big-laguerre (0, 1) at (0.3, 0.999/0.3, -0.01), whose float
        terms cancel past the tolerance."""
        from qortho.orthogonality import _Store

        store = _Store(p, T)
        reports = [r for fam in LABEL_FAMILIES for r in run_identity_checks(fam, p, T, store=store)]
        assert len(reports) == 45 + 171 + 171 + 45 + 45 + 81 + 171
        assert [(r.identity_id, r.indices) for r in reports if r.status == "fail"] == []

    @pytest.mark.xfail(
        strict=True,
        reason="the terms of this vanishing sum reach 1e82, so 30-digit duality coefficients leave lhs 4.9e53",
    )
    def test_edge_of_domain_negb_small_b_near_q_one(self):
        # a false `fail`: the sum needs about 100-digit coefficients, and a
        # stopping rule that does not read the float running sum, whose
        # rounding stops it after about 140 terms, still of size 1e40
        p = QParams(q=0.95, a=0.5, b=-0.01)
        assert verify_negative_b_meixner_orthogonality(0, 1, p, T).status != "fail"
