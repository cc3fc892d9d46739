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
# eq-zero retries 44 of its 81 pairs here at index-max 8
P_RETRY = QParams(q=0.3, a=3.2, b=-0.01)


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


class TestSears:
    @pytest.mark.parametrize("p", PARAMS, ids=["p1", "p2"])
    def test_identity(self, p):
        r = verify_identity_3637(p, T)
        assert r.status == "pass"
        assert r.residual <= 1e-10 * (1 + abs(r.rhs))
        assert "agrees" in r.note

    def test_both_partial_sums_positive(self):
        # each branch sum is positive (weights and squares positive)
        from qortho.orthogonality import _spectral_table
        from qortho.polynomials import _RecurrenceTable

        for branch in ("a", "b"):
            val, _, _ = _spectral_table(branch, 0, P1, T, _RecurrenceTable(P1)).pair_sum(0, 0, T)
            assert val > 0


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
        # the engine's log-formed terms must equal the literal weight
        # w_m = (aq,bq;q)_m/((q;q)_m(-abq^2)^m) q^(-m(m-1)/2) times
        # f_n(q^-m) f_n'(q^-m) computed independently at small m
        from qortho.operators import _a_coeff_logs
        from qortho.polynomials import dual_f

        p, n, n2 = P1, 1, 2
        s1, l1 = _a_coeff_logs(p, "a", n, 14)
        s2, l2 = _a_coeff_logs(p, "a", n2, 14)
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
            engine = s1[m] * s2[m] * 10.0 ** (l1[m] + l2[m])
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
        # swapping (a, b) -> (b, a) in the positive-parameter verifier
        # reproduces the negative-parameter sum exactly
        from qortho.orthogonality import _meixner_table

        lhs_negb, _, _ = _meixner_table(P1.b, P1.a, P1, T).pair_sum(1, 2, T)
        r = verify_negative_b_meixner_orthogonality(1, 2, P1, T)
        assert r.lhs == lhs_negb


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
        # the sweep shares one coefficient table per branch across all
        # pairs; a standalone call builds its own, with K = max(i, j), so
        # the two switch from the duality to the forward route at
        # different spectral indices
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
        from qortho.cli import _verify_task_records

        def records(families, precision):
            return _verify_task_records((families, 0.5, 0.5, -0.7, 3, 1e-8, precision))

        for family in (("dual",), ("unitarity",), ("biortho",), ("unitarity", "dual", "biortho")):
            cold = records(family, "extended")
            records(family, "double")
            assert records(family, "extended") == cold, family

    # the q-Meixner sweeps share one table of M_n(q^-m) values per
    # parameterization (eq-zero also a 40-digit table for its retries), and
    # big-laguerre one table of P_0..P_K(lam_n) per spectral branch; a
    # standalone call builds its own, so every record must match field for
    # field, the retried ones included
    MEIXNER_STANDALONE = {
        "meixner": verify_meixner_orthogonality,
        "meixner-negb": verify_negative_b_meixner_orthogonality,
        "eq-zero": verify_Eq_zero_identity,
    }
    SWEEP_STANDALONE = {**MEIXNER_STANDALONE, "big-laguerre": verify_big_laguerre_orthogonality}

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
        if family == "eq-zero" and p is P_RETRY:
            assert sum("retried" in r.note for r in sweep) == 44

    def test_eq_zero_retry_sweep_matches_standalone(self):
        # a tolerance below double-precision rounding sends about half the
        # pairs through the shared 40-digit tables
        sweep = run_identity_checks("eq-zero", P1, T, index_max=8, tolerance=1e-15)
        assert sum("retried" in r.note for r in sweep) == 43
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
        # reference: the per-pair loop with every q-Meixner value evaluated
        # afresh, the retry in 40-digit scalars made inside workdps(40)
        import mpmath

        from qortho.orthogonality import _certified_sum
        from qortho.polynomials import q_meixner

        def literal(n, n2, mp):
            q, a, b = (mpmath.mpf(x) if mp else x for x in (P_RETRY.q, P_RETRY.a, P_RETRY.b))
            state = {"w": 1.0 * q / q}

            def term(m):
                w = state["w"]
                state["w"] = -w * q**m / (1 - q ** (m + 1))
                return w * q_meixner(n, m, a, -b / a, q, T) * q_meixner(n2, m, b, -a / b, q, T)

            return _certified_sum(term, T)

        for r in run_identity_checks("eq-zero", P_RETRY, T, index_max=8):
            if "retried" in r.note:
                with mpmath.workdps(40):
                    lhs, used, tail = literal(*r.indices, mp=True)
            else:
                lhs, used, tail = literal(*r.indices, mp=False)
            assert (r.lhs, r.terms_used, r.tail_estimate) == (float(lhs), used, float(tail)), r.indices

    def test_big_laguerre_matches_literal_per_pair_sum(self):
        # reference: the per-pair loop over each spectral branch, with
        # P_0..P_max(m, m2)(lam_n) recomputed for every term; a table that
        # reads the wrong row or degree fails here, while the
        # sweep-vs-standalone test cannot tell, since both sides share it
        from qortho.orthogonality import _certified_sum
        from qortho.polynomials import big_q_laguerre_recurrence
        from qortho.qseries import q_pochhammer_inf

        p, q = P2, P2.q

        def literal(branch, m, m2):
            c, d = (p.a, p.b) if branch == "a" else (p.b, p.a)
            w0 = q_pochhammer_inf(q, q, T) * q_pochhammer_inf(c * q / d, q, T) / q_pochhammer_inf(c * q, q, T)
            state = {"w": w0}

            def term(n):
                w = state["w"]
                pv = big_q_laguerre_recurrence(max(m, m2), c * q ** (n + 1), p)
                state["w"] = w * q * (1 - c * q ** (n + 1)) / ((1 - q ** (n + 1)) * (1 - c * q ** (n + 1) / d))
                return w * pv[m] * pv[m2]

            return _certified_sum(term, T)

        reports = run_identity_checks("big-laguerre", p, T, index_max=8)
        assert len(reports) == 45
        for r in reports:
            sum_a, used_a, tail_a = literal("a", *r.indices)
            sum_b, used_b, tail_b = literal("b", *r.indices)
            want = (sum_a - (p.b / p.a) * sum_b, used_a + used_b, tail_a + abs(p.b / p.a) * tail_b)
            assert (r.lhs, r.terms_used, r.tail_estimate) == want, r.indices

    def test_basis_index_families_match_literal_per_pair_sum(self):
        # reference: the per-pair doubling loop with the coefficients of
        # both sides taken afresh at every cut, each with its own prefactor
        # list, and biortho on the psi/phi prefactors; a label table that
        # reads a wrong slice fails here, while the sweep-vs-standalone
        # test cannot tell, since both sides share the table
        import functools

        import mpmath

        from qortho.operators import (
            _pref_a_ratio,
            _pref_phi_ratio,
            _pref_psi_ratio,
            _prefactors,
            _spectral_coeff_mpf,
        )
        from qortho.orthogonality import _certified_sum
        from qortho.polynomials import _WORKING_DPS

        p = QParams(q=0.9, a=0.9, b=-0.5)
        prefactors = functools.cache(lambda ratio, m_cut: _prefactors(p, m_cut, ratio))

        def coeffs(label, m_cut, ratio):
            spec = ("a", label) if label >= 0 else ("b", -label - 1)
            return _spectral_coeff_mpf(p, *spec, m_cut, prefactors(ratio, m_cut))

        def literal(i, j, ratio_i=_pref_a_ratio, ratio_j=_pref_a_ratio):
            m_cut = 48
            while True:
                with mpmath.workdps(_WORKING_DPS):
                    arr = [float(x * y) for x, y in zip(coeffs(i, m_cut, ratio_i), coeffs(j, m_cut, ratio_j))]
                value, used, tail = _certified_sum(lambda m: arr[m], T, hard_cap=m_cut)
                if tail <= T.rel_tol * (1.0 + abs(value)) or m_cut >= 320:
                    return value, used, tail
                m_cut = min(2 * m_cut, 320)

        def c(label):
            return normalization_c(label, p, T) if label >= 0 else normalization_cprime(-label - 1, p, T)

        def scaled(i, j, value, used, tail):
            return c(i) * c(j) * value, used, c(i) * c(j) * tail

        reference = {
            "dual-ff": lambda n, n2: literal(n, n2),
            "dual-gg": lambda n, n2: literal(-n - 1, -n2 - 1),
            "dual-fg": lambda n, n2: literal(n, -n2 - 1),
            "unitarity-columns": lambda i, j: scaled(i, j, *literal(i, j)),
            "biortho": lambda i, j: scaled(i, j, *literal(i, j, _pref_psi_ratio, _pref_phi_ratio)),
        }
        records = [
            r
            for fam in ("dual", "unitarity", "biortho")
            for r in run_identity_checks(fam, p, T, index_max=4)
            if r.identity_id in reference
        ]
        assert len(records) == 165
        for fam in ("dual-gg", "unitarity-columns", "biortho"):
            assert any(r.terms_used > 49 for r in records if r.identity_id == fam), fam
        for r in records:
            want = reference[r.identity_id](*r.indices)
            assert (r.lhs, r.terms_used, r.tail_estimate) == want, (r.identity_id, r.indices)

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
                    assert table._doubling_sum(i, j, T) == table._doubling_sum(j, i, T), (i, j)

    def test_store_computes_each_label_pair_sum_once(self, monkeypatch):
        # unitarity-columns, dual and biortho read one store's sums: the
        # 171 unordered pairs of the 18 labels at index-max 8, each summed
        # once for the 513 records
        from qortho.orthogonality import _LabelTable

        pairs = []
        doubling_sum = _LabelTable._doubling_sum

        def counted(self, i, j, t):
            pairs.append(frozenset((i, j)))
            return doubling_sum(self, i, j, t)

        monkeypatch.setattr(_LabelTable, "_doubling_sum", counted)
        reports = run_identity_checks("all", P1, T)
        shared = [r for r in reports if r.identity_id.startswith(("unitarity-columns", "dual", "biortho"))]
        assert len(shared) == 513
        assert len(pairs) == len(set(pairs)) == 171

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
            got = store.labels.coeffs(label, 96)[96]
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
