"""Tests for the operator realizations, eigencoefficients, normalization
constants, spectra and the Sturm-bisection eigensolver."""

import decimal
import itertools
import json
import math

import numpy as np
import pytest

from qortho.qseries import DomainError, QParams, phi_3_2, q_pochhammer, q_pochhammer_inf
from qortho.operators import (
    Tridiagonal,
    build_A,
    eig_tridiagonal,
    eig_tridiagonal_accuracy,
    spectrum_points,
    truncation_residuals,
)
from qortho.representation import (
    build_A1_A2,
    build_generator_matrices,
    compose_A_from_generators,
    compose_A1_A2_from_generators,
    eigen_coefficients,
    jminus_action_factor,
    jplus_action_factor,
    normalization_c,
    normalization_cprime,
    psi_phi_coefficients,
    qJ0_inverse_action,
    recurrence_residuals,
)

P1 = QParams(q=0.5, a=0.5, b=-0.7)
P2 = QParams(q=0.7, a=0.9, b=-0.4)


def prefactors(p: QParams, m_max: int) -> list:
    """pref_0..pref_m_max, the first entries of `_prefactor_entries`."""
    from qortho.operators import _prefactor_entries

    return list(itertools.islice(_prefactor_entries(p), m_max + 1))


class TestGenerators:
    def test_lowering_kills_ground_state(self):
        assert jminus_action_factor(0, P1) == 0.0

    def test_j0_diagonal_is_l_plus_n(self):
        g = build_generator_matrices(P1, 6)
        for n in range(6):
            assert g.j0_diag[n] == pytest.approx(P1.l + n, rel=1e-14)

    def test_jplus_entry_plugin_oracle(self):
        # direct evaluation of the raising coefficient at n=0, q=0.5, l=1
        q, l = 0.5, 1.0
        want = q ** (-(0 + l - 0.5) / 2) / (1 - q) * math.sqrt((1 - q) * (1 - q ** (2 * l)))
        assert jplus_action_factor(0, P1) == pytest.approx(want, rel=1e-14)

    def test_qnumber_form_agrees(self):
        # sqrt([2l+n]_q [n+1]_q) equals the radical form
        from qortho.qseries import q_number

        for p in (P1, P2):
            for n in range(6):
                want = math.sqrt(q_number(2 * p.l + n, p.q) * q_number(n + 1, p.q))
                assert jplus_action_factor(n, p) == pytest.approx(want, rel=1e-12)

    def test_adjoint_pairing(self):
        g = build_generator_matrices(P1, 8)
        assert np.allclose(g.raising, g.lowering, rtol=1e-14)


class TestBuildA:
    def test_diag0_plugin_value(self):
        tri = build_A(P1, 4)
        assert tri.diag[0] == pytest.approx(-0.0125, abs=1e-15)

    def test_offdiag_positive(self):
        for p in (P1, P2):
            tri = build_A(p, 50)
            assert np.all(np.asarray(tri.offdiag) > 0)

    def test_exactly_symmetric_shared_array(self):
        tri = build_A(P1, 10)
        assert tri.lower is tri.upper

    def test_apply_rejects_a_vector_of_another_length(self):
        tri = build_A(P1, 4)
        for v in ([1.0] * 3, [1.0] * 5):
            with pytest.raises(DomainError):
                tri.apply(v)

    def test_composition_matches_direct(self):
        for p in (P1, P2):
            dim = 30
            direct = np.asarray(build_A(p, dim).dense())
            composed = np.asarray(compose_A_from_generators(p, dim))
            # final row/column corrupted by truncation
            err = np.abs(direct - composed)[: dim - 1, : dim - 1]
            scale = np.max(np.abs(direct))
            assert np.max(err) <= 1e-12 * scale


class TestEigenCoefficients:
    def test_a0_is_one(self):
        for x in [("a", 0), ("b", 1), 0.123]:
            vec = eigen_coefficients(x, P1, 20)
            assert vec.coeffs[0] == 1.0

    def test_interior_row_residuals_at_spectral_point(self):
        vec = eigen_coefficients(("a", 0), P1, 40)
        res = recurrence_residuals(vec, P1)
        assert np.max(res) <= 1e-10

    def test_residuals_on_ten_extreme_points(self):
        for label, _ in spectrum_points(P1, 10).ranked()[:10]:
            vec = eigen_coefficients(label, P1, 40)
            assert vec.normalizable
            assert np.max(recurrence_residuals(vec, P1)) <= 1e-10

    def test_norm_sum_equals_inverse_c0_squared(self):
        vec = eigen_coefficients(("a", 0), P1, 80)
        total = float(np.sum(np.asarray(vec.coeffs) ** 2))
        c0 = normalization_c(0, P1)
        assert total == pytest.approx(c0**-2, rel=1e-8)

    def test_square_summable_tail(self):
        vec = eigen_coefficients(("a", 0), P1, 80)
        total = float(np.sum(np.asarray(vec.coeffs) ** 2))
        tail = float(np.sum(np.asarray(vec.coeffs[40:]) ** 2))
        assert tail <= 1e-12 * total

    def test_generic_lambda_flagged(self):
        vec = eigen_coefficients(0.17, P1, 10)
        assert not vec.normalizable

    @pytest.mark.parametrize("lam", [P1.a * P1.q * (1 + 3e-11), P1.a * P1.q], ids=["aq(1+3e-11)", "aq"])
    def test_number_near_or_at_a_point_is_generic(self, lam):
        # a number takes the recurrence whatever its value: only a label
        # names a spectral point, so a float 3e-11 off a q is not read as
        # a q, and a q itself is a number too
        vec = eigen_coefficients(lam, P1, 10)
        assert not vec.normalizable and vec.lam == lam

    @pytest.mark.parametrize("label", [("a", 10), ("b", 10)], ids=str)
    def test_labels_whose_points_underflow(self, label):
        # at q = 1e-30 the point first q^11 underflows to 0.0, where a float
        # was once read as no spectral point: the label still names it, so
        # the vector is the duality closed form, normalizable, and psi/phi
        # have their values
        from qortho.operators import _coefficient_entries, _prefactor_entries

        p = QParams(q=1e-30, a=0.5, b=-0.7)
        vec = eigen_coefficients(label, p, 6)
        want = tuple(map(float, itertools.islice(_coefficient_entries(p, *label, _prefactor_entries(p)), 7)))
        assert vec.normalizable and vec.lam == 0.0 and vec.coeffs == want
        # psi_k phi_k = a_k a_k term for term; phi_3 leaves the float range
        psi, phi = psi_phi_coefficients(label, p, 2)
        products = [x * y for x, y in zip(psi.coeffs, phi.coeffs)]
        assert products == pytest.approx([x * x for x in want[:3]], rel=1e-12)

    @pytest.mark.parametrize("lam", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
    def test_non_finite_lam_rejected(self, lam):
        # inf overflowed the generic polynomial route, and nan gave
        # (1.0, nan, ...) flagged non-normalizable
        with pytest.raises(DomainError):
            eigen_coefficients(lam, P1, 4)

    def test_negative_cut_off_rejected(self):
        # a negative m_max is a usage error, as in spectral_sequence, not
        # an empty vector marked normalizable
        for call in (eigen_coefficients, psi_phi_coefficients):
            with pytest.raises(DomainError):
                call(("a", 0), P1, -1)
        with pytest.raises(DomainError):
            eigen_coefficients(0.17, P1, -1)

    @pytest.mark.parametrize("label", [("a", 1), ("b", 0), ("a", 39)], ids=["aq2", "bq", "aq40"])
    @pytest.mark.parametrize("route", ["eigen", "psi-phi", "generating"])
    def test_decimal_parameters_agree_with_float(self, route, label):
        # the routes that take a spectral point's label run on QParams of
        # Decimals too, and agree with the same call on floats
        from qortho.routes import generating_series

        calls = {
            "eigen": lambda p: eigen_coefficients(label, p, 12).coeffs,
            "psi-phi": lambda p: [v for vec in psi_phi_coefficients(label, p, 12) for v in vec.coeffs],
            "generating": lambda p: [generating_series(label, 0.01, p, 20)],
        }
        dec = QParams(*map(decimal.Decimal, ("0.5", "0.5", "-0.7")))
        got, want = calls[route](dec), calls[route](P1)
        assert all(type(v) is float for v in got)
        assert got == pytest.approx(want, rel=1e-14, abs=0)

    def test_deep_spectral_points_recognised(self):
        # at q = 0.99 the spectral index passes 500 long before the
        # eigenvalues leave float range: a q^601 and b q^551 are spectral
        # points of the duality routes, and a q^521 one of the
        # generating-function extraction
        from qortho.polynomials import spectral_sequence
        from qortho.routes import big_q_laguerre_generating

        p = QParams(q=0.99, a=0.5, b=-0.7)
        assert eigen_coefficients(("a", 600), p, 4).normalizable
        psi, phi = psi_phi_coefficients(("b", 550), p, 4)
        vec = eigen_coefficients(("b", 550), p, 4)
        # psi_k phi_k = a_k a_k term for term
        products = [x * y for x, y in zip(psi.coeffs, phi.coeffs)]
        assert products == pytest.approx([x * x for x in vec.coeffs], rel=1e-12)
        got = big_q_laguerre_generating(2, ("a", 520), p)
        assert got == pytest.approx(float(spectral_sequence(p, "a", 520, 2)[2]), rel=1e-10)

    def test_monomial_basis_consistency(self):
        # multiplying by the monomial normalization c^l_m reproduces
        # (-b)^(-m/2) a^(-3m/4) q^(-m(m+3)/4) (aq;q)_m (bq;q)_m^(1/2)/(q;q)_m P_m
        from qortho.polynomials import big_q_laguerre

        lam = P1.a * P1.q
        vec = eigen_coefficients(("a", 0), P1, 12)
        q, a, b = P1.q, P1.a, P1.b
        for m in [1, 4, 8, 12]:
            clm = a ** (-m / 4.0) * math.sqrt(
                q_pochhammer(a * q, q, m) / q_pochhammer(q, q, m)
            )
            got = vec.coeffs[m] * clm
            want = (
                (-b) ** (-m / 2.0)
                * a ** (-3 * m / 4.0)
                * q ** (-m * (m + 3) / 4.0)
                * q_pochhammer(a * q, q, m)
                / q_pochhammer(q, q, m)
                * math.sqrt(q_pochhammer(b * q, q, m))
                * big_q_laguerre(m, lam, P1)
            )
            assert got == pytest.approx(want, rel=1e-11)


# At spectral index n >= K the coefficients a_0..a_K come from the forward
# recurrence; the duality closed form is the reference.  Bound: 1e-20 of the
# row's largest coefficient, ten digits inside the 30-digit working
# precision.
FWD_K = 8
FWD_BOUND = 1e-20
EDGE_POINTS = [QParams(q=q, a=0.999 / q, b=b) for q in (0.3, 0.95) for b in (-0.01, -50.0)]
FORWARD_CASES = [
    pytest.param(p, branch, id=f"q{p.q}-b{p.b}-{branch}") for p in [P1, P2] + EDGE_POINTS for branch in ("a", "b")
]


def _worst_error(got, want) -> float:
    """Largest |got - want| against max |want|, with Decimal and mpf values
    read into 60-digit mpfs: mpmath turns a Decimal and an mpf in one
    expression into a float."""
    import mpmath

    with mpmath.workdps(60):
        got, want = ([mpmath.mpf(str(v)) for v in values] for values in (got, want))
        scale = max(abs(v) for v in want)
        return float(max(abs(x - y) for x, y in zip(got, want)) / scale)


def _forward_rows(p: QParams, prefs: list):
    """(branch, n) -> the forward eigencoefficients a_0..a_FWD_K at the
    spectral point of index n, on the exact Decimals and the recurrence
    coefficients of a verify store at p, in the store's decimal context."""
    from qortho.operators import _a_coeff_logs
    from qortho.orthogonality import _Store

    store = _Store(p, FWD_K)

    def forward(branch, n):
        with decimal.localcontext(store.context):
            return _a_coeff_logs(branch, n, FWD_K, prefs, store.decimal_p, store.recurrence)

    return forward


class TestForwardCoefficientRoute:
    @pytest.mark.parametrize("p,branch", FORWARD_CASES)
    def test_matches_duality_reference(self, p, branch):
        from qortho.operators import _coefficient_entries

        prefs = prefactors(p, FWD_K)
        forward = _forward_rows(p, prefs)
        for n in range(FWD_K, FWD_K + 61, 4):
            fwd = forward(branch, n)
            assert _worst_error(fwd, list(_coefficient_entries(p, branch, n, prefs))) <= FWD_BOUND, n

    @pytest.mark.parametrize("p,branch", FORWARD_CASES)
    def test_matches_exact_series(self, p, branch):
        # the terminating 3phi2 sums at 120 digits are exact far below the
        # bound and share no step with the recurrence or the duality
        import mpmath

        prefs = prefactors(p, FWD_K)
        forward = _forward_rows(p, prefs)
        for n in range(FWD_K, FWD_K + 61, 6):
            with mpmath.workdps(120):
                q, a, b = mpmath.mpf(p.q), mpmath.mpf(p.a), mpmath.mpf(p.b)
                lam = (a if branch == "a" else b) * q ** (n + 1)
                seq = [phi_3_2(q**-m, 0, lam, a * q, b * q, q, q) for m in range(FWD_K + 1)]
                exact = [mpmath.mpf(str(pref)) * v for pref, v in zip(prefs, seq)]
            assert _worst_error(forward(branch, n), exact) <= FWD_BOUND, n

    def test_logs_take_forward_route_from_index_k(self, monkeypatch):
        # the rows of a store of largest index K read the forward route for
        # the degrees m <= n of row n, and the columns' duality entries for
        # the degrees above it, so its rows from K on are forward rows
        import decimal

        from qortho import operators, orthogonality

        forward = []

        def counted(branch, j, m_max, prefs, p, coeffs):
            forward.append((branch, j, m_max))
            return operators._a_coeff_logs(branch, j, m_max, prefs, p, coeffs)

        monkeypatch.setattr(orthogonality, "_a_coeff_logs", counted)
        store = orthogonality._Store(P1, FWD_K)
        n_max = FWD_K + 3
        for branch, rows in store.rows.items():
            rows.upto(n_max)
            assert forward[-(n_max + 1) :] == [(branch, n, min(n, FWD_K)) for n in range(n_max + 1)]
        assert sorted(store._columns) == list(range(-FWD_K, FWD_K))
        labels = {"a": lambda n: n, "b": lambda n: -n - 1}
        for branch, rows in store.rows.items():
            for n in range(n_max + 1):
                c = store.c[branch].upto(n)[n]
                assert rows[n][0][0] == c  # a_0 = 1 on both routes
            for n in range(FWD_K):
                c = store.c[branch].upto(n)[n]
                duality = [store.column(labels[branch](n)).at(m)[0] for m in range(n + 1, FWD_K + 1)]
                with decimal.localcontext(store.context):
                    assert [x for x, _ in rows[n][n + 1 :]] == [c * x for x in duality]


def infinite_form(n: int, p: QParams, branch: str) -> float:
    """c_n (branch "a") or c'_n (branch "b") in the paper's infinite form:
    with (first, second, factor) = (a, b, 1) for c_n and (b, a, -b/a) for
    c'_n, the square root of

        factor (q^(n+1), first q^(n+1)/second, aq, bq; q)_inf q^n
            / (first q^(n+1), q, b/a, aq/b; q)_inf."""
    q, a, b = p.q, p.a, p.b
    first, second, factor = (a, b, 1) if branch == "a" else (b, a, -b / a)
    num = [q ** (n + 1), first * q ** (n + 1) / second, a * q, b * q]
    den = [first * q ** (n + 1), q, b / a, a * q / b]
    return math.sqrt(
        factor
        * math.prod(q_pochhammer_inf(x, q) for x in num)
        * q**n
        / math.prod(q_pochhammer_inf(x, q) for x in den)
    )


class TestNormalization:
    # the running products of the library against the infinite form
    @pytest.mark.parametrize("p", [P1, P2], ids=["p1", "p2"])
    @pytest.mark.parametrize("n", [0, 1, 3, 8])
    def test_both_forms_agree_c(self, p, n):
        assert normalization_c(n, p) == pytest.approx(infinite_form(n, p, "a"), rel=1e-12)

    @pytest.mark.parametrize("p", [P1, P2], ids=["p1", "p2"])
    @pytest.mark.parametrize("n", [0, 1, 3, 8])
    def test_both_forms_agree_cprime(self, p, n):
        assert normalization_cprime(n, p) == pytest.approx(infinite_form(n, p, "b"), rel=1e-12)

    @pytest.mark.parametrize("qab", [("0.9", "0.9", "-0.5"), ("0.3", "3.2", "-0.01")], ids=["q0.9", "retry"])
    def test_store_constants_match_closed_forms_at_40_digits(self, qab):
        # the store's c_n and c'_n, n <= 200, one running product per
        # branch, of Decimal parameters with a 1e-40 truncation, against the
        # printed closed forms at 60 digits, with mpmath.qp for the infinite
        # products; the printed c'_n is c_n with a and b swapped
        import decimal
        import itertools
        import operator

        import mpmath

        from qortho.orthogonality import _Store

        p = QParams(*map(decimal.Decimal, qab))
        store = _Store(p, 0)
        values = {branch: list(map(store.value, store.c[branch].upto(200)[:201])) for branch in "ab"}
        assert all(isinstance(x, decimal.Decimal) for x in values["a"] + values["b"])
        with mpmath.workdps(60):
            got = {branch: [mpmath.mpf(str(x)) for x in xs] for branch, xs in values.items()}
            q, a, b = map(mpmath.mpf, qab)
            xs = (q, a * q, b * q, a / b, b / a, a * q / b, b * q / a)
            infinite = {x: mpmath.qp(x, q) for x in xs}
            # (x; q)_0 .. (x; q)_201 as literal running products
            finite = {x: list(itertools.accumulate((1 - x * q**k for k in range(201)), operator.mul, initial=1)) for x in xs}

            def c_squared(n, first, second):
                return (
                    finite[first * q][n] * infinite[second * q] * q**n
                    / (finite[first * q / second][n] * finite[q][n] * infinite[second / first])
                )

            for n in range(201):
                cprime_squared = (-b / a) * q**n * finite[b * q][n] * infinite[a * q] / (
                    finite[q][n] * infinite[a * q / b] * finite[b / a][n + 1]
                )
                assert abs(cprime_squared / c_squared(n, b, a) - 1) <= mpmath.mpf(10) ** -39, n
                for branch, want in (("a", c_squared(n, a, b)), ("b", cprime_squared)):
                    want = mpmath.sqrt(want)
                    assert abs(got[branch][n] - want) <= mpmath.mpf(10) ** -35 * want, (branch, n)

    def test_rows_read_normalization_without_finite_products(self, monkeypatch):
        # the rows' c_n are one running product per branch: building rows
        # 0..N calls no finite q-Pochhammer product, and a number of
        # infinite ones (c_0, c'_0) that does not grow with N
        import collections

        from qortho import operators, orthogonality, polynomials, qseries

        calls = collections.Counter()

        def counted(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapped

        for module in (operators, orthogonality, polynomials):
            for name in ("q_pochhammer", "q_pochhammer_inf"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(name, getattr(qseries, name)))
        counts = []
        for n_rows in (10, 80):
            calls.clear()
            store = orthogonality._Store(QParams(q=0.9, a=0.9, b=-0.5), 8)
            for rows in store.rows.values():
                rows.upto(n_rows)
            counts.append(dict(calls))
        assert counts[0] == counts[1] == {"q_pochhammer_inf": 4}

    def test_c0_finite_positive(self):
        c0 = normalization_c(0, P1)
        assert c0 > 0 and math.isfinite(c0)

    def test_row_norm_unitarity(self):
        # c_n^2 sum_m a_m(a q^(n+1))^2 = 1
        for n in [0, 2, 5]:
            vec = eigen_coefficients(("a", n), P1, 90)
            cn = normalization_c(n, P1)
            assert cn**2 * float(np.sum(np.asarray(vec.coeffs) ** 2)) == pytest.approx(1.0, rel=1e-8)

    def test_row_norm_unitarity_lower_branch(self):
        for n in [0, 2, 5]:
            vec = eigen_coefficients(("b", n), P1, 90)
            cpn = normalization_cprime(n, P1)
            assert cpn**2 * float(np.sum(np.asarray(vec.coeffs) ** 2)) == pytest.approx(1.0, rel=1e-8)


class TestSpectrum:
    def test_first_points(self):
        sp = spectrum_points(P1, 5)
        assert sp.upper[0] == pytest.approx(0.25, rel=1e-15)
        assert sp.lower[0] == pytest.approx(-0.35, rel=1e-15)
        assert sp.upper[1] == pytest.approx(0.125, rel=1e-15)
        assert sp.lower[1] == pytest.approx(-0.175, rel=1e-15)

    def test_points_distinct_and_monotone(self):
        sp = spectrum_points(P1, 12)
        assert np.all(np.diff(np.abs(sp.upper)) < 0)
        assert np.all(np.diff(np.abs(sp.lower)) < 0)
        assert len(np.unique(np.concatenate([sp.upper, sp.lower]))) == 24

    @pytest.mark.parametrize("q", [0.5, 0.99, 1e-30, 1e-70, 1e-300])
    def test_ranked_labels_name_their_points(self, q):
        # each label (branch, n) is the point first q^(n+1) it comes with;
        # the points decrease in magnitude, and so does each branch, so ten
        # points per branch hold the ten largest of thirty
        p = QParams(q=q, a=0.5, b=-0.7)
        ranked = spectrum_points(p, 10).ranked()
        for (branch, n), x in ranked:
            assert x == (p.a if branch == "a" else p.b) * p.q ** (n + 1.0)
        magnitudes = [abs(x) for _, x in ranked]
        assert magnitudes == sorted(magnitudes, reverse=True)
        assert ranked[:10] == spectrum_points(p, 30).ranked()[:10]


def literal_bisection(d, e):
    """The eigensolver as one bisection step per Sturm count over all
    indices: the reference that the bisection with kept counts must
    reproduce."""
    n = d.size
    e2 = e * e
    rad = np.zeros(n)
    rad[:-1] += np.abs(e)
    rad[1:] += np.abs(e)
    lo = float(np.min(d - rad))
    hi = float(np.max(d + rad))
    norm = max(abs(lo), abs(hi), 1e-300)
    pivmin = 1e-290

    def count_below(xs):
        cnt = np.zeros(xs.shape, dtype=np.int64)
        dd = d[0] - xs
        dd = np.where(np.abs(dd) < pivmin, -pivmin, dd)
        cnt += dd < 0
        for i in range(1, n):
            dd = d[i] - xs - e2[i - 1] / dd
            dd = np.where(np.abs(dd) < pivmin, -pivmin, dd)
            cnt += dd < 0
        return cnt

    ks = np.arange(n)
    lob = np.full(n, lo - 1e-12 * norm)
    hib = np.full(n, hi + 1e-12 * norm)
    for _ in range(120):
        if np.all((hib - lob) <= 1e-14 * norm):
            break
        mid = 0.5 * (lob + hib)
        below = count_below(mid) > ks
        hib = np.where(below, mid, hib)
        lob = np.where(below, lob, mid)
    else:
        raise AssertionError("reference bisection did not converge")
    return 0.5 * (lob + hib)


def nearest_of(full, targets):
    full, targets = np.asarray(full), np.asarray(targets)
    return full[np.argmin(np.abs(full[None, :] - targets[:, None]), axis=1)]


def random_tridiagonals():
    """Seeded symmetric tridiagonals: plain, with repeated diagonal entries,
    and with zero couplings (exactly repeated eigenvalues)."""
    rng = np.random.default_rng(2024)
    cases = []
    for dim in (2, 7, 33, 90):
        d, e = rng.normal(size=dim), rng.normal(size=dim - 1)
        cases.append((d, e))
        cases.append((np.round(d), e))
        e0 = e.copy()
        e0[::3] = 0.0
        cases.append((np.full(dim, 0.5), e0))
    return cases


# the benchmark's spectrum solves reach dim 2000, so the two acceptance
# sets are also checked at dim 1000
NEAR_CASES = [
    pytest.param(p, dim, id=f"q{p.q}-a{p.a:.4g}-b{p.b}-{dim}")
    for p in [P1, P2] + EDGE_POINTS
    for dim in [12, 20, 60, 250] + ([1000] if p in (P1, P2) else [])
]


class TestEigTridiagonal:
    def test_dim_one(self):
        tri = Tridiagonal.symmetric(np.array([3.25]), np.array([]))
        assert np.asarray(eig_tridiagonal(tri)).tolist() == [3.25]

    def test_dim_one_near(self):
        tri = Tridiagonal.symmetric(np.array([3.25]), np.array([]))
        assert np.asarray(eig_tridiagonal(tri, near=[-1.0, 3.25, 7.0])).tolist() == [3.25, 3.25, 3.25]

    def test_no_targets(self):
        tri = build_A(P1, 12)
        assert np.asarray(eig_tridiagonal(tri, near=[])).shape == (0,)

    @pytest.mark.parametrize("p,dim", NEAR_CASES)
    def test_near_is_full_solve_pick(self, p, dim):
        tri = build_A(p, dim)
        exact = [x for _, x in spectrum_points(p, 30).ranked()[:10]]
        full = eig_tridiagonal(tri)
        assert np.array_equal(eig_tridiagonal(tri, near=exact), nearest_of(full, exact))

    @pytest.mark.parametrize("case", range(12))
    def test_near_is_full_solve_pick_random(self, case):
        d, e = random_tridiagonals()[case]
        tri = Tridiagonal.symmetric(d, e)
        full = np.asarray(eig_tridiagonal(tri))
        rng = np.random.default_rng(case)
        bound = float(np.max(np.abs(d))) + 2 * float(np.max(np.abs(e), initial=0.0))
        targets = np.concatenate([
            rng.uniform(-bound, bound, size=6),  # anywhere in the spectrum's range
            full[rng.integers(0, d.size, size=4)],  # exactly on computed eigenvalues
            [-10 * bound - 1, 10 * bound + 1],  # outside the Gershgorin bounds
            0.5 * (full[:-1] + full[1:])[:3],  # halfway between neighbours
        ])
        assert np.array_equal(eig_tridiagonal(tri, near=targets), nearest_of(full, targets))

    @pytest.mark.parametrize("t,x", [
        (0.29631255822335756, 0.40737488355327967),
        (0.29631255822335256, 0.40737488355328666),
        (0.29631255822335884, 0.40737488355327683),
    ])
    def test_near_window_reaches_past_first_count_difference(self, t, x):
        # the widening stops at rho = 2^46 w with the eigenvalue 1 just
        # inside t + rho and -x just beyond t - rho; their distances from t
        # differ by less than a bracket width, so the window must reach
        # past rho for the computed eigenvalues to be compared
        tri = Tridiagonal.symmetric([-x, 1.0], [0.0])
        assert eig_tridiagonal(tri, near=[t]) == nearest_of(eig_tridiagonal(tri), [t]).tolist()

    def test_near_solve_count_budget(self, monkeypatch):
        # each target needs a few counts near it; the levels above are
        # decided by the counts that located its window
        from qortho import operators

        counted = []
        count = operators._sturm_count
        monkeypatch.setattr(operators, "_sturm_count", lambda rows, x: counted.append(x) or count(rows, x))
        exact = [x for _, x in spectrum_points(P2, 30).ranked()[:10]]
        eig_tridiagonal(build_A(P2, 2000), near=exact)
        assert 0 < len(counted) <= 100

    @pytest.mark.parametrize("case", ["operator", "random"])
    def test_cut_count_equals_full_count(self, case):
        # the count that stops where the tail can no longer flip a pivot
        # against the loop over every row, at shifts from 1e-250 to 10 of
        # either sign, below and at the floor under which no count is cut
        from qortho.operators import _CUT_FLOOR, _sturm_count, _sturm_rows

        def full_count(d, e, x):
            count, piv = 0, 1.0
            for i, di in enumerate(d):
                piv = di - x - (e[i - 1] * e[i - 1] if i else 0.0) / piv
                if piv < 1e-290:
                    count += 1
                    if piv > -1e-290:
                        piv = -1e-290
            return count

        if case == "operator":
            matrices = [
                (tri.diag, tri.offdiag)
                for q in (1e-30, 0.3, 0.7, 0.99, 0.995)
                for dim in (1, 2, 50, 2000)
                for tri in [build_A(QParams(q=q, a=0.5, b=-0.7), dim)]
            ]
        else:
            # decaying like rate^k, of mixed signs, with rates from 1e-3 to
            # 0.999 and tails that underflow to exact zeros
            rng = np.random.default_rng(38)
            matrices = []
            for rate in map(float, 10.0 ** -rng.uniform(math.log10(1 / 0.999), 3, size=30)):
                dim, scale = int(rng.integers(1, 600)), float(10.0 ** rng.uniform(-3, 3))
                d = [scale * float(x) * rate**k for k, x in enumerate(rng.normal(size=dim))]
                e = [scale * float(x) * rate ** (k + 0.5) for k, x in enumerate(rng.normal(size=dim - 1))]
                matrices.append((d, e))
            matrices.append(([1.0] + [0.0] * 99, [0.5] + [0.0] * 98))
        shifts = [float(x) for x in np.logspace(-250, 1, 150)] + [_CUT_FLOOR, 1e-300]
        points = [0.0] + shifts + [-x for x in shifts]
        for d, e in matrices:
            rows = _sturm_rows(d, e)
            for x in points:
                assert _sturm_count(rows, x) == full_count(d, e, x), (len(d), x)

    def test_cut_count_reads_the_support(self):
        # the rows a count walks before its tail test can pass depend on
        # |x| and q, not on dim: at q = 0.5 and |x| = 1e-3, the first 21
        import bisect

        from qortho.operators import _sturm_rows

        for dim in (100, 2000, 20000):
            tri = build_A(P1, dim)
            assert bisect.bisect_left(_sturm_rows(tri.diag, tri.offdiag)[1], -1e-3) == 21

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_input(self, bad):
        tri = build_A(P1, 12)
        with pytest.raises(DomainError):
            eig_tridiagonal(tri, near=[0.1, bad])
        with pytest.raises(DomainError):
            Tridiagonal.symmetric([0.5, bad], [0.25])
        with pytest.raises(DomainError):
            Tridiagonal.symmetric([0.5, 0.5], [bad])

    def test_full_solve_matches_literal_bisection_dim250(self):
        tri = build_A(P1, 250)
        assert np.array_equal(eig_tridiagonal(tri), literal_bisection(np.asarray(tri.diag), np.asarray(tri.offdiag)))

    def test_full_solve_matches_literal_bisection_random(self):
        rng = np.random.default_rng(42)
        d = rng.normal(size=60)
        e = rng.normal(size=59)
        got = eig_tridiagonal(Tridiagonal.symmetric(d, e))
        assert np.array_equal(got, literal_bisection(d, e))
        for case in random_tridiagonals():
            got = eig_tridiagonal(Tridiagonal.symmetric(*case))
            assert np.array_equal(got, literal_bisection(*case))

    def test_two_by_two_closed_form(self):
        d, e = 1.3, 0.6
        tri = Tridiagonal.symmetric(np.array([d, d]), np.array([e]))
        got = eig_tridiagonal(tri)
        assert got[0] == pytest.approx(d - e, rel=1e-13)
        assert got[1] == pytest.approx(d + e, rel=1e-13)

    def test_against_scipy(self):
        rng = np.random.default_rng(42)
        d = rng.normal(size=60)
        e = rng.normal(size=59)
        tri = Tridiagonal.symmetric(d, e)
        got = eig_tridiagonal(tri)
        from scipy.linalg import eigh_tridiagonal

        want = eigh_tridiagonal(d, e, eigvals_only=True)
        assert np.max(np.abs(np.asarray(got) - want)) <= 1e-12 * np.max(np.abs(want))

    def test_rejects_nonsymmetric(self):
        a1, _ = build_A1_A2(P1, 5)
        with pytest.raises(DomainError):
            eig_tridiagonal(a1)

    def test_matches_exact_spectrum_dim200(self):
        tri = build_A(P1, 200)
        eig = eig_tridiagonal(tri)
        exact = [x for _, x in spectrum_points(P1, 30).ranked()[:10]]
        for lam in exact:
            err = np.min(np.abs(np.asarray(eig) - lam))
            assert err <= 1e-8

    def test_truncation_convergence_doubling(self):
        exact = [x for _, x in spectrum_points(P1, 30).ranked()[:10]]
        errs = []
        for dim in [50, 100, 200, 400]:
            eig = np.asarray(eig_tridiagonal(build_A(P1, dim)))
            errs.append(max(float(np.min(np.abs(eig - lam))) for lam in exact))
        floor = 5e-15
        for prev, cur in zip(errs, errs[1:]):
            assert cur <= prev or cur <= floor

    def test_match_within_residual_bound(self):
        # the eigenvalue nearest each exact one lies within r + delta of
        # it, at the acceptance sets and at four edge points; dims 12 and
        # 20 exercise r, dim 250 (r underflows to 0) delta alone
        for q, a, b in [
            (0.5, 0.5, -0.7), (0.7, 0.9, -0.4), (0.95, 0.9, -3.0),
            (0.3, 3.2, -0.01), (0.55, 0.9, -0.7), (0.8, 0.6, -2.0),
        ]:
            p = QParams(q=q, a=a, b=b)
            labels, exact = zip(*spectrum_points(p, 10).ranked()[:10])
            exact = np.asarray(exact)
            for dim in (12, 20, 250):
                tri = build_A(p, dim)
                err = np.abs(eig_tridiagonal(tri, near=exact) - exact)
                bound = np.array(truncation_residuals(p, dim, labels)) + eig_tridiagonal_accuracy(tri)
                assert np.all(err <= bound), (q, a, b, dim)
        # r / |A[d-1, d]| is |a_d| from one exact dot of the duality
        # coefficients; the reference is the whole duality sequence, summed
        # with its Pochhammer symbols carried from degree to degree
        from qortho import polynomials

        for p in (P1, P2, QParams(q=0.3, a=3.2, b=-0.01), QParams(q=0.8, a=0.6, b=-2.0)):
            prefs = prefactors(p, 40)
            off = build_A(p, 41).offdiag
            for branch, j in [("a", 0), ("a", 3), ("a", 7), ("b", 0), ("b", 3), ("b", 7)]:
                seq = polynomials.spectral_sequence(p, branch, j, 40)
                for d in (1, 2, 5, 12, 20, 40):
                    want = abs(float(prefs[d]) * float(seq[d]))
                    got = truncation_residuals(p, d, [(branch, j)])[0] / abs(off[d - 1])
                    assert got == pytest.approx(want, rel=1e-11), (p, branch, j, d)

    @pytest.mark.parametrize(
        "params", [(0.5, 0.5, -0.7), (0.7, 0.9, -0.4), (0.99, 0.5, -0.7), (1e-30, 0.5, -0.7)], ids=str
    )
    def test_radius_meixner_is_the_2phi1(self, params):
        # M_n(q^-d) of the radius, the exact dot of the 32-digit duality
        # coefficients c_k with (q^-d; q)_k, against the independent 2phi1
        # on the same exact Decimals at 60 digits: they differ by the
        # rounding of c_k and (q^-d; q)_k, products of at most n factors,
        # each within a few units of 5e-32 once the cancellation of
        # 1 - q^i, at most 1/(1 - q), is undone, times the sum's condition
        # sum |c_k (q^-d; q)_k| / |M|
        from qortho.polynomials import _duality_coefficients, _duality_meixner, q_meixner
        from qortho.qseries import _working_context

        p = QParams(*params)
        for branch in "ab":
            for n in range(10):
                c = _duality_coefficients(p, branch, n)
                for d in (1, 2, 7, 250, 2000):
                    got, _ = _duality_meixner(p, branch, n, d)
                    with decimal.localcontext(_working_context(60)):
                        q, a, b = map(decimal.Decimal, p)
                        first, second = (a, b) if branch == "a" else (b, a)
                        want = q_meixner(n, d, first, -second / first, q)
                        poch = [q_pochhammer(q**-d, q, k) for k in range(min(n, d) + 1)]
                        mass = sum(abs(ck * pk) for ck, pk in zip(c, poch))
                        rounding = 10 * (n + 1) * decimal.Decimal("5e-32") / (1 - q)
                        assert abs(got - want) <= rounding * mass, (branch, n, d)

    def test_truncation_residuals_reject_float_point(self):
        # a point names no index: the label (branch, n) does, so neither a
        # spectral float nor any other is read back to one
        for point in (0.17, P1.a * P1.q):
            with pytest.raises(DomainError):
                truncation_residuals(P1, 10, [point])

    @pytest.mark.parametrize(
        "label",
        [
            ("c", 0), ("A", 1), ("a", -1), ("b", 2.0), ("a", 2.5), ("a", decimal.Decimal(2)),
            ("a",), ("a", 1, 0), ["a", 1], "a1", None,
        ],
        ids=str,
    )
    def test_truncation_residuals_reject_bad_labels(self, label):
        # a label is ("a" or "b", n), n a nonnegative integer; the bad one
        # fails the call even after a good one, and fails every other route
        # that takes a label, where a number is none
        from qortho.routes import big_q_laguerre_generating, generating_closed, generating_series

        calls = {
            "truncation_residuals": lambda: truncation_residuals(P1, 10, [("a", 0), label]),
            "eigen_coefficients": lambda: eigen_coefficients(label, P1, 4),
            "psi_phi_coefficients": lambda: psi_phi_coefficients(label, P1, 4),
            "qJ0_inverse_action": lambda: qJ0_inverse_action(label, P1),
            "big_q_laguerre_generating": lambda: big_q_laguerre_generating(2, label, P1),
            "generating_series": lambda: generating_series(label, 0.1, P1, 10),
            "generating_closed": lambda: generating_closed(label, 0.1, P1),
        }
        for call in calls.values():
            with pytest.raises(DomainError):
                call()

    @pytest.mark.parametrize("lam", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
    def test_non_finite_point_is_no_spectral_point(self, lam):
        # an infinite argument once raised OverflowError from every route
        # that read a float back to a spectral point; these routes take
        # labels, and a non-finite index is none
        from qortho.routes import big_q_laguerre_generating

        with pytest.raises(DomainError):
            truncation_residuals(P1, 10, [("a", lam)])
        with pytest.raises(DomainError):
            psi_phi_coefficients(("a", lam), P1, 4)
        with pytest.raises(DomainError):
            big_q_laguerre_generating(2, ("a", lam), P1)

    def test_truncation_residuals_reject_dim_below_one(self):
        # dim 0 reached log10(1 - q^0) and raised a bare math domain error
        for dim in (0, -3):
            with pytest.raises(DomainError):
                truncation_residuals(P1, dim, [("a", 0)])

    @pytest.mark.parametrize("route", ["build_A", "spectrum_points", "truncation_residuals"])
    def test_float_routes_reject_decimal_parameters(self, route):
        # each mixes the parameters with float powers, where Decimal ** float
        # raised TypeError
        calls = {
            "build_A": lambda p: build_A(p, 10),
            "spectrum_points": lambda p: spectrum_points(p, 10),
            "truncation_residuals": lambda p: truncation_residuals(p, 10, [("a", 0)]),
        }
        with pytest.raises(DomainError):
            calls[route](QParams(*map(decimal.Decimal, ("0.5", "0.5", "-0.7"))))

    def test_truncation_residuals_of_underflowed_points(self):
        # a q^5 at q = 1e-65 underflows to 0.0, and b q^5 at q = 1e-62 to a
        # subnormal with too few bits to read its index back; the label
        # still names the point, and r / |A[d-1, d]| is |a_d| from the
        # whole duality sequence of that label, as at normal points
        from qortho import polynomials

        for q, (branch, j), dims in [
            (1e-65, ("a", 4), (1, 2)), (1e-62, ("b", 4), (1, 2)), (1e-300, ("a", 9), (1,)),
        ]:
            p = QParams(q=q, a=0.5, b=-0.7)
            assert abs((p.a if branch == "a" else p.b) * p.q ** (j + 1.0)) < 2.0**-1022
            prefs, off = prefactors(p, 2), build_A(p, 3).offdiag
            seq = polynomials.spectral_sequence(p, branch, j, 2)
            for d in dims:
                want = abs(float(prefs[d]) * float(seq[d]))
                got = truncation_residuals(p, d, [(branch, j)])[0] / abs(off[d - 1])
                assert want > 0 and got == pytest.approx(want, rel=1e-11), (q, branch, j, d)

    def test_accuracy_bounds_the_solve_at_tiny_q(self):
        # at q = 1e-200 every squared off-diagonal underflows, so the float
        # Sturm count sees a diagonal matrix; the bound must still hold
        # against the exact eigenvalues of the float matrix, here from
        # mpmath at 60 digits
        mp = pytest.importorskip("mpmath")

        tri = build_A(QParams(q=1e-200, a=0.5, b=-0.7), 20)
        assert all(x * x < 2.0**-1022 for x in tri.offdiag)
        with mp.workdps(60):
            exact = sorted(mp.eigsy(mp.matrix(tri.dense()), eigvals_only=True))
            err = max(abs(mp.mpf(x) - y) for x, y in zip(eig_tridiagonal(tri), exact))
        bound = eig_tridiagonal_accuracy(tri)
        assert err <= bound
        # the bracket width and rounding alone fall short by 13 orders
        from qortho.operators import _BRACKET_WIDTH

        norm = max(map(abs, tri.diag)) + 2 * max(map(abs, tri.offdiag))
        assert err > 1e10 * (_BRACKET_WIDTH + 16 * 2.0**-53) * norm

    def test_overflowing_squares_solve_the_binary_scaled_matrix(self):
        # at b = -1e300 the squared off-diagonals overflow, which the Sturm
        # count reads: the solve of T is that of T 2^-k times 2^k, bit for
        # bit, with targets too, and the bound holds against the exact
        # eigenvalues of the float matrix, here from mpmath at 60 digits
        mp = pytest.importorskip("mpmath")

        p = QParams(q=0.5, a=1.0, b=-1e300)
        tri = build_A(p, 20)
        assert any(math.isinf(x * x) for x in tri.offdiag)
        k = math.frexp(max(map(abs, (*tri.diag, *tri.offdiag))))[1]
        scaled = Tridiagonal.symmetric(*([math.ldexp(x, -k) for x in band] for band in (tri.diag, tri.offdiag)))
        got = eig_tridiagonal(tri)
        assert got == [math.ldexp(x, k) for x in eig_tridiagonal(scaled)]
        exact = [x for _, x in spectrum_points(p, 10).ranked()[:10]]
        near = eig_tridiagonal(scaled, near=[math.ldexp(t, -k) for t in exact])
        assert eig_tridiagonal(tri, near=exact) == [math.ldexp(x, k) for x in near]
        bound = eig_tridiagonal_accuracy(tri)
        assert bound == math.ldexp(eig_tridiagonal_accuracy(scaled) + 3 * 2.0**-1074, k)
        with mp.workdps(60):
            want = sorted(mp.eigsy(mp.matrix(tri.dense()), eigvals_only=True))
            assert max(abs(mp.mpf(x) - y) for x, y in zip(got, want)) <= bound

    def test_spectrum_past_the_float_squares_is_certified(self, tmp_path):
        # an unscaled count put 6.8e297 where b q^2 = -2.5e299 lies, and its
        # bound was inf: every match carries a finite bound that holds
        from qortho import cli

        out = tmp_path / "r.json"
        assert cli.main(["spectrum", "--q", "0.5", "--a", "1.0", "--b", "-1e300", "--dim", "20", "--out", str(out)]) == 0
        matches = [r for r in json.loads(out.read_text())["records"] if r["identity_id"] == "spectrum-match"]
        assert len(matches) == 20
        for r in matches:
            assert math.isfinite(r["tail_estimate"]) and r["residual"] <= r["tail_estimate"], r

    @pytest.mark.parametrize("p", [P1, P2], ids=["p1", "p2"])
    def test_spectral_containment(self, p):
        for dim in [50, 120]:
            eig = np.asarray(eig_tridiagonal(build_A(p, dim)))
            assert np.all(eig >= p.b * p.q - 1e-8)
            assert np.all(eig <= p.a * p.q + 1e-8)


class TestTruncationRadius:
    """The radius r of `truncation_residuals`, formed in Decimals and
    rounded up to a float."""

    @staticmethod
    def reference(p, d, label):
        """r at 120 digits from the closed form, on the exact values of p."""
        mp = pytest.importorskip("mpmath")
        branch, n = label
        with mp.workdps(120):
            q, a, b = map(mp.mpf, p)
            first, second = (a, b) if branch == "a" else (b, a)

            def poch(x, k):
                return mp.fprod(1 - x * q**i for i in range(k))

            z = q ** (n + 1) * first / second
            meixner = mp.fsum(
                poch(q**-n, k) * poch(q**-d, k) * z**k / (poch(first * q, k) * poch(q, k))
                for k in range(min(n, d) + 1)
            )
            return (
                mp.sqrt(-a * b * q ** (d + 1) * (1 - q**d) * (1 - a * q**d) * (1 - b * q**d))
                * (abs(second) / abs(first)) ** (mp.mpf(d) / 2)
                * q ** (mp.mpf(d * (d - 1)) / 4)
                * mp.sqrt(poch(first * q, d) / (poch(q, d) * poch(second * q, d)))
                * abs(meixner)
            )

    def test_radius_bounds_the_reference_tightly(self):
        # r is never below the 120-digit truth, and at most 2^-50 above it
        # where the truth is a normal float; below that the float grid is
        # coarser, and an r below it is 0.0
        normal = 0
        for q in (0.3, 0.5, 0.95, 0.998, 1e-30):
            for a, b in ((0.5, -0.7), (0.9, -0.4), (0.5, -1e4), (0.5, -0.01), (1.9, -3.0)):
                if not a * q < 1:
                    continue
                p = QParams(q=q, a=a, b=b)
                labels = [label for label, _ in spectrum_points(p, 10).ranked()[:10]]
                for d in (1, 2, 3, 7, 20, 60):
                    for label, r in zip(labels, truncation_residuals(p, d, labels)):
                        truth = self.reference(p, d, label)
                        case = (q, a, b, d, label, r)
                        if truth >= 2.0**-1022:
                            normal += 1
                            assert truth <= r <= truth * (1 + 2.0**-50), case
                        elif r == 0.0:
                            assert truth < 2.0**-1074, case
                        else:
                            assert truth <= r <= truth + 2.0**-1073, case
        assert normal > 1000

    @staticmethod
    def full_product(a, q, n):
        """(a; q)_n with every factor multiplied in."""
        out, aqk = (1.0 if isinstance(a, float) and isinstance(q, float) else a * 0 + 1), a
        for _ in range(n):
            out, aqk = out * (1 - aqk), aqk * q
        return out

    def test_q_pochhammer_early_stop_keeps_the_bits(self):
        # the product stops where each factor rounds to exactly 1: floats of
        # both signs, and Decimals at 32 and 52 digits, keep the bits
        cases = list(
            itertools.product((0.5, -0.7, 3.2, -1e4, 1e-20, -1e300), (0.5, 0.9, 0.998, 1e-30), (0, 1, 7, 60, 2000))
        )
        for a, q, n in cases:
            got, want = q_pochhammer(a, q, n), self.full_product(a, q, n)
            assert got.hex() == want.hex(), (a, q, n)
        for prec in (32, 52):
            with decimal.localcontext(decimal.Context(prec=prec)):
                for a, q, n in cases:
                    a, q = decimal.Decimal(a), decimal.Decimal(q)
                    assert q_pochhammer(a, q, n) == self.full_product(a, q, n), (prec, a, q, n)
        # 1 - z keeps the imaginary part of z, however small: no early stop
        got = q_pochhammer(1e-20j, 0.5, 60)
        assert got == self.full_product(1e-20j, 0.5, 60) and got.imag == pytest.approx(-2e-20, rel=1e-12)

    @pytest.mark.parametrize(
        "q,aq,b",
        [
            (q, aq, b)
            for q in (1e-30, 0.01, 0.5, 0.9, 0.99)
            for aq, b in ((1e-300, -1e-100), (1e-300, -1e-300), (1e-30, -1e-300))
            if aq < q
        ],
        ids=str,
    )
    def test_spectrum_where_ab_underflows(self, tmp_path, q, aq, b):
        # a |b| underflows to 0.0 in floats, where the float log of the
        # radius once raised a math domain error; each record passes
        from qortho import cli

        out = tmp_path / "r.json"
        argv = ["spectrum", "--q", repr(q), "--a", repr(aq / q), "--b", repr(b), "--dim", "20", "--out", str(out)]
        assert cli.main(argv) == 0
        records = json.loads(out.read_text())["records"]
        assert len(records) == 30 and all(r["status"] == "pass" for r in records)


class TestQJ0InverseAction:
    def test_sub_vanishes_at_zero_upper(self):
        sub, _, _ = qJ0_inverse_action(("a", 0), P1)
        assert sub == 0.0

    def test_sub_vanishes_at_zero_lower(self):
        sub, _, _ = qJ0_inverse_action(("b", 0), P1)
        assert sub == 0.0

    @pytest.mark.parametrize("branch", ["a", "b"])
    @pytest.mark.parametrize("n", [0, 1, 3, 5])
    def test_diagonal_action_oracle(self, branch, n):
        # applying the three-term coefficients to the eigenvector
        # expansions must reproduce the diagonal action q^(-l-m) on f_m
        p = P1
        m_max = 60
        sub, diag, sup = qJ0_inverse_action((branch, n), p)
        vec = np.asarray(eigen_coefficients((branch, n), p, m_max).coeffs)
        vec_up = np.asarray(eigen_coefficients((branch, n + 1), p, m_max).coeffs)
        if n == 0:
            vec_dn = np.zeros(m_max + 1)
        else:
            vec_dn = np.asarray(eigen_coefficients((branch, n - 1), p, m_max).coeffs)
        qinvl = p.a**-0.5 * p.q**-0.5  # q^(-l)
        m = np.arange(m_max + 1, dtype=float)
        lhs = qinvl * p.q ** (-m) * vec
        rhs = sup * vec_up + diag * vec + sub * vec_dn
        # compare where the diagonal action is numerically meaningful
        keep = slice(0, m_max - 10)
        scale = np.max(np.abs(lhs[keep]))
        assert np.max(np.abs(lhs[keep] - rhs[keep])) <= 1e-9 * scale

    @pytest.mark.parametrize("branch", ["a", "b"])
    def test_orthonormal_variant_consistent_with_plain(self, branch):
        # normalized coefficients are the plain ones scaled by c-ratios
        p = P1
        cfun = normalization_c if branch == "a" else normalization_cprime
        for n in [1, 2, 4]:
            sub, diag, sup = qJ0_inverse_action((branch, n), p)
            subo, diago, supo = qJ0_inverse_action((branch, n), p, orthonormal=True)
            cn = cfun(n, p)
            assert diago == pytest.approx(diag, rel=1e-13)
            assert supo == pytest.approx(sup * cn / cfun(n + 1, p), rel=1e-11)
            assert subo == pytest.approx(sub * cn / cfun(n - 1, p), rel=1e-11)


class TestA1A2:
    def test_transpose_exact(self):
        a1, a2 = build_A1_A2(P1, 40)
        assert a2.lower is a1.upper and a2.upper is a1.lower
        assert np.array_equal(np.asarray(a1.dense()).T, np.asarray(a2.dense()))

    def test_diagonals_match_A(self):
        a1, a2 = build_A1_A2(P1, 25)
        tri = build_A(P1, 25)
        assert np.array_equal(a1.diag, a2.diag)
        assert np.max(np.abs(np.asarray(a1.diag) - tri.diag)) <= 1e-15

    def test_composition_matches_entries(self):
        for p in (P1, P2):
            dim = 25
            a1, a2 = build_A1_A2(p, dim)
            c1, c2 = map(np.asarray, compose_A1_A2_from_generators(p, dim))
            scale = np.max(np.abs(a1.dense()))
            assert np.max(np.abs(a1.dense() - c1)[: dim - 1, : dim - 1]) <= 1e-12 * scale
            assert np.max(np.abs(a2.dense() - c2)[: dim - 1, : dim - 1]) <= 1e-12 * scale

    @pytest.mark.parametrize("branch,j", [("a", 0), ("a", 2), ("b", 1)])
    def test_psi_phi_eigen_residuals(self, branch, j):
        p = P1
        lam = (p.a if branch == "a" else p.b) * p.q ** (j + 1)
        m_max = 35
        psi, phi = psi_phi_coefficients((branch, j), p, m_max)
        a1, a2 = build_A1_A2(p, m_max + 1)
        for tri, vec in [(a1, psi), (a2, phi)]:
            v = np.asarray(vec.coeffs)
            resid = tri.apply(v) - lam * v
            for m in range(1, m_max - 5):
                row_scale = max(
                    abs(tri.diag[m] * v[m]),
                    abs(tri.lower[m - 1] * v[m - 1]),
                    abs(tri.upper[m] * v[m + 1]),
                    abs(lam * v[m]),
                )
                if row_scale > 0:
                    assert abs(resid[m]) <= 1e-9 * row_scale

    def test_psi_phi_zeroth_coefficients(self):
        psi, phi = psi_phi_coefficients(("a", 0), P1, 10)
        assert psi.coeffs[0] == 1.0 and phi.coeffs[0] == 1.0

    def test_row0_residual_of_psi_under_A1(self):
        lam = P1.a * P1.q
        psi, _ = psi_phi_coefficients(("a", 0), P1, 10)
        a1, _ = build_A1_A2(P1, 11)
        r0 = a1.diag[0] * psi.coeffs[0] + a1.upper[0] * psi.coeffs[1] - lam * psi.coeffs[0]
        assert abs(r0) <= 1e-10

    def test_biorthogonal_inner_product(self):
        # <psi(aq), phi(aq)> c_0^2 = 1
        psi, phi = psi_phi_coefficients(("a", 0), P1, 70)
        c0 = normalization_c(0, P1)
        ip = float(np.dot(psi.coeffs, phi.coeffs))
        assert ip * c0**2 == pytest.approx(1.0, rel=1e-8)

    def test_psi_closed_form(self):
        # series coefficients resummed by the q-binomial theorem:
        # psi_lam(x) = ((a/b^2)^(1/4) x; q)_inf
        #              * 2phi1(bq/lam, 0; bq; q, a^(-3/4)(-b)^(-1/2) q^(-1) x lam)
        from qortho.qseries import phi_2_1, q_pochhammer_inf
        from qortho.polynomials import spectral_sequence

        p = P1
        q, a, b = p.q, p.a, p.b
        for j, xval in [(0, 0.15), (2, -0.3)]:
            lam = a * q ** (j + 1)
            seq = spectral_sequence(p, "a", j, 60)
            clm = 1.0
            total = 0.0
            # monomial coefficients: psi_k * c^l_k
            for k in range(60):
                term = (
                    a ** (-3 * k / 4.0)
                    * (-b) ** (-k / 2.0)
                    * q ** (-k)
                    * q_pochhammer(a * q, q, k)
                    / q_pochhammer(q, q, k)
                    * float(seq[k])
                    * xval**k
                )
                total += term
            arg = a**-0.75 * (-b) ** -0.5 * q**-1 * xval * lam
            want = q_pochhammer_inf((a / b**2) ** 0.25 * xval, q) * phi_2_1(
                b * q / lam, 0.0, b * q, q, arg
            )
            assert total == pytest.approx(want, rel=1e-10)
