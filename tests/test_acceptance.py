"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line.  Tolerances are pinned here and nowhere else."""

import json
import math
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np

from qortho.qseries import QParams, q_pochhammer
from qortho.polynomials import (
    big_q_laguerre,
    big_q_laguerre_recurrence,
    classical_laguerre,
    q_meixner,
    spectral_sequence,
)
from qortho.routes import big_q_laguerre_generating, dual_f, dual_g, q_inverse_meixner_relation
from qortho.operators import build_A, eig_tridiagonal, spectrum_points
from qortho.representation import build_A1_A2, compose_A_from_generators, psi_phi_coefficients
from qortho.orthogonality import run_identity_checks
from qortho.climit import (
    LimitSweep,
    classical_eigenfunction,
    classical_operator_check,
    limit_polynomial_check,
)

P1 = QParams(q=0.5, a=0.5, b=-0.7)
P2 = QParams(q=0.7, a=0.9, b=-0.4)


@contextmanager
def criterion(num, name):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {num} ({name}): PASS")


def test_criterion_1_orthogonality_suite():
    with criterion(1, "orthogonality suite"):
        t0 = time.monotonic()
        for p in (P1, P2):
            reports = run_identity_checks("all", p, index_max=8, tolerance=1e-8)
            statuses = {r.status for r in reports}
            assert "inconclusive" not in statuses, "inconclusive checks present"
            assert statuses == {"pass"}, {
                (r.identity_id, r.indices): r.status for r in reports if r.status != "pass"
            }
        elapsed = time.monotonic() - t0
        assert elapsed < 60.0, f"sweep took {elapsed:.1f}s"


def test_criterion_2_spectrum():
    with criterion(2, "spectrum"):
        exact = [x for _, x in spectrum_points(P1, 40).ranked()[:10]]
        errs = {}
        for dim in (200, 400):
            eig = np.asarray(eig_tridiagonal(build_A(P1, dim)))
            errs[dim] = np.array([np.min(np.abs(eig - lam)) for lam in exact])
        assert np.all(errs[200] <= 1e-8), errs[200]
        # error must not grow when dim doubles; at these dimensions the
        # truncation perturbation of the extreme eigenvalues is already
        # below the eigensolver's floating-point floor, so "monotone"
        # means monotone down to that floor
        floor = 1e-14 * np.abs(np.asarray(exact, dtype=float))
        assert np.all((errs[400] <= errs[200]) | (errs[400] <= floor)), (errs[200], errs[400])


def test_criterion_3_cross_definition_consistency():
    with criterion(3, "cross-definition consistency"):
        p = P1
        # series vs recurrence on the full spectral grid, n <= 20
        for branch in ("a", "b"):
            for k in range(9):
                x = (p.a if branch == "a" else p.b) * p.q ** (k + 1)
                rec = big_q_laguerre_recurrence(20, x, p)
                seq = spectral_sequence(p, branch, k, 20)
                for n in range(21):
                    ser = float(seq[n])  # duality spectral value
                    direct = big_q_laguerre(n, x, p)  # terminating-series definition
                    assert abs(direct - ser) <= 1e-10 * max(1.0, abs(ser))
                    assert abs(rec[n] - ser) <= 1e-10 * max(1.0, abs(ser))
        # generating-function coefficient extraction, pairwise vs series
        for branch, k in [("a", 0), ("a", 2), ("b", 1)]:
            x = (p.a if branch == "a" else p.b) * p.q ** (k + 1)
            for n in range(21):
                gen = big_q_laguerre_generating(n, (branch, k), p)
                ser = big_q_laguerre(n, x, p)
                rec = big_q_laguerre_recurrence(n, x, p)[-1]
                scale = max(1.0, abs(ser))
                assert abs(gen - ser) <= 1e-10 * scale, (branch, k, n)
                assert abs(gen - rec) <= 1e-10 * scale, (branch, k, n)


def test_criterion_4_duality():
    with criterion(4, "duality"):
        import mpmath

        for p in (P1, P2):
            q, a, b = p.q, p.a, p.b
            for n in range(13):
                for m in range(13):
                    with mpmath.workdps(40):
                        pref_f = q_pochhammer(mpmath.mpf(q) ** (-m) / b, mpmath.mpf(q), m)
                        pref_g = q_pochhammer(mpmath.mpf(q) ** (-m) / a, mpmath.mpf(q), m)
                        want_f = float(q_meixner(n, m, a, -b / a, q) / pref_f)
                        want_g = float(q_meixner(n, m, b, -a / b, q) / pref_g)
                    got_f = dual_f(n, m, p)
                    got_g = dual_g(n, m, p)
                    assert abs(got_f - want_f) <= 1e-11 * max(abs(want_f), 1e-280), (n, m)
                    assert abs(got_g - want_g) <= 1e-11 * max(abs(want_g), 1e-280), (n, m)
        # base-inversion interrelation
        for n in range(11):
            for x, bb, c in [(2.0, 2.0, 0.3), (0.7, -1.5, 0.9), (1.3, 3.0, 1.1)]:
                lhs, rhs = q_inverse_meixner_relation(n, x, bb, c, 0.5)
                assert abs(lhs - rhs) <= 1e-10 * (1 + abs(rhs)), (n, x, bb, c)


def test_criterion_5_operator_algebra():
    with criterion(5, "operator algebra"):
        for p in (P1, P2):
            dim = 40
            direct = np.asarray(build_A(p, dim).dense())
            composed = np.asarray(compose_A_from_generators(p, dim))
            scale = np.max(np.abs(direct))
            assert np.max(np.abs(direct - composed)[: dim - 1, : dim - 1]) <= 1e-12 * scale
            a1, a2 = build_A1_A2(p, dim)
            assert np.array_equal(np.asarray(a1.dense()).T, np.asarray(a2.dense()))
            for branch, j in [("a", 0), ("a", 3), ("b", 1)]:
                lam = (p.a if branch == "a" else p.b) * p.q ** (j + 1)
                m_max = 30
                psi, phi = psi_phi_coefficients((branch, j), p, m_max)
                t1, t2 = build_A1_A2(p, m_max + 1)
                for tri, vec in ((t1, psi), (t2, phi)):
                    v = np.asarray(vec.coeffs)
                    resid = tri.apply(v) - lam * v
                    for m in range(1, m_max - 5):
                        row_scale = max(
                            abs(tri.diag[m] * v[m]),
                            abs(tri.lower[m - 1] * v[m - 1]),
                            abs(tri.upper[m] * v[m + 1]),
                            abs(lam * v[m]),
                            1e-280,
                        )
                        assert abs(resid[m]) <= 1e-9 * row_scale, (branch, j, m)


def test_criterion_6_classical_limit():
    with criterion(6, "classical limit"):
        sweep = LimitSweep(alpha=1.0, beta=0.5)
        for n in range(7):
            reports = limit_polynomial_check(n, 0.4, sweep)
            rate = [r for r in reports if r.identity_id == "climit-poly-rate"][0]
            assert rate.passed
            assert math.isnan(rate.lhs) or rate.lhs >= 0.9
            assert all(r.passed for r in reports)
        for lam in (0.0, 0.25, 0.5, 1.0):
            for x in (-0.5, -0.25, 0.0, 0.25, 0.5):
                closed = classical_eigenfunction(lam, x, 1.0)
                # sum_n L_n^(2l-1)(1-lam) x^n at l = 1, to 80 terms
                series = math.fsum(classical_laguerre(n, 1.0, 1.0 - lam) * x**n for n in range(80))
                assert abs(closed - series) <= 1e-10 * (1 + abs(closed))
        rep = classical_operator_check(0.25, 0.2, 1.0, h=1e-3)
        assert rep.passed and rep.residual <= rep.tolerance


def test_criterion_7_cli_contract(tmp_path):
    with criterion(7, "CLI contract"):
        import jsonschema

        from qortho.reporting import REPORT_SCHEMA

        base = [sys.executable, "-m", "qortho"]
        golden = [
            "verify", "--identity", "all", "--q", "0.5", "--a", "0.5", "--b", "-0.7",
            "--index-max", "2", "--no-timestamp",
        ]
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        r1 = subprocess.run(base + golden + ["--out", str(out1)], capture_output=True)
        r2 = subprocess.run(base + golden + ["--out", str(out2)], capture_output=True)
        assert r1.returncode == 0 and r2.returncode == 0
        assert out1.read_bytes() == out2.read_bytes(), "output not deterministic"
        payload = json.loads(out1.read_text())
        jsonschema.validate(payload, REPORT_SCHEMA)
        usage = subprocess.run(base + ["verify", "--b", "0.7"], capture_output=True, text=True)
        assert usage.returncode == 64 and "b must be negative" in usage.stderr
        csv_out = tmp_path / "r.csv"
        r3 = subprocess.run(
            base + ["verify", "--identity", "sears", "--format", "csv", "--out", str(csv_out)],
            capture_output=True,
        )
        assert r3.returncode == 0
        assert csv_out.read_text().splitlines()[0] == (
            "identity_id,i,j,lhs,rhs,residual,terms_used,tail_estimate,status"
        )
