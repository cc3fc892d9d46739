"""End-to-end CLI tests: exit codes, schema validity, determinism."""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

BASE = [sys.executable, "-m", "qortho"]


def run_cli(*args):
    return subprocess.run(BASE + list(args), capture_output=True, text=True)


class TestExitCodes:
    def test_sears_single_record(self, tmp_path):
        out = tmp_path / "r.json"
        res = run_cli("verify", "--identity", "sears", "--q", "0.5", "--a", "0.5", "--b", "-0.7", "--out", str(out))
        assert res.returncode == 0
        payload = json.loads(out.read_text())
        assert len(payload["records"]) == 1
        assert payload["summary"] == {"passed": 1, "failed": 0, "inconclusive": 0}

    def test_usage_error_positive_b(self):
        res = run_cli("verify", "--b", "0.7")
        assert res.returncode == 64
        assert "b must be negative" in res.stderr

    def test_usage_error_bad_q(self):
        res = run_cli("verify", "--q", "1.5")
        assert res.returncode == 64
        assert "q must lie strictly in (0, 1)" in res.stderr

    def test_usage_error_bad_identity(self):
        res = run_cli("verify", "--identity", "nope")
        assert res.returncode == 64

    def test_usage_error_unknown_command(self):
        res = run_cli("frobnicate")
        assert res.returncode == 64

    def test_inconclusive_exit_two(self, tmp_path):
        # a tolerance below the certifiable tail makes the check
        # inconclusive rather than pass/fail
        out = tmp_path / "r.json"
        res = run_cli(
            "verify", "--identity", "sears", "--tol", "1e-16", "--out", str(out)
        )
        assert res.returncode == 2
        payload = json.loads(out.read_text())
        assert payload["summary"]["inconclusive"] == 1
        assert payload["summary"]["failed"] == 0
        # below double rounding no spectrum match is certified, and the
        # float eigenvalues, a few ulp off, contradict none of the bounds
        res = run_cli("spectrum", "--dim", "60", "--tol", "1e-17", "--out", str(out))
        assert res.returncode == 2
        payload = json.loads(out.read_text())
        assert payload["summary"]["failed"] == 0

    def test_failure_exit_one(self, tmp_path, monkeypatch):
        # a solve that misses every exact eigenvalue by 1e-6 contradicts
        # the residual bound, which at dim 60 is near double rounding
        from qortho import cli

        solve = cli.eig_tridiagonal
        monkeypatch.setattr(cli, "eig_tridiagonal", lambda tri, near: solve(tri, near=near) + 1e-6)
        out = tmp_path / "r.json"
        assert cli.main(["spectrum", "--dim", "60", "--out", str(out)]) == 1
        payload = json.loads(out.read_text())
        fails = [r for r in payload["records"] if r["status"] == "fail"]
        assert len(fails) == 20
        assert all(r["identity_id"] == "spectrum-match" and r["tail_estimate"] < 1e-13 for r in fails)

    def test_full_sweep_exit_zero(self, tmp_path):
        out = tmp_path / "r.json"
        res = run_cli(
            "verify", "--identity", "all", "--q", "0.5", "--a", "0.5", "--b", "-0.7",
            "--index-max", "5", "--out", str(out),
        )
        assert res.returncode == 0
        payload = json.loads(out.read_text())
        assert payload["summary"]["failed"] == 0
        assert payload["summary"]["inconclusive"] == 0
        assert payload["summary"]["passed"] == len(payload["records"])


class TestSchema:
    def test_records_validate(self, tmp_path):
        import jsonschema

        from qortho.reporting import REPORT_SCHEMA

        out = tmp_path / "r.json"
        res = run_cli(
            "verify", "--identity", "dual", "--index-max", "2", "--out", str(out), "--no-timestamp"
        )
        assert res.returncode == 0
        payload = json.loads(out.read_text())
        jsonschema.validate(payload, REPORT_SCHEMA)

    def test_spectrum_records_validate(self, tmp_path):
        import jsonschema

        from qortho.reporting import REPORT_SCHEMA

        out = tmp_path / "r.json"
        res = run_cli("spectrum", "--dim", "60", "--out", str(out), "--no-timestamp")
        assert res.returncode == 0
        jsonschema.validate(json.loads(out.read_text()), REPORT_SCHEMA)

    def test_limit_records_validate(self, tmp_path):
        import jsonschema

        from qortho.reporting import REPORT_SCHEMA

        out = tmp_path / "r.json"
        res = run_cli("limit", "--index-max", "2", "--out", str(out), "--no-timestamp")
        assert res.returncode == 0
        jsonschema.validate(json.loads(out.read_text()), REPORT_SCHEMA)

    def test_csv_header(self, tmp_path):
        out = tmp_path / "r.csv"
        res = run_cli("verify", "--identity", "sears", "--format", "csv", "--out", str(out))
        assert res.returncode == 0
        header = out.read_text().splitlines()[0]
        assert header == "identity_id,i,j,lhs,rhs,residual,terms_used,tail_estimate,status"


class TestDeterminism:
    def test_byte_identical_json(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["verify", "--identity", "meixner", "--index-max", "3", "--no-timestamp"]
        assert run_cli(*args, "--out", str(a)).returncode == 0
        assert run_cli(*args, "--out", str(b)).returncode == 0
        assert a.read_bytes() == b.read_bytes()

    def test_timestamp_field_isolated(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["verify", "--identity", "sears"]
        run_cli(*args, "--out", str(a))
        run_cli(*args, "--out", str(b))
        pa, pb = json.loads(a.read_text()), json.loads(b.read_text())
        pa.pop("generated_at"), pb.pop("generated_at")
        assert pa == pb

    def test_jobs_do_not_change_output(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = [
            "verify", "--identity", "all", "--index-max", "2", "--no-timestamp",
        ]
        assert run_cli(*args, "--jobs", "1", "--out", str(a)).returncode == 0
        assert run_cli(*args, "--jobs", "4", "--out", str(b)).returncode == 0
        content_a = json.loads(a.read_text())
        content_b = json.loads(b.read_text())
        content_a["config"].pop("jobs")
        content_b["config"].pop("jobs")
        assert content_a == content_b

    def test_float_17_digits(self, tmp_path):
        out = tmp_path / "r.json"
        run_cli("verify", "--identity", "sears", "--no-timestamp", "--out", str(out))
        text = out.read_text()
        assert '"b": -0.69999999999999996' in text


class TestVerifyTasks:
    def test_run_identity_checks_called_once_per_family(self, tmp_path, monkeypatch):
        # the benchmark's traced runs time each family by the first
        # argument of cli.run_identity_checks, so a task that runs several
        # families must still call it once for each, by name
        from qortho import cli
        from qortho.orthogonality import IDENTITY_FAMILIES

        calls = []

        def fake(identity, *args, **kwargs):
            calls.append(identity)
            return []

        monkeypatch.setattr(cli, "run_identity_checks", fake)
        assert cli.main(["verify", "--identity", "all", "--out", str(tmp_path / "r.json")]) == 0
        assert sorted(calls) == sorted(IDENTITY_FAMILIES)

    @pytest.mark.parametrize("point", [(0.5, 0.5, -0.7), (0.7, 0.9, -0.4), (0.95, 0.9, -3.0)], ids=str)
    def test_grouped_task_records_equal_single_family_runs(self, point):
        # unitarity, dual and biortho run as one task on one store and read
        # the sums of whichever family asked first; every record must equal
        # that of a cold run of its family alone and of --jobs 2.  At
        # (0.95, 0.9, -3.0) the grouped task serves label requests at
        # cut-offs 48 and 96 after unitarity-rows asked for cut-off 8
        from qortho.cli import _verify_task_records
        from qortho.orthogonality import _STORE_FAMILIES
        from qortho.reporting import render_csv

        q, a, b = point

        def records(families):
            return _verify_task_records((families, q, a, b, 8, 1e-8, "double"))

        def key(rec):
            return rec["identity_id"], rec["i"], rec["j"]

        grouped = render_csv(sorted(records(_STORE_FAMILIES), key=key))
        alone = render_csv(sorted((r for fam in _STORE_FAMILIES for r in records((fam,))), key=key))
        assert grouped == alone
        res = run_cli(
            "verify", "--identity", "all", "--jobs", "2", "--q", repr(q), "--a", repr(a), "--b", repr(b),
            "--format", "csv", "--no-timestamp",
        )
        ids = {line.split(",")[0] for line in grouped.splitlines()[1:]}
        jobs2 = [line for line in res.stdout.splitlines() if line.split(",")[0] in ids]
        assert len(jobs2) == 3 * 171 + 45  # the columns sums in three families, and the rows
        assert jobs2 == grouped.splitlines()[1:]


class TestProcessHistory:
    def test_commands_leave_no_module_state(self, tmp_path):
        # a record must not depend on what ran before it in the process, so
        # no command may fill or change a module-level container
        import copy

        import qortho.cli

        def snapshot():
            return {
                (mod_name, name): copy.deepcopy(value)
                for mod_name, mod in sorted(sys.modules.items())
                if mod_name == "qortho" or mod_name.startswith("qortho.")
                for name, value in vars(mod).items()
                if isinstance(value, (dict, list, set)) and not name.startswith("__")
            }

        before = snapshot()
        assert before
        for argv in (["verify", "--identity", "all"], ["table"]):
            assert qortho.cli.main(argv + ["--out", str(tmp_path / "r.json"), "--no-timestamp"]) == 0, argv
        assert snapshot() == before

    def test_edge_point_basis_index_families_pass(self):
        # an edge point near q = 1 where the label coefficients a_m at
        # m <= 131 must keep their relative accuracy; unitarity-columns
        # (-5, -5) is 1 to 2.5e-11 there
        res = run_cli(
            "verify", "--identity", "all", "--index-max", "4", "--q", "0.95", "--a", "0.5", "--b", "-0.01",
            "--format", "csv", "--no-timestamp",
        )
        rows = [line.split(",") for line in res.stdout.splitlines()[1:]]
        for family in ("unitarity-columns", "biortho"):
            statuses = [row[-1] for row in rows if row[0] == family]
            assert len(statuses) == 55 and set(statuses) == {"pass"}, family


class TestStartup:
    def test_import_does_not_load_process_pool(self):
        # only `verify --jobs N` needs the pool; every other command would
        # pay its import at start-up
        code = "import sys, qortho.cli; print('concurrent.futures.process' in sys.modules)"
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "False"

    def test_only_matrix_commands_load_numpy(self, tmp_path):
        # verify, table and limit never build a truncated matrix, so their
        # cold start must not pay numpy's import; spectrum solves one
        code = textwrap.dedent(
            """
            import json, sys
            import qortho
            seen = [("import qortho", "numpy" in sys.modules)]
            import qortho.cli
            seen.append(("import qortho.cli", "numpy" in sys.modules))
            out = sys.argv[1]
            for argv in (
                ["verify", "--identity", "all", "--index-max", "2"],
                ["verify", "--identity", "all", "--index-max", "2", "--precision", "extended"],
                ["verify", "--identity", "all", "--index-max", "2", "--jobs", "2"],
                ["table"],
                ["limit"],
                ["spectrum", "--dim", "20"],
            ):
                qortho.cli.main(argv + ["--out", out, "--no-timestamp"])
                seen.append((" ".join(argv), "numpy" in sys.modules))
            print(json.dumps(seen))
            """
        )
        res = subprocess.run([sys.executable, "-c", code, str(tmp_path / "r.json")], capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        seen = dict(json.loads(res.stdout))
        assert seen.pop("spectrum --dim 20") is True
        assert seen and not any(seen.values()), seen


class TestCommands:
    def test_spectrum_contains_exact_first_points(self, tmp_path):
        out = tmp_path / "r.json"
        res = run_cli("spectrum", "--dim", "80", "--out", str(out), "--no-timestamp")
        assert res.returncode == 0
        payload = json.loads(out.read_text())
        matches = [r for r in payload["records"] if r["identity_id"] == "spectrum-match"]
        lhs_values = {r["lhs"] for r in matches}
        assert 0.25 in lhs_values  # a*q
        assert -0.35 in lhs_values  # b*q
        assert all(r["status"] == "pass" for r in matches)

    def test_spectrum_small_dim_never_fails_a_match(self, tmp_path):
        # at dim 5 the exact eigenvectors are far from negligible in the
        # last row, so the residual bound is wide: a match it does not
        # certify is inconclusive, not a fail, and so is a convergence
        # record that compares two such matches
        for q, a, b in (("0.5", "0.5", "-0.7"), ("0.9", "0.9", "-0.5")):
            out = tmp_path / f"r_{q}_{a}_{b}.json"
            res = run_cli("spectrum", "--dim", "5", "--q", q, "--a", a, "--b", b, "--out", str(out), "--no-timestamp")
            assert res.returncode == 2, (q, a, b)
            payload = json.loads(out.read_text())
            matches = [r for r in payload["records"] if r["identity_id"] == "spectrum-match"]
            assert len(matches) == 20
            assert not any(r["status"] == "fail" for r in payload["records"]), (q, a, b)

    def test_spectrum_convergence_records(self, tmp_path):
        out = tmp_path / "r.json"
        run_cli("spectrum", "--dim", "60", "--out", str(out), "--no-timestamp")
        payload = json.loads(out.read_text())
        conv = [r for r in payload["records"] if r["identity_id"] == "spectrum-converge"]
        assert len(conv) == 10
        assert all(r["status"] == "pass" for r in conv)

    def test_table_shape_and_values(self, tmp_path):
        out = tmp_path / "r.json"
        res = run_cli("table", "--index-max", "4", "--out", str(out), "--no-timestamp")
        assert res.returncode == 0
        payload = json.loads(out.read_text())
        rows = payload["table"]
        deg0 = [r for r in rows if r["family"] == "big-q-laguerre" and r["n"] == 0]
        assert deg0 and all(r["value"] == 1.0 for r in deg0)
        cs = [r["value"] for r in rows if r["family"] == "c"]
        assert all(v > 0 for v in cs)
        assert all(b < a for a, b in zip(cs, cs[1:]))  # decreasing for these parameters
        # two-method agreement
        by_key = {}
        for r in rows:
            if r["family"] == "big-q-laguerre":
                by_key.setdefault((r["n"], r["m_or_x"]), {})[r["method"]] = r["value"]
        for (n, x), methods in by_key.items():
            assert abs(methods["series"] - methods["recurrence"]) <= 1e-10 * max(
                1.0, abs(methods["series"])
            )

    def test_limit_rate_records(self, tmp_path):
        out = tmp_path / "r.json"
        res = run_cli("limit", "--index-max", "3", "--out", str(out), "--no-timestamp")
        assert res.returncode == 0
        payload = json.loads(out.read_text())
        rates = [r for r in payload["records"] if r["identity_id"] == "climit-poly-rate"]
        assert rates
        for r in rates:
            assert r["status"] == "pass"
            assert r["lhs"] == "nan" or r["lhs"] >= 0.9
        per_q = [r for r in payload["records"] if r["identity_id"] == "climit-poly" and r["i"] == 0]
        assert all(r["residual"] <= 1e-10 for r in per_q)  # degree 0 exact to rounding

    def test_limit_q_column_increasing(self, tmp_path):
        out = tmp_path / "r.json"
        run_cli("limit", "--index-max", "1", "--out", str(out), "--no-timestamp")
        payload = json.loads(out.read_text())
        qs = [r["params"]["q"] for r in payload["records"] if r["identity_id"] == "climit-poly" and r["i"] == 1]
        assert qs == sorted(qs) and len(set(qs)) == len(qs)

    def test_report_all(self, tmp_path):
        import jsonschema

        from qortho.reporting import REPORT_SCHEMA

        out = tmp_path / "r.json"
        res = run_cli(
            "report-all", "--index-max", "1", "--dim", "40", "--out", str(out), "--no-timestamp"
        )
        assert res.returncode == 0
        payload = json.loads(out.read_text())
        jsonschema.validate(payload, REPORT_SCHEMA)
        ids = {r["identity_id"] for r in payload["records"]}
        assert "sears" in ids and "spectrum-match" in ids and "climit-poly" in ids
        keys = [(r["identity_id"], r["i"], r["j"]) for r in payload["records"]]
        assert keys == sorted(keys)

    def test_l_flag_overrides_a(self, tmp_path):
        out = tmp_path / "r.json"
        res = run_cli(
            "verify", "--identity", "sears", "--l", "1.0", "--a", "0.9", "--q", "0.5",
            "--out", str(out), "--no-timestamp",
        )
        assert res.returncode == 0
        payload = json.loads(out.read_text())
        assert payload["config"]["a"] == 0.5  # q^(2l-1) with l=1

    def test_extended_precision(self, tmp_path):
        out = tmp_path / "r.json"
        res = run_cli(
            "verify", "--identity", "sears", "--precision", "extended",
            "--out", str(out), "--no-timestamp",
        )
        assert res.returncode == 0
        payload = json.loads(out.read_text())
        rec = payload["records"][0]
        assert rec["status"] == "pass"
        assert rec["residual"] <= 1e-14


def first_difference(got: bytes, want: bytes) -> str:
    """The first line where two outputs differ, for a readable failure."""
    got_lines, want_lines = got.split(b"\n"), want.split(b"\n")
    for number, (g, w) in enumerate(zip(got_lines, want_lines), start=1):
        if g != w:
            return f"line {number} differs:\n  got:  {g.decode()!r}\n  want: {w.decode()!r}"
    return f"output has {len(got_lines)} lines, golden file {len(want_lines)}"


class TestGoldenOutput:
    # reference outputs of these commands; an engine change that moves any
    # digit of any record shows up here (CHANGES.md says when a file may be
    # regenerated)
    GOLDEN = [
        (
            ["verify", "--identity", "all", "--index-max", "3", "--q", "0.5", "--a", "0.5", "--b", "-0.7"],
            "verify_all_index3_q0.5_a0.5_b-0.7.csv",
            0,
        ),
        (
            ["report-all", "--precision", "extended", "--index-max", "3", "--dim", "60"],
            "report_all_extended_index3_dim60.csv",
            0,
        ),
        (
            ["spectrum", "--dim", "1000", "--q", "0.7", "--a", "0.9", "--b", "-0.4"],
            "spectrum_dim1000_q0.7_a0.9_b-0.4.csv",
            0,
        ),
        # 11 records of each basis-index family need more than 49 terms, so
        # the doubled cut-offs are pinned; 13 of its records are false
        # `fail`s (cancellation in the float sums), hence exit code 1
        (
            ["verify", "--identity", "all", "--index-max", "4", "--q", "0.9", "--a", "0.9", "--b", "-0.5"],
            "verify_all_index4_q0.9_a0.9_b-0.5.csv",
            1,
        ),
        # the CLI path through the terminating-series kernel: 68 of its 135
        # float sums cancel past double precision and rerun in mpmath
        (
            ["table", "--q", "0.7", "--a", "0.9", "--b", "-0.4"],
            "table_q0.7_a0.9_b-0.4.csv",
            0,
        ),
    ]

    @pytest.mark.parametrize("argv,name,returncode", GOLDEN, ids=[name for _, name, _ in GOLDEN])
    def test_csv_matches_golden_bytes(self, argv, name, returncode):
        res = subprocess.run(BASE + argv + ["--format", "csv", "--no-timestamp"], capture_output=True)
        assert res.returncode == returncode, res.stderr
        want = (Path(__file__).parent / "data" / name).read_bytes()
        if res.stdout != want:
            pytest.fail(first_difference(res.stdout, want), pytrace=False)
