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

    def test_usage_error_jobs(self):
        # every verify runs as one task on one store, so there is nothing
        # to run in parallel and no --jobs option
        res = run_cli("verify", "--jobs", "2")
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
        import numpy as np

        from qortho import cli

        solve = cli.eig_tridiagonal
        monkeypatch.setattr(cli, "eig_tridiagonal", lambda tri, near: np.asarray(solve(tri, near=near)) + 1e-6)
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

    def test_float_17_digits(self, tmp_path):
        out = tmp_path / "r.json"
        run_cli("verify", "--identity", "sears", "--no-timestamp", "--out", str(out))
        text = out.read_text()
        assert '"b": -0.69999999999999996' in text


class TestVerifyTasks:
    def test_run_identity_checks_called_once_per_family(self, tmp_path, monkeypatch):
        # the benchmark's traced runs time each family by the first
        # argument of cli.run_identity_checks, so the task that runs every
        # family must still call it once for each, by name
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
        # `verify --identity all` runs the eight families as one task on one
        # store, and each reads the rows and sums of whichever family asked
        # first; every record must equal that of a cold run of its family
        # alone.  At (0.95, 0.9, -3.0) the task serves label requests at
        # cut-offs 48 and 96 after unitarity-rows asked for cut-off 8
        from qortho.cli import RunConfig, _run_verify
        from qortho.orthogonality import IDENTITY_FAMILIES
        from qortho.reporting import render_csv

        q, a, b = point

        def records(identity):
            return _run_verify(RunConfig(command="verify", q=q, a=a, b=b, identity=identity))

        grouped = render_csv(records("all"))
        alone = render_csv(sorted(
            (r for fam in IDENTITY_FAMILIES for r in records(fam)), key=lambda r: (r["identity_id"], r["i"], r["j"])
        ))
        # the columns sums in three families, the rows, meixner, meixner-negb,
        # eq-zero, big-laguerre and sears
        assert len(grouped.splitlines()) == 1 + 3 * 171 + 45 + 45 + 45 + 81 + 45 + 1
        assert grouped == alone


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
    COMMANDS = (
        ["verify", "--identity", "all", "--index-max", "2"],
        ["verify", "--identity", "all", "--index-max", "2", "--precision", "extended"],
        ["table"],
        ["limit"],
        ["spectrum", "--dim", "20"],
        ["report-all", "--index-max", "1", "--dim", "20"],
    )

    def loaded_after_each_command(self, module, tmp_path) -> dict:
        """{step: whether module is in sys.modules after it}, for importing
        qortho, importing qortho.cli and each of COMMANDS in one process."""
        code = textwrap.dedent(
            """
            import json, sys
            module, out, commands = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
            import qortho
            seen = [("import qortho", module in sys.modules)]
            import qortho.cli
            seen.append(("import qortho.cli", module in sys.modules))
            for argv in commands:
                qortho.cli.main(argv + ["--out", out, "--no-timestamp"])
                seen.append((" ".join(argv), module in sys.modules))
            print(json.dumps(seen))
            """
        )
        argv = [sys.executable, "-c", code, module, str(tmp_path / "r.json"), json.dumps(self.COMMANDS)]
        res = subprocess.run(argv, capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        return dict(json.loads(res.stdout))

    def test_import_does_not_load_process_pool(self, tmp_path):
        # every verify is one task in one process, so no command pays the
        # import of the pool machinery
        seen = self.loaded_after_each_command("concurrent.futures", tmp_path)
        assert len(seen) == 8 and not any(seen.values()), seen

    def test_no_command_loads_numpy(self, tmp_path):
        # the truncated matrix and its eigensolver work on Python floats,
        # so no command pays numpy's import at cold start
        seen = self.loaded_after_each_command("numpy", tmp_path)
        assert len(seen) == 8 and not any(seen.values()), seen


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
    # regenerated).  Each file is the command's stdout, regenerated from the
    # repository root by
    #
    #   PYTHONPATH=src python -m qortho ARGV --format csv --no-timestamp > tests/data/NAME
    #
    # with ARGV and NAME from its entry below, e.g.
    #
    #   PYTHONPATH=src python -m qortho verify --identity all --index-max 3 --q 0.5 --a 0.5 --b -0.7 \
    #       --format csv --no-timestamp > tests/data/verify_all_index3_q0.5_a0.5_b-0.7.csv
    #   PYTHONPATH=src python -m qortho report-all --precision extended --index-max 3 --dim 60 \
    #       --format csv --no-timestamp > tests/data/report_all_extended_index3_dim60.csv
    #   PYTHONPATH=src python -m qortho spectrum --dim 1000 --q 0.7 --a 0.9 --b -0.4 \
    #       --format csv --no-timestamp > tests/data/spectrum_dim1000_q0.7_a0.9_b-0.4.csv
    #   PYTHONPATH=src python -m qortho verify --identity all --index-max 4 --q 0.9 --a 0.9 --b -0.5 \
    #       --format csv --no-timestamp > tests/data/verify_all_index4_q0.9_a0.9_b-0.5.csv
    #   PYTHONPATH=src python -m qortho table --q 0.7 --a 0.9 --b -0.4 \
    #       --format csv --no-timestamp > tests/data/table_q0.7_a0.9_b-0.4.csv
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
        # 11 records each of unitarity-columns, dual-gg, meixner-negb and
        # biortho need more than 49 terms, so the label entries past the
        # first 49 are pinned; its vanishing label sums add terms of size up
        # to 1e9 exactly, so every record passes
        (
            ["verify", "--identity", "all", "--index-max", "4", "--q", "0.9", "--a", "0.9", "--b", "-0.5"],
            "verify_all_index4_q0.9_a0.9_b-0.5.csv",
            0,
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
