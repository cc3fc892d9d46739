"""End-to-end CLI tests: exit codes, schema validity, determinism."""

import gc
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

    def test_usage_error_infinite_b(self):
        # -1e400 parses as -inf, which once passed the domain check and
        # failed later as a product that did not converge (exit 70)
        res = run_cli("verify", "--b=-1e400")
        assert res.returncode == 64
        assert res.stderr == "qortho: error: b must be finite\n"

    @pytest.mark.parametrize(
        "command, tol", [("verify", "inf"), ("spectrum", "inf"), ("limit", "inf"), ("verify", "0"), ("verify", "nan")]
    )
    def test_usage_error_tolerance(self, command, tol):
        # an infinite tolerance passed every record whatever its residual
        res = run_cli(command, "--tol", tol, "--index-max", "1")
        assert res.returncode == 64
        assert res.stderr == "qortho: error: tol must be positive and finite\n"

    def test_usage_error_bad_q(self):
        res = run_cli("verify", "--q", "1.5")
        assert res.returncode == 64
        assert "q must lie strictly in (0, 1)" in res.stderr

    def test_usage_error_l_at_q_zero(self):
        # q^(2l-1) at q = 0 and l < 1/2 once ended in a ZeroDivisionError
        res = run_cli("verify", "--q", "0", "--l", "0.25")
        assert res.returncode == 64
        assert res.stderr == "qortho: error: q must lie strictly in (0, 1)\n"

    def test_spectrum_tiny_q_exit_zero(self):
        # at q = 1e-70 the exact points a q^(n+1), n >= 4, underflow to 0.0;
        # spectrum carries each point's label, so it needs no index read
        # back from the float and certifies every record
        res = run_cli("spectrum", "--q", "1e-70", "--dim", "20")
        assert res.returncode == 0, res.stderr
        assert res.stderr == ""

    @pytest.mark.parametrize("q", ["5e-62", "1e-70", "1e-160", "1e-300"])
    def test_spectrum_tiny_q_match_within_bound(self, q, tmp_path):
        # below q = 1e-154 the squared off-diagonals underflow in the Sturm
        # count, and near 1e-300 the pivot floor acts: the solve's accuracy
        # bound must still cover each matching error
        from qortho import cli

        out = tmp_path / "r.json"
        assert cli.main(["spectrum", "--q", q, "--out", str(out), "--no-timestamp"]) == 0
        records = json.loads(out.read_text())["records"]
        assert len(records) == 30 and all(r["status"] == "pass" for r in records)
        matches = [r for r in records if r["identity_id"] == "spectrum-match"]
        assert len(matches) == 20
        assert all(r["residual"] <= r["tail_estimate"] for r in matches), q

    @pytest.mark.parametrize("q", ["1e-30", "1e-100"])
    def test_spectrum_converge_judged_on_intervals(self, q, tmp_path):
        # at dim 1 the matching errors of ranks 2-9 grow from 2.0e-31 at
        # d = 1 to 5.0e-31 at d = 2 (q = 1e-30), yet each lies within its
        # bound r + delta, 5.9e-31: growth that the two intervals do not
        # prove is no failure, and the run exits 0 where it exited 1
        from qortho import cli

        out = tmp_path / "r.json"
        argv = ["spectrum", "--q", q, "--a", "0.5", "--b", "-0.7", "--dim", "1", "--out", str(out), "--no-timestamp"]
        assert cli.main(argv) == 0
        converge = [r for r in json.loads(out.read_text())["records"] if r["identity_id"] == "spectrum-converge"]
        assert len(converge) == 10 and all(r["status"] == "pass" for r in converge)
        grown = [r for r in converge if r["rhs"] > r["lhs"]]
        assert len(grown) == 8 and all(r["rhs"] <= r["tail_estimate"] for r in grown)

    @pytest.mark.parametrize("q", ["0.5", "1e-30", "1e-100", "1e-200", "1e-300"])
    @pytest.mark.parametrize("dim", [1, 2, 3, 7])
    def test_spectrum_match_within_its_tail(self, dim, q, monkeypatch, tmp_path):
        # at dim 1 the radius r is the matching error itself, and its float
        # sum of logs once came out 1.3e-14 below it (rank 1, q = 1e-100):
        # each tail counts the rounding of its own r.  At q = 0.5 so small a
        # truncation certifies nothing (2); where the bounds are tight, a
        # solve that misses an exact point by 1e-6 still fails (1)
        from qortho import cli

        out = tmp_path / "r.json"
        argv = ["spectrum", "--q", q, "--a", "0.5", "--b", "-0.7", "--dim", str(dim), "--out", str(out), "--no-timestamp"]
        assert cli.main(argv) == (2 if q == "0.5" else 0)
        records = json.loads(out.read_text())["records"]
        matches = [r for r in records if r["identity_id"] == "spectrum-match"]
        assert len(matches) == 20 and not any(r["status"] == "fail" for r in records)
        assert all(r["residual"] <= r["tail_estimate"] for r in matches)
        if q == "0.5":
            return
        exact = cli.spectrum_points

        def missed(p, n):
            points = exact(p, n)
            return points._replace(upper=(points.upper[0] + 1e-6, *points.upper[1:]))

        monkeypatch.setattr(cli, "spectrum_points", missed)
        assert cli.main(argv) == 1
        records = json.loads(out.read_text())["records"]
        moved = [r for r in records if r["identity_id"] == "spectrum-match" and r["lhs"] > 1e-7]
        assert len(moved) == 2 and all(r["status"] == "fail" for r in moved)

    def test_spectrum_assembles_one_operator(self, monkeypatch, tmp_path):
        # the dim cut is the leading block of the 2 dim operator, whose
        # entries depend on the row index alone
        from qortho import cli

        calls = []
        build = cli.build_A
        monkeypatch.setattr(cli, "build_A", lambda p, dim: calls.append(dim) or build(p, dim))
        assert cli.main(["spectrum", "--dim", "30", "--out", str(tmp_path / "r.json")]) == 0
        assert calls == [60]

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

    @pytest.mark.parametrize("command", ["limit", "table"])
    def test_tol_reaches_no_limit_or_table_record(self, command):
        # limit records carry the tolerance of their own fit and table has
        # no verdicts, so --tol changes nothing but the echoed tolerance
        reports = {}
        for tol in ("1e-30", "1e-8"):
            res = run_cli(command, "--tol", tol, "--no-timestamp")
            assert res.returncode == 0, res.stderr
            reports[tol] = json.loads(res.stdout)
        assert [doc["config"].pop("tolerance") for doc in reports.values()] == [1e-30, 1e-8]
        assert reports["1e-30"] == reports["1e-8"]

    @pytest.mark.parametrize("command", ["spectrum", "table", "limit"])
    def test_precision_reaches_no_spectrum_table_or_limit_record(self, command):
        # spectrum, table and limit compute in double at either precision,
        # so --precision changes nothing but the echoed precision
        reports = {}
        for precision in ("extended", "double"):
            res = run_cli(command, "--precision", precision, "--no-timestamp")
            assert res.returncode == 0, res.stderr
            reports[precision] = json.loads(res.stdout)
        assert [doc["config"].pop("precision") for doc in reports.values()] == ["extended", "double"]
        assert reports["extended"] == reports["double"]

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

    def test_unformed_constant_costs_its_records(self, tmp_path):
        # inside the domain, yet the float product (a/b; q)_inf =
        # (-1000; 0.99)_inf of c'_0 leaves the float range: each record
        # that reads c'_0 has no verdict, so it is `inconclusive` with the
        # cause in its note, and every other record prints, exit 2, not 70
        # ("no verdict at all") or 64 (a usage error)
        import jsonschema

        from qortho.reporting import REPORT_SCHEMA

        cause = "c'_0 leaves the float range at (0.99, 1.0, -0.001)"
        # the family, its cells at --index-max 0, and the cells that read c'_0
        cases = [
            ("big-laguerre", 1, {("big-laguerre", 0, 0)}),
            ("unitarity", 4, {("unitarity-rows", 0, 0), ("unitarity-columns", -1, 0)}),
        ]
        for identity, cells, unformed in cases:
            out = tmp_path / f"{identity}.json"
            argv = ["--identity", identity, "--q", "0.99", "--a", "1.0", "--b", "-0.001", "--index-max", "0"]
            res = run_cli("verify", *argv, "--out", str(out))
            assert (res.returncode, res.stderr) == (2, ""), identity
            payload = json.loads(out.read_text())
            jsonschema.validate(payload, REPORT_SCHEMA)
            records = payload["records"]
            assert len(records) == cells
            assert {(r["identity_id"], r["i"], r["j"]) for r in records if r.get("note") == cause} == unformed
            assert all(r["status"] != "fail" for r in records)
            for r in records:
                if "leaves the float range" in r.get("note", ""):
                    assert (r["status"], r["tail_estimate"]) == ("inconclusive", "inf"), r

    def test_closed_forms_past_the_float_range_cost_their_records(self, capsys):
        # at b = -1e300 Kc's float is inf, and the float closed forms
        # (-ab)^m of big-laguerre and c_i^-2 of dual and the sears
        # cross-check's products overflow: each record that reads one is
        # `inconclusive` with the cause in its note, no record fails, and
        # every cell of the grid prints, exit 2
        from qortho import cli

        def records(*argv, code=2):
            assert cli.main(["verify", *argv, "--no-timestamp"]) == code, argv
            out, err = capsys.readouterr()
            assert err == "", argv
            return {(r["identity_id"], r["i"], r["j"]): r for r in json.loads(out)["records"]}

        at = records("--b", "-1e300", "--index-max", "1")
        assert at.keys() == records("--index-max", "1", code=0).keys()
        kc = "Kc leaves the float range at (0.5, 0.5, -1e+300)"
        assert {key for key, r in at.items() if r.get("note") == kc} == {
            ("big-laguerre", 0, 0), ("big-laguerre", 0, 1), ("big-laguerre", 1, 1), ("sears", 0, 0)
        }
        assert at[("dual-ff", 0, 0)]["note"] == "the closed form leaves the float range at (0.5, 0.5, -1e+300)"
        for r in at.values():
            assert r["status"] != "fail"
            if "leaves the float range" in r.get("note", ""):
                assert (r["status"], r["tail_estimate"]) == ("inconclusive", "inf"), r
        # (q, aq) of the sweep points where verify --index-max 2 crashed
        points = [(1e-30, 1e-30), (0.01, 0.001), (0.01, 0.5), (0.01, 0.999999)]
        full = records("--index-max", "2", code=0).keys()
        for q, aq in [*points, (0.5, 0.5), (0.5, 0.999999), (0.9, 0.999999)]:
            at = records("--q", repr(q), "--a", repr(aq / q), "--b", "-1e300", "--index-max", "2")
            assert at.keys() == full, (q, aq)
            assert all(r["status"] != "fail" for r in at.values()), (q, aq)

    def test_build_a_past_the_float_range_exit_seventy(self):
        # in the domain, with a q = 1e-3, 0.5 and 0.999999 at q = 1e-30 and
        # b = -1e300, sqrt(-ab) overflows in build_A's entries: a failure
        # outside any record, so exit 70 in one stderr line, not the usage
        # error 64 of a parameter outside the domain
        for aq in (1e-3, 0.5, 0.999999):
            res = run_cli("spectrum", "--q", "1e-30", "--a", repr(aq / 1e-30), "--b", "-1e300", "--dim", "20")
            assert res.returncode == 70, (aq, res.stderr)
            assert "Traceback" not in res.stderr
            lines = res.stderr.splitlines()
            assert len(lines) == 1 and lines[0].startswith("qortho: error: an entry of build_A "), res.stderr
            assert res.stdout == ""

    @pytest.mark.parametrize("output_format", ["json", "csv"])
    def test_unwritable_report_exit_seventy_four(self, tmp_path, output_format):
        # a report that cannot be written is no verdict: exit 1 means a
        # check failed
        out = tmp_path / "missing" / "r.json"
        res = run_cli("verify", "--identity", "sears", "--format", output_format, "--out", str(out))
        assert res.returncode == 74, res.stderr
        assert res.stderr.startswith("qortho: I/O error: ")
        assert not out.exists()

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


def _row_keys(payload: dict, key: str) -> list:
    """What names each record, or each table row, of a report."""
    if key == "records":
        return sorted((r["identity_id"], r["i"], r["j"]) for r in payload[key])
    return [(r["family"], r["n"], r["method"]) for r in payload[key]]


class TestKnownComputationErrors:
    """In-domain points where a command once exited 70 and printed nothing,
    or still does: each should give its full grid of records or rows with
    exit 0 or 2."""

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["verify", "--q", "0.998", "--a", "0.5", "--b", "-0.7"], id="verify-q0.998"),
            pytest.param(
                ["verify", "--q", "1e-30", "--a", "0.5", "--b", "-0.7", "--index-max", "11"],
                id="verify-q1e-30-index11",
            ),
            pytest.param(["verify", "--q", "0.999", "--a", "0.5", "--b", "-0.7"], id="verify-q0.999"),
            pytest.param(["verify", "--q", "0.99", "--a", "1.0", "--b", "-0.001"], id="verify-q0.99-b-0.001"),
            pytest.param(["verify", "--q", "0.9", "--a", "0.5", "--b", "-1e-6"], id="verify-q0.9-b-1e-6"),
            pytest.param(["verify", "--q", "0.5", "--a", "0.5", "--b", "-1e300"], id="verify-b-1e300"),
            pytest.param(
                ["table", "--q", "0.99", "--a", "1.0", "--b", "-0.001"],
                marks=pytest.mark.xfail(strict=True, reason="c'_0 leaves the float range"),
                id="table-q0.99-b-0.001",
            ),
        ],
    )
    def test_full_grid(self, tmp_path, argv):
        from qortho import cli

        index_max = argv[argv.index("--index-max") + 1] if "--index-max" in argv else "8"
        reference = tmp_path / "reference.json"
        assert cli.main([argv[0], "--index-max", index_max, "--out", str(reference)]) == 0
        out = tmp_path / "r.json"
        res = run_cli(*argv, "--out", str(out))
        assert res.returncode in (0, 2), res.stderr
        payload = json.loads(out.read_text())
        key = "records" if argv[0] == "verify" else "table"
        assert _row_keys(payload, key) == _row_keys(json.loads(reference.read_text()), key)
        assert payload.get("summary", {}).get("failed", 0) == 0


COMMANDS = ["verify", "spectrum", "table", "limit", "report-all"]


def every_option_argv(out) -> list:
    """Every option of the CLI, each with a value no command rejects."""
    return [
        "--q", "0.3", "--a", "0.5", "--b", "-0.7", "--l", "1.5", "--identity", "sears", "--index-max", "1",
        "--dim", "20", "--tol", "1e-8", "--precision", "double", "--format", "csv", "--out", str(out),
        "--no-timestamp",
    ]


class TestParser:
    def test_one_parser_declares_every_option_once(self):
        from qortho.cli import build_parser

        parser = build_parser()
        declared = [s for action in parser._actions for s in action.option_strings if s not in ("-h", "--help")]
        options = [arg for arg in every_option_argv("r.csv") if arg.startswith("--")]
        assert declared == options
        help_text = parser.format_help()
        assert all(option in help_text for option in options)

    @pytest.mark.parametrize("command", COMMANDS)
    def test_every_command_accepts_every_option(self, command, tmp_path):
        from qortho.cli import _config_from_args, build_parser

        out = tmp_path / "r.csv"
        argv = every_option_argv(out)
        # the options parse the same before and after the command
        after = build_parser().parse_args([command] + argv)
        before = build_parser().parse_args(argv[:6] + [command] + argv[6:])
        assert vars(after) == vars(before)
        cfg = _config_from_args(after)
        assert cfg.command == command
        assert (cfg.q, cfg.a, cfg.b) == (0.3, 0.3 ** 2, -0.7)
        assert (cfg.identity, cfg.index_max, cfg.dim, cfg.tolerance) == ("sears", 1, 20, 1e-8)
        assert (cfg.precision, cfg.output_format, cfg.output_path, cfg.no_timestamp) == ("double", "csv", str(out), True)

    @pytest.mark.parametrize("command", COMMANDS)
    def test_no_command_exits_usage(self, command, tmp_path, capsys):
        from qortho.cli import main

        out = tmp_path / "r.csv"
        assert main([command] + every_option_argv(out)) in (0, 1, 2)
        assert out.read_text().count("\n") > 1
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("value", ["-1e4", "-7e-1", "-1E+2", "-.5"])
    def test_negative_values_in_exponent_notation(self, value):
        # argparse alone reads -1e4 as an option name; -.5 always parsed
        from qortho.cli import _config_from_args, build_parser

        cfg = _config_from_args(build_parser().parse_args(["verify", "--b", value]))
        assert cfg.b == float(value)

    def test_option_name_as_value_exits_usage(self, capsys):
        from qortho.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["verify", "--b", "-x"])
        assert exc.value.code == 64
        assert "argument --b: expected one argument" in capsys.readouterr().err

    def test_options_before_command(self, capsys):
        from qortho.cli import main

        assert main(["--q", "0.3", "--index-max", "1", "--no-timestamp", "table"]) == 0
        before = capsys.readouterr().out
        assert main(["table", "--q", "0.3", "--index-max", "1", "--no-timestamp"]) == 0
        assert capsys.readouterr().out == before
        assert json.loads(before)["config"]["q"] == 0.3


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

    def test_render_json_literal(self):
        # every kind of value the canonical renderer writes, to the bytes
        # `json.dumps` gives keys and strings; non-finite floats as strings.
        # The renderer keeps the text of each float and key it has written:
        # 0.0 and -0.0 are one dict key, a nan is equal to no float, and a
        # subclass of float, int or str renders as its base type does
        from qortho.reporting import render_json

        class Float(float):
            pass

        class Int(int):
            pass

        class Str(str):
            pass

        nan = float("nan")
        payload = {
            "schema_version": "1",
            "config": {"nested": {"inner": [1, 2.5, "x"]}, "empty_dict": {}, "empty_list": []},
            "records": [
                {
                    "lhs": nan,
                    "rhs": float("inf"),
                    "residual": float("-inf"),
                    "passed": True,
                    "failed": False,
                    "tail": None,
                    "count": 3,
                    "value": 0.1,
                    "note": 'a "quoted" note: \u03bb \u2264 1',
                },
                {"lhs": nan, "rhs": float("nan"), "value": float("0.1"), 7: Float(0.1)},
            ],
            "pair": (1e-300, -0.0),
            "zeros": [0.0, -0.0, 0.0, -0.0, -0.0, 0.0],
            "subclasses": [Float(2.5), Float(-0.0), Int(3), Str("x"), Float("inf")],
        }
        assert render_json(payload) == textwrap.dedent(
            """\
            {
              "schema_version": "1",
              "config": {
                "nested": {
                  "inner": [
                    1,
                    2.5,
                    "x"
                  ]
                },
                "empty_dict": {},
                "empty_list": []
              },
              "records": [
                {
                  "lhs": "nan",
                  "rhs": "inf",
                  "residual": "-inf",
                  "passed": true,
                  "failed": false,
                  "tail": null,
                  "count": 3,
                  "value": 0.10000000000000001,
                  "note": "a \\"quoted\\" note: \\u03bb \\u2264 1"
                },
                {
                  "lhs": "nan",
                  "rhs": "nan",
                  "value": 0.10000000000000001,
                  "7": 0.10000000000000001
                }
              ],
              "pair": [
                1e-300,
                -0
              ],
              "zeros": [
                0,
                -0,
                0,
                -0,
                -0,
                0
              ],
              "subclasses": [
                2.5,
                -0,
                3,
                "x",
                "inf"
              ]
            }
            """
        )

    def test_process_entry_writes_what_main_writes(self, tmp_path):
        # main run in process leaves the collector as it found it; the
        # process entry freezes only once main has returned, so a report
        # written to a file and one printed to stdout are the same bytes
        from qortho.cli import main

        argv = ["verify", "--index-max", "2", "--no-timestamp"]
        state = gc.isenabled(), gc.get_freeze_count()
        in_process = tmp_path / "in-process.json"
        code = main(argv + ["--out", str(in_process)])
        assert (gc.isenabled(), gc.get_freeze_count()) == state
        out = tmp_path / "r.json"
        to_file = subprocess.run(BASE + argv + ["--out", str(out)], capture_output=True)
        to_stdout = subprocess.run(BASE + argv, capture_output=True)
        assert to_stdout.stdout and out.read_bytes() == to_stdout.stdout == in_process.read_bytes()
        assert to_file.returncode == to_stdout.returncode == code
        # the process entry itself, called as the console script calls it:
        # it exits with main's code and leaves the collector frozen
        entry = tmp_path / "entry.json"
        script = textwrap.dedent(
            f"""\
            import gc, sys
            from qortho.cli import process_main
            sys.argv = ["qortho", *{argv + ["--out", str(entry)]!r}]
            before = gc.get_freeze_count()
            try:
                process_main()
            except SystemExit as exit:
                print(exit.code, before, gc.get_freeze_count())
            """
        )
        ran = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        exit_code, before, after = map(int, ran.stdout.split())
        assert exit_code == code and before == 0 < after
        assert entry.read_bytes() == in_process.read_bytes()

    def test_float_17_digits(self, tmp_path):
        out = tmp_path / "r.json"
        run_cli("verify", "--identity", "sears", "--no-timestamp", "--out", str(out))
        text = out.read_text()
        assert '"b": -0.69999999999999996' in text


class TestVerifyTasks:
    @pytest.mark.parametrize("identity", ["all", "dual"])
    def test_verify_is_one_library_call(self, tmp_path, monkeypatch, identity):
        # a verify task runs as the library runs it: one call of
        # run_identity_checks with the --identity flag, which gives "all"
        # one store for every family
        from qortho import cli
        from qortho.qseries import QParams

        calls = []

        def fake(*args):
            calls.append(args)
            return []

        monkeypatch.setattr(cli, "run_identity_checks", fake)
        assert cli.main(["verify", "--identity", identity, "--index-max", "3", "--out", str(tmp_path / "r.json")]) == 0
        assert calls == [(identity, QParams(q=0.5, a=0.5, b=-0.7), 3, 1e-8)]

    @pytest.mark.parametrize(
        "point", [(0.5, 0.5, -0.7), (0.7, 0.9, -0.4), (0.95, 0.9, -3.0), (0.99, 1.0, -0.001), (0.5, 0.5, -1e300)], ids=str
    )
    def test_grouped_task_records_equal_single_family_runs(self, point):
        # `verify --identity all` runs the eight families as one task on one
        # store, and each reads the rows and sums of whichever family asked
        # first; every record must equal that of a cold run of its family
        # alone.  At (0.95, 0.9, -3.0) the task serves label requests at
        # cut-offs 48 and 96 after unitarity-rows asked for cut-off 8; at
        # (0.99, 1.0, -0.001) and b = -1e300, where c'_0 or Kc leaves the
        # float range, a later family reads a row, sum or constant that an
        # earlier one failed to form, and gets the same cause
        from qortho.cli import RunConfig, _run_verify
        from qortho.orthogonality import IDENTITY_FAMILIES
        from qortho.reporting import render_csv

        q, a, b = point

        def records(identity):
            return _run_verify(RunConfig(command="verify", q=q, a=a, b=b, identity=identity))

        def in_order(recs):
            return render_csv(sorted(recs, key=lambda r: (r["identity_id"], r["i"], r["j"])))

        grouped = in_order(records("all"))
        alone = in_order(r for fam in IDENTITY_FAMILIES for r in records(fam))
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

    def test_records_independent_of_caller_contexts(self, capsys):
        # the kernels run in their own decimal contexts, and --precision
        # extended makes and checks its Decimal parameters in the store's:
        # neither the thread's decimal context nor mpmath's global precision
        # may reach a record.  table re-sums cancelling series in Decimals
        # and spectrum sums the q-Meixner values of its truncation radii in
        # them; at a = 1.999999, a q = 0.9999995 lies below 1 only past the
        # fifth digit
        import decimal

        import mpmath

        import qortho.cli

        extended = ["verify", "--identity", "all", "--index-max", "2", "--precision", "extended"]
        commands = (
            ["verify", "--identity", "all", "--index-max", "3"],
            ["table"],
            ["spectrum", "--dim", "20"],
            extended,
            extended + ["--a", "1.999999"],
        )

        def outputs():
            out = []
            for argv in commands:
                code = qortho.cli.main(argv + ["--no-timestamp"])
                out.append((code, capsys.readouterr()))
            return out

        clean = outputs()
        assert [code for code, _ in clean] == [0, 0, 0, 0, 0], clean
        for rounding in (decimal.ROUND_FLOOR, decimal.ROUND_CEILING):
            with decimal.localcontext() as context:
                context.prec, context.rounding = 5, rounding
                context.clear_traps()
                assert outputs() == clean, rounding
        with mpmath.workdps(60):
            assert outputs() == clean

    def test_extended_records_independent_of_other_threads(self):
        # mpmath's working precision is global to the process, and no
        # verify reads it: a thread that keeps changing it while extended
        # verifies run, with the interpreter switching threads every 10 us,
        # leaves every record of the serial run
        import threading

        import mpmath

        from qortho.cli import RunConfig, _run_verify

        cfg = RunConfig(command="verify", q=0.7, a=0.9, b=-0.4, index_max=2, precision="extended")
        serial = _run_verify(cfg)
        stop = threading.Event()

        def churn():
            while not stop.is_set():
                with mpmath.workdps(15):
                    mpmath.mpf(1) / 3

        interval = sys.getswitchinterval()
        thread = threading.Thread(target=churn)
        sys.setswitchinterval(1e-5)
        thread.start()
        try:
            runs = [_run_verify(cfg) for _ in range(3)]
        finally:
            stop.set()
            thread.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not thread.is_alive()
        assert runs == [serial] * 3

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

    def loaded_in_fresh_process(self, module, step, tmp_path) -> bool:
        """Whether module is in sys.modules after step, an import statement
        or one of COMMANDS, run alone in a new process."""
        code = textwrap.dedent(
            """
            import sys
            module, out, step = sys.argv[1], sys.argv[2], sys.argv[3]
            if step.startswith("import "):
                exec(step)
            else:
                import qortho.cli

                qortho.cli.main(step.split() + ["--out", out, "--no-timestamp"])
            print(module in sys.modules)
            """
        )
        res = subprocess.run([sys.executable, "-c", code, module, str(tmp_path / "r.json"), step], capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        return {"True": True, "False": False}[res.stdout.strip()]

    @pytest.mark.parametrize("step", ["import qortho", "import qortho.cli"] + [" ".join(argv) for argv in COMMANDS])
    def test_only_extended_precision_loads_mpmath(self, step, tmp_path):
        # no command loads mpmath: both precisions compute in floats and
        # Decimals.  The name is that of the days when --precision extended
        # ran on mpmath scalars, kept so the test ids stay comparable
        assert not self.loaded_in_fresh_process("mpmath", step, tmp_path)

    def test_runs_without_mpmath(self, tmp_path):
        # mpmath is a test dependency only: with its import blocked, every
        # command runs, --precision extended included, and so do the routes
        # that once made mpfs, with the values they give in this process
        code = textwrap.dedent(
            """
            import json, sys
            sys.modules["mpmath"] = None  # any import of mpmath raises ImportError
            import qortho.cli
            from qortho.climit import LimitSweep, geometric_q_sequence, limit_polynomial_check
            from qortho.polynomials import spectral_sequence
            from qortho.routes import big_q_laguerre_generating, generating_series

            out, commands = sys.argv[1], json.loads(sys.argv[2])
            codes = [qortho.cli.main(argv + ["--out", out, "--no-timestamp"]) for argv in commands]
            p = qortho.QParams(q=0.5, a=0.5, b=-0.7)
            sweep = LimitSweep(alpha=1.0, beta=0.5, q_sequence=geometric_q_sequence(10, 12))
            values = [
                big_q_laguerre_generating(3, ("a", 1), p),
                generating_series(("a", 1), 0.1, p, 20),
                str(spectral_sequence(p, "a", 1, 5)[5]),
                *(r.lhs for r in limit_polynomial_check(2, 0.4, sweep)),
            ]
            print(json.dumps([codes, values]))
            """
        )
        argv = [sys.executable, "-c", code, str(tmp_path / "r.json"), json.dumps(self.COMMANDS)]
        res = subprocess.run(argv, capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        codes, values = json.loads(res.stdout)
        assert codes == [0] * len(self.COMMANDS)

        from qortho import QParams
        from qortho.climit import LimitSweep, geometric_q_sequence, limit_polynomial_check
        from qortho.polynomials import spectral_sequence
        from qortho.routes import big_q_laguerre_generating, generating_series

        p = QParams(q=0.5, a=0.5, b=-0.7)
        sweep = LimitSweep(alpha=1.0, beta=0.5, q_sequence=geometric_q_sequence(10, 12))
        assert len(values) == 3 + 4
        assert values == [
            big_q_laguerre_generating(3, ("a", 1), p),
            generating_series(("a", 1), 0.1, p, 20),
            str(spectral_sequence(p, "a", 1, 5)[5]),
            *(r.lhs for r in limit_polynomial_check(2, 0.4, sweep)),
        ]

    def test_import_qortho_loads_no_submodule(self):
        # the package's names are read from their modules on first use
        code = "import sys, qortho; print(sorted(name for name in sys.modules if name.startswith('qortho.')))"
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        assert res.stdout == "[]\n"

    @pytest.mark.parametrize("module", ["qortho.representation", "qortho.routes"])
    def test_no_command_loads_the_library_only_modules(self, module, tmp_path):
        # no command reads the generator constructions or the cross-check
        # routes, so no process of the CLI compiles them
        seen = self.loaded_after_each_command(module, tmp_path)
        assert len(seen) == 8 and not any(seen.values()), seen

    @pytest.mark.parametrize("step", ["getattr", "import *"])
    def test_every_public_name_resolves(self, step):
        # in a fresh process, so each name goes through the package's
        # lazy lookup: getattr and dir see every name of __all__, and a
        # star import binds them all to the same objects
        code = textwrap.dedent(
            """
            import json, sys
            import qortho
            if sys.argv[1] == "getattr":
                listed = set(dir(qortho))
                values = {name: getattr(qortho, name) for name in qortho.__all__}
                missing = sorted(name for name in qortho.__all__ if name not in listed)
            else:
                namespace = {}
                exec("from qortho import *", namespace)
                values = {name: namespace.get(name) for name in qortho.__all__}
                missing = sorted(name for name in qortho.__all__ if name not in namespace)
            same = all(value is getattr(qortho, name) for name, value in values.items())
            print(json.dumps([len(qortho.__all__), missing, same, hasattr(qortho, "no_such_name")]))
            """
        )
        res = subprocess.run([sys.executable, "-c", code, step], capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout) == [47, [], True, False]

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

    @pytest.mark.parametrize("module", ["dataclasses", "inspect", "datetime"])
    def test_no_command_loads_dataclasses_inspect_or_datetime(self, module, tmp_path):
        # the value types are named tuples, so no import pays for
        # dataclasses and the inspect, ast and dis modules it pulls in;
        # datetime is imported only to write a timestamp
        seen = self.loaded_after_each_command(module, tmp_path)
        assert len(seen) == 8 and not any(seen.values()), seen

    def test_array_api_runs_without_numpy(self):
        # numpy is a test dependency only: with its import blocked, every
        # function that once returned an array gives tuples or lists of
        # Python floats
        code = textwrap.dedent(
            """
            import json, sys
            sys.modules["numpy"] = None  # any import of numpy raises ImportError
            import qortho
            from qortho.operators import build_A
            from qortho.representation import (
                build_A1_A2,
                build_generator_matrices,
                compose_A_from_generators,
                compose_A1_A2_from_generators,
                eigen_coefficients,
                psi_phi_coefficients,
                recurrence_residuals,
            )
            from qortho.routes import big_q_laguerre_generating

            p = qortho.QParams(q=0.5, a=0.5, b=-0.7)
            tri, (a1, _), g = build_A(p, 6), build_A1_A2(p, 6), build_generator_matrices(p, 6)
            vec = eigen_coefficients(("a", 0), p, 10)
            psi, phi = psi_phi_coefficients(("a", 0), p, 10)
            c1, c2 = compose_A1_A2_from_generators(p, 6)
            got = {
                "dense": tri.dense(),
                "apply": tri.apply([1.0] * 6),
                "a1.dense": a1.dense(),
                "a1.apply": a1.apply(range(6)),
                "raising": g.raising,
                "lowering": g.lowering,
                "qj0_diag": g.qj0_diag,
                "j0_diag": g.j0_diag,
                "jplus_dense": g.jplus_dense(),
                "jminus_dense": g.jminus_dense(),
                "compose_A": compose_A_from_generators(p, 6),
                "compose_A1": c1,
                "compose_A2": c2,
                "eigen": vec.coeffs,
                "eigen generic": eigen_coefficients(0.17, p, 10).coeffs,
                "psi": psi.coeffs,
                "phi": phi.coeffs,
                "residuals": recurrence_residuals(vec, p),
                "generating": [big_q_laguerre_generating(2, ("a", 0), p)],
            }

            def leaves(v):
                return [t for x in v for t in leaves(x)] if isinstance(v, (list, tuple)) else [type(v).__name__]

            print(json.dumps({k: [type(v).__name__, sorted(set(leaves(v)))] for k, v in got.items()}))
            """
        )
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        kinds = json.loads(res.stdout)
        assert len(kinds) == 19
        for name, (container, leaf_types) in kinds.items():
            assert container in ("tuple", "list") and leaf_types == ["float"], (name, container, leaf_types)

    def test_numpy_is_not_a_runtime_dependency(self):
        import tomllib

        pyproject = tomllib.loads((Path(__file__).parent.parent / "pyproject.toml").read_text())["project"]
        assert pyproject["dependencies"] == []
        test_extra = pyproject["optional-dependencies"]["test"]
        assert any(dep.startswith("numpy") for dep in test_extra) and any(dep.startswith("mpmath") for dep in test_extra)

    @pytest.mark.parametrize("module", ["reporting", "climit"])
    def test_report_layers_do_not_import_the_verify_engine(self, module):
        # the record type lives beside its serializer, so neither the
        # serializer nor the classical-limit checks need the verify engine.
        # Read statically: other tests in this process may have loaded the
        # engine already
        import ast

        source = (Path(__file__).parent.parent / "src" / "qortho" / f"{module}.py").read_text()
        imported = set()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom):
                imported.add(node.module)
            elif isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
        assert not any(name.startswith("qortho.orthogonality") for name in imported), imported

    def test_readme_library_use_names_every_public_name(self):
        import re

        import qortho

        readme = (Path(__file__).parent.parent / "README.md").read_text()
        section = readme.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
        missing = [name for name in qortho.__all__ if not re.search(f"`{re.escape(name)}[`(]", section)]
        assert not missing, missing
        # and the converse: every name a bullet of the section opens with,
        # before its colon, is public, so no removed name lingers there
        bulleted = {
            name
            for line in section.splitlines()
            if line.startswith("- ")
            for name in re.findall(r"`([A-Za-z_]\w*)[`(]", line.split(":", 1)[0])
        }
        assert "verify_record" in bulleted and "QParams" in bulleted, sorted(bulleted)
        assert bulleted <= set(qortho.__all__), sorted(bulleted - set(qortho.__all__))

    def test_readme_python_examples_run(self):
        # every python block of the README runs as written, so an example
        # that names a removed function or argument fails here
        import re

        readme = (Path(__file__).parent.parent / "README.md").read_text()
        blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.S | re.M)
        assert blocks
        for block in blocks:
            exec(compile(block, "README.md", "exec"), {})


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
        # the duality rows are the library's dual_f and dual_g, bit for bit
        from qortho.routes import dual_f, dual_g
        from qortho.qseries import QParams

        p = QParams(q=0.5, a=0.5, b=-0.7)
        duals = [(r["family"], r["n"], r["m_or_x"], r["value"]) for r in rows if r["family"] in ("dual-f", "dual-g")]
        assert len(duals) == 2 * 25
        for family, n, m, value in duals:
            assert value == (dual_f if family == "dual-f" else dual_g)(n, m, p), (family, n, m)

    def test_table_deep_series_rows(self, tmp_path):
        # at q = 0.3 the deep series rows cancel past double precision
        # (from degree 18 at x = aq), and from degree 35 their float terms
        # overflow; each must still agree with its recurrence row
        out = tmp_path / "r.json"
        res = run_cli("table", "--q", "0.3", "--index-max", "40", "--out", str(out), "--no-timestamp")
        assert res.returncode == 0, res.stderr
        rows = json.loads(out.read_text())["table"]
        by_key = {}
        for r in rows:
            if r["family"] == "big-q-laguerre":
                by_key.setdefault((r["n"], r["m_or_x"]), {})[r["method"]] = r["value"]
        assert len(by_key) == 6 * 41
        for key, methods in by_key.items():
            rec = methods["recurrence"]
            assert abs(methods["series"] - rec) <= 1e-8 * (1 + abs(rec)), (key, methods)

    @pytest.mark.parametrize("q", ["1e-39", "1e-300"])
    def test_table_tiny_q(self, q):
        # q^-8 overflows a float: the series rows are read on the exact
        # Decimals, and a q-Meixner value past the float range prints as
        # +-inf; every series row still agrees with its recurrence row
        res = run_cli("table", "--q", q, "--no-timestamp")
        assert res.returncode == 0, res.stderr
        rows = json.loads(res.stdout)["table"]
        assert len(rows) == 369
        assert {r["family"] for r in rows if isinstance(r["value"], str)} == {"q-meixner"}
        assert {r["value"] for r in rows if isinstance(r["value"], str)} == {"inf", "-inf"}
        by_key = {}
        for r in rows:
            if r["family"] == "big-q-laguerre":
                by_key.setdefault((r["n"], r["m_or_x"]), {})[r["method"]] = r["value"]
        for key, methods in by_key.items():
            rec = methods["recurrence"]
            assert abs(methods["series"] - rec) <= 1e-10 * (1 + abs(rec)), (key, methods)

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
    # regenerated).  Each file is the command's stdout in the format of its
    # suffix, regenerated from the repository root by
    #
    #   PYTHONPATH=src python -m qortho ARGV --format FORMAT --no-timestamp > tests/data/NAME
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
    #   PYTHONPATH=src python -m qortho report-all --index-max 1 --dim 20 \
    #       --format json --no-timestamp > tests/data/report_all_index1_dim20.json
    #   PYTHONPATH=src python -m qortho spectrum --dim 2000 --q 0.99 --a 0.5 --b -0.7 \
    #       --format csv --no-timestamp > tests/data/spectrum_dim2000_q0.99_a0.5_b-0.7.csv
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
        # the CLI path through the terminating-series kernel, whose 135
        # sums run on the exact Decimals of their float arguments
        (
            ["table", "--q", "0.7", "--a", "0.9", "--b", "-0.4"],
            "table_q0.7_a0.9_b-0.4.csv",
            0,
        ),
        # the JSON report, which alone carries the config, the params and
        # tolerance of each record, its note and the summary
        (
            ["report-all", "--index-max", "1", "--dim", "20"],
            "report_all_index1_dim20.json",
            0,
        ),
        # near q = 1 the operator's entries decay slowly: its Sturm counts
        # walk hundreds of rows of the 2000- and 4000-row truncations before
        # the tail can no longer flip a pivot
        (
            ["spectrum", "--dim", "2000", "--q", "0.99", "--a", "0.5", "--b", "-0.7"],
            "spectrum_dim2000_q0.99_a0.5_b-0.7.csv",
            0,
        ),
    ]

    def test_golden_moves_reports_moves_and_changes(self, tmp_path):
        # the comparison a regenerated golden file is described with:
        # records moved per family, the worst move against the verdict
        # bound, and every status or terms_used change
        header = "identity_id,i,j,lhs,rhs,residual,terms_used,tail_estimate,status\n"
        old = tmp_path / "old.csv"
        new = tmp_path / "new.csv"
        old.write_text(
            header
            + "dual-ff,0,0,2.0,2.0,0,40,1e-15,pass\n"
            + "dual-ff,0,1,1e-17,0,1e-17,41,1e-15,pass\n"
            + "sears,0,0,3.0,3.0,0,50,1e-15,pass\n"
        )
        new.write_text(
            header
            + "dual-ff,0,0,2.00000003,2.0,3e-8,40,1e-15,pass\n"
            + "dual-ff,0,1,1e-17,0,1e-17,42,1e-15,pass\n"
            + "sears,0,0,3.0,3.0,0,50,1e-15,fail\n"
            + "meixner,0,0,1.0,1.0,0,30,1e-15,pass\n"
        )
        script = Path(__file__).parent / "golden_moves.py"
        res = subprocess.run([sys.executable, str(script), str(old), str(new)], capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        lines = res.stdout.splitlines()
        assert lines[1].split() == ["dual-ff", "1/2", "1"]  # 3e-8 / (1e-8 (1 + 2))
        assert lines[2].split() == ["sears", "0/1", "0"]
        assert lines[3:] == [
            "status or terms_used changes: 2",
            "  dual-ff,0,1: terms_used 41 -> 42",
            "  sears,0,0: status pass -> fail",
            "only in NEW: 1",
            "  meixner,0,0",
        ]

    @pytest.mark.parametrize("argv,name,returncode", GOLDEN, ids=[name for _, name, _ in GOLDEN])
    def test_csv_matches_golden_bytes(self, argv, name, returncode):
        output_format = Path(name).suffix[1:]
        res = subprocess.run(BASE + argv + ["--format", output_format, "--no-timestamp"], capture_output=True)
        assert res.returncode == returncode, res.stderr
        want = (Path(__file__).parent / "data" / name).read_bytes()
        if res.stdout != want:
            pytest.fail(first_difference(res.stdout, want), pytrace=False)
