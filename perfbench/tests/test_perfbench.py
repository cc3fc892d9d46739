"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import run as bench  # noqa: E402
import traced  # noqa: E402

ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
@pytest.mark.parametrize("seconds", [1, 35])
def test_seed_gives_same_operations(workload, seconds):
    first = bench.operations(workload, 7, seconds)
    assert first == bench.operations(workload, 7, seconds)
    assert first != bench.operations(workload, 8, seconds)


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_operations_stay_in_region(workload):
    spec = bench.WORKLOADS[workload]
    ops = bench.operations(workload, 3, 35)
    assert [point for point, _ in ops[: len(spec.fixed)]] == list(spec.fixed)
    drawn = [point for point, _ in ops[len(spec.fixed):]]
    assert drawn
    for q, a, b in drawn:
        assert spec.q_range[0] <= q <= spec.q_range[1]
        assert 0.05 <= a * q <= 0.95 + 1e-6
        assert -10.0 - 1e-6 <= b <= -(10**-1.5) + 1e-6
    # q strata are evenly spaced, one point each
    qs = sorted(q for q, _, _ in drawn)
    gaps = {round(hi - lo, 4) for lo, hi in zip(qs, qs[1:])}
    assert len(gaps) <= 1


def test_inspect_balances_dimensions():
    dims = [cmds[0][2] for _, cmds in bench.operations("inspect", 5, 35)]
    assert sorted(set(dims)) == ["1000", "250", "500"]
    assert len({dims.count(d) for d in set(dims)}) == 1


def test_benchmark_json_matches_run():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER


def test_tail_needs_ten_samples_beyond():
    assert bench.tail(list(range(1, 10)))[0] == "p75"
    assert bench.tail(list(range(1, 101)))[0] == "p90"
    assert bench.tail(list(range(1, 1001)))[0] == "p99"


@pytest.mark.parametrize("n", [1, 2, 6, 12, 101])
def test_quantile_estimates_the_quantile(n):
    import statistics

    values = [(i * 7919) % 113 / 7 for i in range(n)]
    assert bench.quantile([2.5] * n, 0.75) == pytest.approx(2.5)
    assert min(values) <= bench.quantile(values, 0.5) <= bench.quantile(values, 0.75) <= max(values)
    # symmetric weights: the median of symmetric data is its centre
    symmetric = sorted(values + [-v for v in values])
    assert bench.quantile(symmetric, 0.5) == pytest.approx(statistics.median(symmetric), abs=1e-9)
    # with many samples it agrees with the sample quantile
    evenly = [i / 1000 for i in range(1001)]
    assert bench.quantile(evenly, 0.75) == pytest.approx(0.75, abs=1e-3)


def test_wrap_list_covers_every_cross_module_function():
    modules = traced.layer_modules()
    assert set(modules) >= set(bench.LAYERS)
    entries = traced.wrap_list(modules)
    assert ("orthogonality", "_a_coeff_logs", "operators") in entries
    assert ("operators", "q_pochhammer_inf", "qseries") in entries
    assert ("cli", "run_identity_checks", "orthogonality") in entries
    # classes are not wrapped, so isinstance checks keep working
    assert not any(name in ("QParams", "VerificationReport") for _, name, _ in entries)


def test_new_cross_module_import_is_traced(monkeypatch):
    modules = traced.layer_modules()
    monkeypatch.setattr(modules["climit"], "q_number", modules["qseries"].q_number, raising=False)
    assert ("climit", "q_number", "qseries") in traced.wrap_list(modules)


def test_self_time_excludes_child_spans():
    tracer = traced.Tracer()
    inner = tracer._wrapper("qseries.inner", "qseries", lambda: sum(range(20000)))
    outer = tracer._wrapper("operators.outer", "operators", lambda: inner() + inner())
    tracer.call("cli.root", "cli", outer, (), {})
    assert tracer.calls == {"cli.root": 1, "operators.outer": 1, "qseries.inner": 2}
    total = tracer.seconds["cli.root"]
    assert sum(tracer.self_seconds.values()) == pytest.approx(total, rel=1e-9)
    assert tracer.self_seconds["qseries"] == pytest.approx(tracer.seconds["qseries.inner"], rel=1e-9)


def test_traced_entry_changes_no_output(tmp_path):
    args = ["table", "--index-max", "1", "--no-timestamp"]
    plain = subprocess.run([sys.executable, "-m", "qortho"] + args, capture_output=True, env=ENV, check=True)
    out = tmp_path / "trace.json"
    run = subprocess.run(
        [sys.executable, str(BENCH_DIR / "traced.py"), str(out), "--"] + args, capture_output=True, env=ENV
    )
    assert run.returncode == plain.returncode == 0
    assert run.stdout == plain.stdout
    trace = json.loads(out.read_text())
    assert trace["wrapped"] == len(traced.wrap_list(traced.layer_modules()))
    assert trace["calls"]["cli.table"] == 1
    assert trace["calls"]["polynomials.q_meixner"] == 4


@pytest.fixture(scope="module")
def verify_output():
    args = ["verify", "--index-max", "1", "--no-timestamp"]
    done = subprocess.run([sys.executable, "-m", "qortho"] + args, capture_output=True, env=ENV)
    return done.returncode, done.stdout


def test_check_output_accepts_real_report(verify_output):
    code, out = verify_output
    problem, doc = bench.check_output("verify", code, out, bench._validator())
    assert problem == ""
    assert len(doc["records"]) == len(bench._verify_keys(1))


def test_check_output_flags_broken_reports(verify_output):
    code, out = verify_output
    validator = bench._validator()
    doc = json.loads(out)

    assert bench.check_output("verify", 3, out, validator)[0] == "exit code 3"
    assert bench.check_output("verify", code, b"not json", validator)[0].startswith("output is not JSON")

    wrong_summary = dict(doc, summary=dict(doc["summary"], passed=doc["summary"]["passed"] + 1))
    assert bench.check_output("verify", code, json.dumps(wrong_summary).encode(), validator)[0].startswith("summary")

    wrong_code = 0 if code else 1
    assert "records imply" in bench.check_output("verify", wrong_code, out, validator)[0]

    records = doc["records"][1:]
    statuses = Counter(rec["status"] for rec in records)
    recount = {"passed": statuses["pass"], "failed": statuses["fail"], "inconclusive": statuses["inconclusive"]}
    short = dict(doc, records=records, summary=recount)
    assert "grid" in bench.check_output("verify", code, json.dumps(short).encode(), validator)[0]

    bad_record = dict(doc, records=[dict(doc["records"][0], status="maybe")] + doc["records"][1:])
    assert bench.check_output("verify", code, json.dumps(bad_record).encode(), validator)[0].startswith("schema")
