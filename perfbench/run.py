"""qortho benchmark: cold-process CLI operations in a closed loop.

    python3 perfbench/run.py --workload verify-double --seed 1 --seconds 45 --trace 0

One client runs one operation at a time, and every operation is a fresh
`python -m qortho` process, so each pays the cold caches a CLI user pays.
The seed is turned into CLI flags; the program sees only those.

A run executes a fixed number of operations, sized from --seconds by the
workload's nominal seconds per operation on the reference host (2 cores,
Python 3.11, pure-Python mpmath).  Fixing the count, not the deadline,
makes the same seed give the same operations, output digests and counts
on every run; the wall time actually spent is what the metrics report.

Parameter design.  q sets an operation's cost (a factor of 7 across
verify-double's range), while a and b move it by up to 20%.  So q sits at
the centres of equal strata of the workload's range, and a*q and
log10(-b) are drawn one per stratum from [0.05, 0.95] and [-1.5, 1], with
a fixed pairing of strata.  Every seed thus runs the same cost mix at
different (a, b) points, which keeps the medians steady from seed to seed.  A point is never redrawn because
its records fail: a `fail` verdict is a result, not an operation failure.
The q caps bound run length only; the slow-decay regime near q = 0.9
(`unitarity-rows` alone takes about 32 s there) is known and not measured.

--trace 0 measures the end-to-end metrics.  --trace 1 runs the same
operations through `traced.py`, which times every call that crosses a
module boundary, and reports the per-layer metrics.  The last line of
standard output is the JSON result; the lines before it are for people.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import threading
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TRACED = BENCH_DIR / "traced.py"

# A run must end well inside 180 s; a child still running then is killed
# and the run reports it as a failed operation.
HARD_LIMIT_S = 160.0
SETUP_SAMPLES = 9

AQ_RANGE = (0.05, 0.95)
LOG10_NEG_B_RANGE = (-1.5, 1.0)
SPECTRUM_DIMS = (250, 500, 1000)


@dataclass(frozen=True)
class Workload:
    command: tuple
    q_range: tuple
    op_seconds: float  # nominal seconds per operation on the reference host
    fixed: tuple = ()  # points every run starts with


WORKLOADS = {
    "verify-double": Workload(
        command=("verify", "--identity", "all", "--index-max", "8"),
        q_range=(0.3, 0.8),
        op_seconds=4.4,
        fixed=((0.5, 0.5, -0.7), (0.7, 0.9, -0.4)),  # the acceptance sets
    ),
    # Not in BENCHMARK.json: with three workloads, a run long enough to be
    # steady does not fit the benchmark's time budget.  It stays for
    # report.py and for runs by hand, since it alone shows the 50-digit
    # mpmath hot spot.
    "verify-extended": Workload(
        command=("verify", "--identity", "all", "--precision", "extended", "--index-max", "3"),
        q_range=(0.3, 0.6),
        op_seconds=5.8,
        fixed=((0.5, 0.5, -0.7),),
    ),
    # each operation is spectrum --dim D, then table, then limit
    "inspect": Workload(command=(), q_range=(0.3, 0.8), op_seconds=2.8),
}

IDENTITY_FAMILIES = ("big-laguerre", "sears", "unitarity", "dual", "meixner", "meixner-negb", "eq-zero", "biortho")
LAYERS = ("qseries", "polynomials", "operators", "orthogonality", "climit", "reporting", "cli")

END_TO_END = {
    "setup_s": "s",
    "op_s.p50": "s",
    "op_s.tail": "s",
    "records_per_s": "1/s",
    "op_cpu_s.p50": "s",
    "peak_rss_mb": "MB",
    "op_ok_share": "share",
    "records_pass_share": "share",
    "records_nonfail_share": "share",
}

_CALLS_AND_SECONDS = (
    "operators._a_coeff_logs",
    "polynomials.spectral_sequence",
    "qseries.q_pochhammer_inf",
    "qseries.q_pochhammer",
    "operators.normalization",
    "polynomials.q_meixner",
    "polynomials.big_q_laguerre_recurrence",
    "operators.eig_tridiagonal",
)
PER_LAYER = {
    **{f"orthogonality.family.{fam}.s": "s" for fam in IDENTITY_FAMILIES},
    "orthogonality.terms": "count",
    "orthogonality.records": "count",
    "orthogonality.eq_zero_retries": "count",
    **{f"{key}.{part}": unit for key in _CALLS_AND_SECONDS for part, unit in (("calls", "count"), ("s", "s"))},
    "polynomials.spectral_sequence.distinct_ratio": "ratio",
    "operators.eig_useful_ratio": "ratio",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "reporting.render_json.s": "s",
    "cli.spectrum.s": "s",
}
# per-layer keys that aggregate several traced functions
_TRACE_GROUPS = {"operators.normalization": ("operators.normalization_c", "operators.normalization_cprime")}


# ---------------------------------------------------------------------------
# operations


def _flag(x: float) -> str:
    return format(x, ".6g")


def _strata_points(rng: random.Random, q_range: tuple, k: int) -> list:
    """k points: q at the centres of k equal strata of q_range; a*q and
    log10(-b) drawn one per stratum.  Which a*q and b strata go with which
    q stratum depends on k alone, so the seed moves every point only
    within its strata and the run's cost mix stays the same."""
    q_lo, q_hi = q_range
    pairing = random.Random(f"pairing:{k}")
    aq_strata = pairing.sample(range(k), k)
    b_strata = pairing.sample(range(k), k)
    points = []
    for i in range(k):
        q = q_lo + (q_hi - q_lo) * (i + 0.5) / k
        aq = AQ_RANGE[0] + (AQ_RANGE[1] - AQ_RANGE[0]) * (aq_strata[i] + rng.random()) / k
        lb = LOG10_NEG_B_RANGE[0] + (LOG10_NEG_B_RANGE[1] - LOG10_NEG_B_RANGE[0]) * (b_strata[i] + rng.random()) / k
        points.append(tuple(float(_flag(v)) for v in (q, aq / q, -(10.0**lb))))
    rng.shuffle(points)
    return points


def _point_flags(point: tuple) -> list:
    q, a, b = point
    return ["--q", _flag(q), "--a", _flag(a), "--b", _flag(b), "--no-timestamp"]


def operations(workload: str, seed: int, seconds: int) -> list:
    """The run's operations, in order: (point, [qortho argv, ...]).  A pure
    function of its arguments."""
    spec = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    if workload == "inspect":
        reps = max(1, round(seconds / (len(SPECTRUM_DIMS) * spec.op_seconds)))
        dims = list(SPECTRUM_DIMS) * reps
        rng.shuffle(dims)
        points = _strata_points(rng, spec.q_range, len(dims))
        return [
            (
                point,
                [
                    ["spectrum", "--dim", str(dim)] + _point_flags(point),
                    ["table"] + _point_flags(point),
                    ["limit"] + _point_flags(point),
                ],
            )
            for point, dim in zip(points, dims)
        ]
    n_ops = max(len(spec.fixed) + 1, round(seconds / spec.op_seconds))
    points = list(spec.fixed) + _strata_points(rng, spec.q_range, n_ops - len(spec.fixed))
    return [(point, [list(spec.command) + _point_flags(point)]) for point in points]


# ---------------------------------------------------------------------------
# output checks


def _verify_keys(n: int) -> list:
    upper = [(i, j) for i in range(n + 1) for j in range(i, n + 1)]
    full = [(i, j) for i in range(n + 1) for j in range(n + 1)]
    labels = range(-(n + 1), n + 1)
    zpairs = [(i, j) for i in labels for j in labels if i <= j]
    grids = {
        "big-laguerre": upper,
        "sears": [(0, 0)],
        "unitarity-rows": upper,
        "unitarity-columns": zpairs,
        "dual-ff": upper,
        "dual-gg": upper,
        "dual-fg": full,
        "meixner": upper,
        "meixner-negb": upper,
        "eq-zero": full,
        "biortho": zpairs,
    }
    return sorted((ident, i, j) for ident, grid in grids.items() for i, j in grid)


def _spectrum_keys(dim: int) -> list:
    keys = [("spectrum-match", r, d) for r in range(10) for d in (dim, 2 * dim)]
    keys += [("spectrum-converge", r, dim) for r in range(10)]
    return sorted(keys)


LIMIT_IDS = {
    "climit-poly",
    "climit-poly-rate",
    "climit-operator-eigen",
    *(f"climit-operator-{kind}{part}" for kind in ("", "rate-") for part in ("sub", "diag", "super")),
}


def _grid_problem(command: str, config: dict, doc: dict) -> str:
    keys = sorted((r["identity_id"], r["i"], r["j"]) for r in doc["records"])
    n = config["index_max"]
    if command == "verify":
        expected = _verify_keys(n)
        return "" if keys == expected else f"verify grid has {len(keys)} records, expected {len(expected)}"
    if command == "spectrum":
        return "" if keys == _spectrum_keys(config["dim"]) else "spectrum grid incomplete"
    if command == "limit":
        if len(set(keys)) != len(keys) or {k[0] for k in keys} != LIMIT_IDS:
            return "limit identities missing or repeated"
        for ident in LIMIT_IDS:
            cells = {(i, j) for k, i, j in keys if k == ident}
            rows, cols = {i for i, _ in cells}, {j for _, j in cells}
            if len(cells) != len(rows) * len(cols):
                return f"limit grid of {ident} incomplete"
        return ""
    if command == "table":
        m = n + 1
        expected = {
            ("big-q-laguerre", "series"): 6 * m,
            ("big-q-laguerre", "recurrence"): 6 * m,
            ("q-meixner", "series"): m * m,
            ("dual-f", "spectral"): m * m,
            ("dual-g", "spectral"): m * m,
            ("c", "closed-form"): m,
            ("c-prime", "closed-form"): m,
        }
        got = Counter((row["family"], row["method"]) for row in doc.get("table", []))
        return "" if got == expected and not keys else "table rows incomplete"
    return f"unexpected command {command}"


def check_output(command: str, code: int, out: bytes, validator) -> tuple:
    """(problem or "", parsed report or None).  Verdicts are not checked:
    `fail` and `inconclusive` records are results, not failures."""
    if code not in (0, 1, 2):
        return f"exit code {code}", None
    try:
        doc = json.loads(out)
    except ValueError as exc:
        return f"output is not JSON: {exc}", None
    error = next(iter(validator.iter_errors(doc)), None)
    if error is not None:
        return f"schema: {error.message}", None
    statuses = Counter(rec["status"] for rec in doc["records"])
    recount = {"passed": statuses["pass"], "failed": statuses["fail"], "inconclusive": statuses["inconclusive"]}
    if doc["summary"] != recount:
        return f"summary {doc['summary']} != recount {recount}", None
    expected_code = 1 if statuses["fail"] else 2 if statuses["inconclusive"] else 0
    if code != expected_code:
        return f"exit code {code} but records imply {expected_code}", None
    return _grid_problem(command, doc["config"], doc), doc


# ---------------------------------------------------------------------------
# child processes


@dataclass
class Child:
    wall: float
    cpu: float
    rss_kb: int
    code: int
    out: bytes
    err: bytes


def run_child(argv: list, env: dict, workdir: Path, deadline: float) -> Child:
    """Run one process to completion; wall time from spawn to reap, CPU time
    and peak RSS from wait4."""
    with tempfile.TemporaryFile(dir=workdir) as err:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=env, cwd=ROOT)
        killer = threading.Timer(max(0.0, deadline - t0), proc.kill)
        killer.start()
        try:
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            killer.join()
        wall = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, proc.returncode, out, err.read())


def measure_setup(env: dict, workdir: Path, deadline: float) -> list:
    """Wall time of fresh interpreters importing qortho.cli.  The first
    import compiles bytecode, which users do not pay on every call, so it
    is a discarded warm-up that also proves the program is present."""
    argv = [sys.executable, "-c", "import qortho.cli"]
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        child = run_child(argv, env, workdir, deadline)
        if child.code != 0:
            raise RuntimeError(f"cannot import qortho.cli from {SRC}: {child.err.decode(errors='replace')}")
        if i:
            samples.append(child.wall)
    return samples


# ---------------------------------------------------------------------------
# the run


@dataclass
class OpResult:
    point: tuple
    wall: float
    cpu: float
    rss_kb: int
    digest: str
    problem: str
    records: list = field(default_factory=list)  # (command, record) pairs
    traces: list = field(default_factory=list)


@dataclass
class Result:
    workload: str
    seed: int
    trace: bool
    setup: list
    loop_wall: float
    ops: list

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if op.problem)

    @property
    def digest(self) -> str:
        return hashlib.sha256("".join(op.digest for op in self.ops).encode()).hexdigest()


def _validator():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import jsonschema
    from qortho.reporting import REPORT_SCHEMA

    return jsonschema.validators.validator_for(REPORT_SCHEMA)(REPORT_SCHEMA)


def run(workload: str, seed: int, seconds: int, trace: bool) -> Result:
    if not (SRC / "qortho" / "cli.py").is_file():
        raise RuntimeError(f"qortho sources not found under {SRC}")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    deadline = perf_counter() + HARD_LIMIT_S
    done = []
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH_DIR) as tmp:
        workdir = Path(tmp)
        setup = measure_setup(env, workdir, deadline) if not trace else []
        loop_start = perf_counter()
        for index, (point, commands) in enumerate(operations(workload, seed, seconds)):
            children, traces = [], []
            for argv in commands:
                trace_path = workdir / f"trace-{index}-{len(children)}.json"
                prefix = [sys.executable, str(TRACED), str(trace_path), "--"] if trace else [sys.executable, "-m", "qortho"]
                children.append((argv[0], run_child(prefix + argv, env, workdir, deadline)))
                if trace and trace_path.exists():
                    traces.append(json.loads(trace_path.read_text()))
            done.append((point, children, traces))
            if perf_counter() >= deadline:
                break
        loop_wall = perf_counter() - loop_start
    # Checks run after the timed loop, so their cost stays out of it.  They
    # import qortho and jsonschema only then: wait4 reports a child's peak
    # RSS as at least the parent's RSS when it was spawned, so the parent
    # stays smaller than any operation until the loop ends.
    validator = _validator()
    ops = [_op_result(point, children, traces, validator) for point, children, traces in done]
    return Result(workload, seed, trace, setup, loop_wall, ops)


def _op_result(point: tuple, children: list, traces: list, validator) -> OpResult:
    digest = hashlib.sha256()
    problems, records = [], []
    for command, child in children:
        digest.update(child.out)
        problem, doc = check_output(command, child.code, child.out, validator)
        if problem:
            stderr_tail = child.err.decode(errors="replace").strip().splitlines()[-1:]
            problems.append(f"{command}: {problem} {' '.join(stderr_tail)}".strip())
        if doc is not None:
            records.extend((command, rec) for rec in doc["records"])
    return OpResult(
        point=point,
        wall=sum(child.wall for _, child in children),
        cpu=sum(child.cpu for _, child in children),
        rss_kb=max(child.rss_kb for _, child in children),
        digest=digest.hexdigest(),
        problem="; ".join(problems),
        records=records,
        traces=traces,
    )


# ---------------------------------------------------------------------------
# metrics


def quantile(values: list, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile (0 < p < 1): the mean of all
    order statistics, weighted by the Beta((n+1)p, (n+1)(1-p)) mass of each
    rank's slice of [0, 1].  A 45 s run has 8 to 15 operations of unequal cost,
    and the sample quantile reads one or two of them, so one operation's
    timing noise moves it; this estimate blends the ranks around p."""
    import mpmath

    ordered = sorted(values)
    n = len(ordered)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    return sum(float(mpmath.betainc(a, b, i / n, (i + 1) / n, regularized=True)) * x for i, x in enumerate(ordered))


def tail(values: list) -> tuple:
    """(label, value) of the highest of p99.9, p99, p95 and p90 with at
    least ten samples above it.  When N < 100 leaves none, p75: the top of
    a run's few operations is one operation's timing noise."""
    for p in (99.9, 99, 95, 90):
        if len(values) * (100 - p) / 100 >= 10 - 1e-9:
            return f"p{p:g}", quantile(values, p / 100)
    return "p75", quantile(values, 0.75)


def end_to_end(result: Result) -> dict:
    walls = [op.wall for op in result.ops]
    statuses = Counter(rec["status"] for op in result.ops for _, rec in op.records)
    n_records = sum(statuses.values())
    return {
        "setup_s": statistics.median(result.setup),
        "op_s.p50": quantile(walls, 0.5),
        "op_s.tail": tail(walls)[1],
        "records_per_s": n_records / result.loop_wall,
        "op_cpu_s.p50": quantile([op.cpu for op in result.ops], 0.5),
        "peak_rss_mb": max(op.rss_kb for op in result.ops) / 1024,
        "op_ok_share": 1 - result.failed / len(result.ops),
        "records_pass_share": statuses["pass"] / n_records if n_records else 0.0,
        "records_nonfail_share": 1 - statuses["fail"] / n_records if n_records else 0.0,
    }


def trace_totals(result: Result) -> dict:
    """Every trace section summed over the run's processes."""
    totals = {section: Counter() for section in ("calls", "seconds", "self_seconds", "items", "distinct")}
    for op in result.ops:
        for trace in op.traces:
            for section, counter in totals.items():
                counter.update(trace[section])
    for group, members in _TRACE_GROUPS.items():
        for section in ("calls", "seconds"):
            totals[section][group] = sum(totals[section][m] for m in members)
    return totals


def counts(result: Result) -> dict:
    """Deterministic counts of a run: records, verification terms, and (on
    a traced run) calls per boundary key."""
    verify = [rec for op in result.ops for command, rec in op.records if command == "verify"]
    out = {
        "records": sum(len(op.records) for op in result.ops),
        "orthogonality.records": len(verify),
        "orthogonality.terms": sum(rec["terms_used"] for rec in verify),
        "orthogonality.eq_zero_retries": sum(
            1 for rec in verify if rec["identity_id"] == "eq-zero" and "retried at extended precision" in rec.get("note", "")
        ),
    }
    if result.trace:
        out.update({f"calls.{key}": n for key, n in sorted(trace_totals(result)["calls"].items())})
    return out


def per_layer(result: Result) -> dict:
    totals = trace_totals(result)
    calls, seconds = totals["calls"], totals["seconds"]
    computed = totals["items"]["operators.eig_tridiagonal"]
    matched = sum(1 for op in result.ops for command, rec in op.records if rec["identity_id"] == "spectrum-match")
    spectral_calls = calls["polynomials.spectral_sequence"]
    c = counts(result)
    metrics = {f"orthogonality.family.{fam}.s": seconds[f"orthogonality.family.{fam}"] for fam in IDENTITY_FAMILIES}
    metrics.update({key: c[key] for key in ("orthogonality.terms", "orthogonality.records", "orthogonality.eq_zero_retries")})
    for key in _CALLS_AND_SECONDS:
        metrics[f"{key}.calls"] = calls[key]
        metrics[f"{key}.s"] = seconds[key]
    metrics["polynomials.spectral_sequence.distinct_ratio"] = (
        totals["distinct"]["polynomials.spectral_sequence"] / spectral_calls if spectral_calls else 0.0
    )
    metrics["operators.eig_useful_ratio"] = matched / computed if computed else 0.0
    metrics.update({f"{layer}.self_s": totals["self_seconds"][layer] for layer in LAYERS})
    metrics["reporting.render_json.s"] = seconds["reporting.render_json"]
    metrics["cli.spectrum.s"] = seconds["cli.spectrum"]
    return metrics


def host_facts() -> dict:
    import mpmath
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
    }


def describe(result: Result) -> list:
    """Human-readable lines: host, every operation, digests and counts, and
    on a traced run every span; on an untraced run the tail's percentile
    and the raw failure shares."""
    lines = [f"host {json.dumps(host_facts())}"]
    lines.append(f"workload {result.workload} seed {result.seed} trace {int(result.trace)} ops {len(result.ops)}")
    for i, op in enumerate(result.ops):
        q, a, b = op.point
        lines.append(
            f"op {i} q={q:g} a={a:g} b={b:g} wall={op.wall:.3f}s cpu={op.cpu:.3f}s rss={op.rss_kb / 1024:.1f}MB "
            f"records={len(op.records)} sha256={op.digest[:16]} {op.problem or 'ok'}"
        )
    lines.append(f"run sha256 {result.digest}")
    lines.append(f"loop_wall {result.loop_wall:.6f} s")
    lines.append(f"counts {json.dumps(counts(result), sort_keys=True)}")
    if result.trace:
        totals = trace_totals(result)
        for key, s in sorted(totals["seconds"].items(), key=lambda kv: -kv[1]):
            lines.append(f"span {key} calls={totals['calls'][key]} s={s:.4f}")
    else:
        label, _ = tail([op.wall for op in result.ops])
        lines.append(f"op_s.tail is {label} of N={len(result.ops)} operations")
        n_records = sum(len(op.records) for op in result.ops)
        fails = sum(1 for op in result.ops for _, rec in op.records if rec["status"] == "fail")
        lines.append(f"op_fail_share {result.failed / len(result.ops):.6g} share")
        lines.append(f"records_fail_share {fails / n_records if n_records else 0.0:.6g} share")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    metrics, units = (per_layer(result), PER_LAYER) if result.trace else (end_to_end(result), END_TO_END)
    for line in describe(result):
        print(line)
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    summary = {
        "correct": result.failed == 0,
        "attempted": len(result.ops),
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
