"""Every metric of every workload in one command.

    python3 perfbench/report.py --seed 1 --seconds 45

For each workload this makes one untraced run (end-to-end metrics) and two
traced runs (per-layer metrics), all with the same seed.  It checks that
the three runs produce identical output digests and that the two traced
runs produce identical counts (records, verification terms, calls per
boundary), and reports the tracing overhead as traced wall time divided
by untraced wall time.  Exits with 1 if an operation or a check fails.

Each run is its own `run.py` process: a child's peak RSS as wait4 reports
it is at least its parent's RSS, so the parent must stay small.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import run as bench

RUN = Path(__file__).resolve().parent / "run.py"


def _run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """One run.py process, parsed: its result line plus the digest, counts,
    loop wall, tail label and spans from the lines before it."""
    argv = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run(argv + ["--trace", str(int(trace))], capture_output=True, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(argv)} failed:\n{done.stderr}")
    out = {"result": json.loads(lines[-1]), "spans": {}, "host": "", "problems": []}
    for line in lines[:-1]:
        word, _, rest = line.partition(" ")
        if word == "host":
            out["host"] = rest
        elif word == "run":
            out["digest"] = rest.split()[-1]
        elif word == "counts":
            out["counts"] = json.loads(rest)
        elif word == "loop_wall":
            out["loop_wall"] = float(rest.split()[0])
        elif word == "op_s.tail" and rest.startswith("is "):
            out["tail_label"] = rest[3:]
        elif word == "span":
            key, _, seconds_part = rest.split()
            out["spans"][key] = float(seconds_part[2:])
        elif word == "op" and not line.endswith(" ok"):
            out["problems"].append(line)
    return out


def _share(part: float, whole: float) -> str:
    return f"{part / whole:.1%}" if whole else "n/a"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=45)
    args = parser.parse_args(argv)

    ok = True
    for workload in bench.WORKLOADS:
        plain = _run(workload, args.seed, args.seconds, trace=False)
        traced = [_run(workload, args.seed, args.seconds, trace=True) for _ in range(2)]
        runs = [plain] + traced
        print(f"host {plain['host']}")
        print(f"== {workload}  seed {args.seed}  op_s.tail is {plain['tail_label']}")
        for problem in (p for r in runs for p in r["problems"]):
            print(f"FAILED {problem}")
        metrics = {**plain["result"]["metrics"], **traced[0]["result"]["metrics"]}
        for name, m in metrics.items():
            print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}")

        same_digest = len({r["digest"] for r in runs}) == 1
        same_counts = traced[0]["counts"] == traced[1]["counts"]
        print(f"  output digests identical across 3 runs: {same_digest} ({plain['digest'][:16]})")
        print(f"  counts identical across 2 traced runs:  {same_counts}")
        print(f"  tracing overhead (traced / untraced wall): {traced[0]['loop_wall'] / plain['loop_wall']:.3f}")

        value = {name: m["value"] for name, m in metrics.items()}
        families = {fam: value[f"orthogonality.family.{fam}.s"] for fam in bench.IDENTITY_FAMILIES}
        if any(families.values()):
            top = max(families, key=families.get)
            print(f"  largest family: {top} ({_share(families[top], sum(families.values()))} of family time)")
        qseries = {key: s for key, s in traced[0]["spans"].items() if key.startswith("qseries.")}
        if qseries:
            top = max(qseries, key=qseries.get)
            print(f"  largest qseries cost: {top} ({qseries[top]:.3f} s)")
        if value["cli.spectrum.s"]:
            share = _share(value["operators.eig_tridiagonal.s"], value["cli.spectrum.s"])
            print(f"  eig_tridiagonal share of spectrum: {share}")
        failed = any(r["result"]["failed"] for r in runs)
        ok = ok and same_digest and same_counts and not failed
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
