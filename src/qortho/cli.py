"""Command-line front end.

Subcommands
-----------
verify      run one identity family (or all) over the index grid
spectrum    exact spectral points vs truncated-matrix eigenvalues
table       tabulate polynomial values and normalization constants
limit       classical q -> 1 sweeps with fitted convergence rates
report-all  verify-all + spectrum + limit in one report

Exit codes: 0 all checks passed, 1 any failure, 2 inconclusive results
only, 64 usage error.  Identical configurations produce byte-identical
output; the timestamp header is suppressed with --no-timestamp.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Optional

import mpmath

from qortho.qseries import DomainError, QParams, Truncation
from qortho.operators import (
    build_A,
    eig_tridiagonal,
    eig_tridiagonal_accuracy,
    normalization_c,
    normalization_cprime,
    spectrum_points,
    truncation_residuals,
)
from qortho.polynomials import (
    big_q_laguerre,
    big_q_laguerre_recurrence,
    q_meixner,
    spectral_sequence,
)
from qortho.orthogonality import (
    DEFAULT_TOLERANCE,
    IDENTITY_FAMILIES,
    VerificationReport,
    _Store,
    run_identity_checks,
)
from qortho.climit import (
    LimitSweep,
    classical_operator_check,
    limit_operator_entries_check,
    limit_polynomial_check,
)
from qortho.reporting import (
    render_csv,
    render_json,
    render_table_csv,
    report_to_record,
    summarize,
)

__all__ = ["main", "RunConfig"]

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64

EXTENDED_DPS = 50


@dataclass(frozen=True)
class RunConfig:
    """Echoed verbatim into every report."""

    command: str
    q: float
    a: float
    b: float
    identity: str = "all"
    index_max: int = 8
    dim: int = 200
    tolerance: float = DEFAULT_TOLERANCE
    precision: str = "double"
    output_format: str = "json"
    output_path: Optional[str] = None
    no_timestamp: bool = False

    def params(self) -> QParams:
        return QParams(q=self.q, a=self.a, b=self.b)

    def truncation(self) -> Truncation:
        return Truncation()

    def as_dict(self) -> dict:
        return {
            "command": self.command,
            "q": float(self.q),
            "a": float(self.a),
            "b": float(self.b),
            "l": float(self.params().l),
            "identity": self.identity,
            "index_max": self.index_max,
            "dim": self.dim,
            "tolerance": float(self.tolerance),
            "precision": self.precision,
            "format": self.output_format,
        }


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> _Parser:
    parser = _Parser(prog="qortho", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in [
        ("verify", "run identity verifications"),
        ("spectrum", "spectral points vs truncated eigenvalues"),
        ("table", "tabulate polynomial values"),
        ("limit", "classical-limit sweeps"),
        ("report-all", "verify + spectrum + limit combined"),
    ]:
        sp = sub.add_parser(name, help=helptext, parents=[], add_help=True)
        sp.add_argument("--q", type=float, default=0.5, help="base, 0 < q < 1")
        sp.add_argument("--a", type=float, default=0.5, help="parameter a, 0 < a < 1/q")
        sp.add_argument("--b", type=float, default=-0.7, help="parameter b, b < 0")
        sp.add_argument("--l", type=float, default=None, help="lowest weight; overrides --a via a = q^(2l-1)")
        sp.add_argument(
            "--identity",
            default="all",
            choices=("all",) + IDENTITY_FAMILIES,
            help="identity family for verify",
        )
        sp.add_argument("--index-max", type=int, default=8, dest="index_max")
        sp.add_argument("--dim", type=int, default=200)
        sp.add_argument("--tol", type=float, default=DEFAULT_TOLERANCE, dest="tolerance")
        sp.add_argument("--precision", choices=("double", "extended"), default="double")
        sp.add_argument("--format", choices=("json", "csv"), default="json", dest="output_format")
        sp.add_argument("--out", default=None, dest="output_path")
        sp.add_argument("--no-timestamp", action="store_true", dest="no_timestamp")
    return parser


def _config_from_args(args) -> RunConfig:
    q, a, b = args.q, args.a, args.b
    if args.l is not None:
        if not args.l > 0:
            raise DomainError("l must be positive")
        a = q ** (2 * args.l - 1)
    cfg = RunConfig(
        command=args.command,
        q=q,
        a=a,
        b=b,
        identity=args.identity,
        index_max=args.index_max,
        dim=args.dim,
        tolerance=args.tolerance,
        precision=args.precision,
        output_format=args.output_format,
        output_path=args.output_path,
        no_timestamp=args.no_timestamp,
    )
    cfg.params()  # validates the domain before any computation
    if cfg.index_max < 0:
        raise DomainError("index-max must be nonnegative")
    if cfg.dim < 1:
        raise DomainError("dim must be a positive integer")
    if not cfg.tolerance > 0:
        raise DomainError("tol must be positive")
    return cfg


# ---------------------------------------------------------------------------
# verify


def _verify_reports(families: list, p: QParams, t: Truncation, index_max: int, tolerance: float) -> list:
    """The families' reports, run in order on one store."""
    store = _Store(p, t)
    return [r for fam in families for r in run_identity_checks(fam, p, t, index_max, tolerance, store=store)]


def _run_verify(cfg: RunConfig) -> list:
    families = list(IDENTITY_FAMILIES) if cfg.identity == "all" else [cfg.identity]
    if cfg.precision == "extended":
        with mpmath.workdps(EXTENDED_DPS):
            p = QParams(q=mpmath.mpf(repr(cfg.q)), a=mpmath.mpf(repr(cfg.a)), b=mpmath.mpf(repr(cfg.b)))
            reports = _verify_reports(families, p, Truncation(rel_tol=1e-20), cfg.index_max, cfg.tolerance)
    else:
        reports = _verify_reports(families, cfg.params(), Truncation(), cfg.index_max, cfg.tolerance)
    records = [report_to_record(r) for r in reports]
    records.sort(key=lambda r: (r["identity_id"], r["i"], r["j"]))
    return records


# ---------------------------------------------------------------------------
# spectrum


def _spectrum_reports(cfg: RunConfig) -> list:
    p = cfg.params()
    n_extreme = 10
    exact = spectrum_points(p, max(30, n_extreme)).merged_by_magnitude()[:n_extreme]
    scales = [cfg.tolerance * (1 + abs(lam)) for lam in exact]
    reports = []
    errors, bounds, deltas = {}, {}, {}
    for d in (cfg.dim, 2 * cfg.dim):
        tri = build_A(p, d)
        nearest = eig_tridiagonal(tri, near=exact)
        # the cut exact eigenvector puts an eigenvalue of A_d within r of
        # lam, and the solve finds it to within delta
        delta = deltas[d] = eig_tridiagonal_accuracy(tri)
        for rank, r in enumerate(truncation_residuals(p, d, exact)):
            lam, matched, scale = exact[rank], nearest[rank], scales[rank]
            err = errors[(rank, d)] = abs(matched - lam)
            bound = bounds[(rank, d)] = r + delta
            status = "fail" if err > max(bound, scale) else "pass" if bound <= scale else "inconclusive"
            reports.append(
                VerificationReport(
                    identity_id="spectrum-match",
                    params=p,
                    indices=(rank, d),
                    lhs=lam,
                    rhs=matched,
                    residual=err,
                    terms_used=d,
                    tail_estimate=bound,
                    passed=status == "pass",
                    tolerance=cfg.tolerance,
                    status=status,
                    note=f"an eigenvalue of the truncation lies within {bound:.3e} of the exact one",
                )
            )
    for rank in range(n_extreme):
        e1, e2 = errors[(rank, cfg.dim)], errors[(rank, 2 * cfg.dim)]
        # each error is known to within its solve's accuracy
        ok = e2 <= e1 * 1.000001 + deltas[cfg.dim] + deltas[2 * cfg.dim]
        # an uncertified matching error says nothing about convergence
        bound = max(bounds[(rank, cfg.dim)], bounds[(rank, 2 * cfg.dim)])
        status = ("pass" if ok else "fail") if bound <= scales[rank] else "inconclusive"
        reports.append(
            VerificationReport(
                identity_id="spectrum-converge",
                params=p,
                indices=(rank, cfg.dim),
                lhs=e1,
                rhs=e2,
                residual=max(0.0, e2 - e1),
                terms_used=3 * cfg.dim,
                tail_estimate=bound,
                passed=status == "pass",
                tolerance=cfg.tolerance,
                status=status,
                note="matching error must not grow when dim doubles",
            )
        )
    reports.sort(key=lambda r: (r.identity_id, r.indices))
    return [report_to_record(r) for r in reports]


# ---------------------------------------------------------------------------
# table


def _table_rows(cfg: RunConfig) -> list:
    p = cfg.params()
    t = cfg.truncation()
    rows = []
    xs = [p.a * p.q, p.a * p.q**2, p.a * p.q**3, p.b * p.q, p.b * p.q**2, p.b * p.q**3]
    for x in xs:
        seqs = big_q_laguerre_recurrence(cfg.index_max, x, p)
        for n in range(cfg.index_max + 1):
            rows.append(
                {
                    "family": "big-q-laguerre",
                    "n": n,
                    "m_or_x": float(x),
                    "value": float(big_q_laguerre(n, x, p, t)),
                    "method": "series",
                }
            )
            rows.append(
                {
                    "family": "big-q-laguerre",
                    "n": n,
                    "m_or_x": float(x),
                    "value": float(seqs[n]),
                    "method": "recurrence",
                }
            )
    for n in range(cfg.index_max + 1):
        # dual_f(n, m) and dual_g(n, m) are entry m of these sequences,
        # whose entries do not depend on the cut-off
        f_seq = spectral_sequence(p, "a", n, cfg.index_max)
        g_seq = spectral_sequence(p, "b", n, cfg.index_max)
        for m in range(cfg.index_max + 1):
            rows.append(
                {
                    "family": "q-meixner",
                    "n": n,
                    "m_or_x": m,
                    "value": float(q_meixner(n, m, p.a, -p.b / p.a, p.q, t)),
                    "method": "series",
                }
            )
            rows.append(
                {
                    "family": "dual-f",
                    "n": n,
                    "m_or_x": m,
                    "value": float(f_seq[m]),
                    "method": "spectral",
                }
            )
            rows.append(
                {
                    "family": "dual-g",
                    "n": n,
                    "m_or_x": m,
                    "value": float(g_seq[m]),
                    "method": "spectral",
                }
            )
    for n in range(cfg.index_max + 1):
        rows.append(
            {
                "family": "c",
                "n": n,
                "m_or_x": n,
                "value": float(normalization_c(n, p, t)),
                "method": "closed-form",
            }
        )
        rows.append(
            {
                "family": "c-prime",
                "n": n,
                "m_or_x": n,
                "value": float(normalization_cprime(n, p, t)),
                "method": "closed-form",
            }
        )
    return rows


# ---------------------------------------------------------------------------
# limit


def _limit_reports(cfg: RunConfig) -> list:
    t = cfg.truncation()
    sweep = LimitSweep(alpha=1.0, beta=0.5)
    reports = []
    for n in range(min(cfg.index_max, 6) + 1):
        reports.extend(limit_polynomial_check(n, 0.4, sweep, t))
    reports.extend(limit_operator_entries_check(min(cfg.index_max, 5), sweep))
    reports.append(classical_operator_check(0.25, 0.2, 1.0))
    reports.sort(key=lambda r: (r.identity_id, r.indices))
    return [report_to_record(r) for r in reports]


# ---------------------------------------------------------------------------
# output assembly


def _emit(cfg: RunConfig, records: list, table_rows: Optional[list] = None) -> int:
    if cfg.output_format == "csv":
        text = render_table_csv(table_rows) if table_rows is not None else render_csv(records)
    else:
        payload = {"schema_version": "1"}
        if not cfg.no_timestamp:
            payload["generated_at"] = datetime.now(timezone.utc).isoformat()
        payload["config"] = cfg.as_dict()
        if table_rows is not None:
            payload["table"] = table_rows
        payload["records"] = records
        payload["summary"] = summarize(records)
        text = render_json(payload)

    try:
        if cfg.output_path:
            with open(cfg.output_path, "w", newline="") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except OSError as exc:
        print(f"qortho: I/O error: {exc}", file=sys.stderr)
        return EXIT_FAIL

    statuses = [rec["status"] for rec in records]
    if any(s == "fail" for s in statuses):
        return EXIT_FAIL
    if any(s == "inconclusive" for s in statuses):
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
    except DomainError as exc:
        print(f"qortho: error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        if cfg.command == "verify":
            records = _run_verify(cfg)
            return _emit(cfg, records)
        if cfg.command == "spectrum":
            return _emit(cfg, _spectrum_reports(cfg))
        if cfg.command == "table":
            return _emit(cfg, [], table_rows=_table_rows(cfg))
        if cfg.command == "limit":
            return _emit(cfg, _limit_reports(cfg))
        if cfg.command == "report-all":
            records = _run_verify(cfg)
            records.extend(_spectrum_reports(cfg))
            records.extend(_limit_reports(cfg))
            records.sort(key=lambda r: (r["identity_id"], r["i"], r["j"]))
            return _emit(cfg, records)
    except DomainError as exc:
        print(f"qortho: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    raise AssertionError(f"unhandled command {cfg.command}")


if __name__ == "__main__":
    sys.exit(main())
