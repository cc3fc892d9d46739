"""Command-line front end.

Commands
--------
verify      run one identity family (or all) over the index grid
spectrum    exact spectral points vs truncated-matrix eigenvalues
table       tabulate polynomial values and normalization constants
limit       classical q -> 1 sweeps with fitted convergence rates
report-all  verify-all + spectrum + limit in one report

Every option applies to every command and may come before or after it.
Exit codes: 0 all checks passed, 1 any failure, 2 inconclusive results
only, 64 usage error, 70 a sum that could not be computed (no verdict),
74 the report could not be written.  Identical configurations produce
byte-identical output; the timestamp header is suppressed with
--no-timestamp.
"""

from __future__ import annotations

import argparse
import decimal
import gc
import itertools
import math
import re
import sys
from typing import NamedTuple, Optional

from qortho.qseries import DomainError, QParams, QSeriesError, Truncation, _working_context
from qortho.operators import (
    Tridiagonal,
    _normalization_entries,
    build_A,
    eig_tridiagonal,
    eig_tridiagonal_accuracy,
    spectrum_points,
    truncation_residuals,
)
from qortho.polynomials import (
    EXTENDED_DPS,
    big_q_laguerre,
    big_q_laguerre_recurrence,
    q_meixner,
    spectral_sequence,
)
from qortho.orthogonality import (
    DEFAULT_TOLERANCE,
    IDENTITY_FAMILIES,
    run_identity_checks,
)
from qortho.climit import (
    LimitSweep,
    classical_operator_check,
    limit_operator_entries_check,
    limit_polynomial_check,
)
from qortho.reporting import (
    VerificationReport,
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
EXIT_SOFTWARE = 70
EXIT_IOERR = 74


class RunConfig(NamedTuple):
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
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern of negative numbers has no exponent, so
        # it would read "-1e4" as an option name
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> _Parser:
    parser = _Parser(prog="qortho", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", choices=("verify", "spectrum", "table", "limit", "report-all"))
    parser.add_argument("--q", type=float, default=0.5, help="base, 0 < q < 1")
    parser.add_argument("--a", type=float, default=0.5, help="parameter a, 0 < a < 1/q")
    parser.add_argument("--b", type=float, default=-0.7, help="parameter b, b < 0")
    parser.add_argument("--l", type=float, default=None, help="lowest weight; overrides --a via a = q^(2l-1)")
    parser.add_argument(
        "--identity", default="all", choices=("all",) + IDENTITY_FAMILIES, help="identity family for verify"
    )
    parser.add_argument("--index-max", type=int, default=8, dest="index_max")
    parser.add_argument("--dim", type=int, default=200)
    parser.add_argument(
        "--tol",
        type=float,
        default=DEFAULT_TOLERANCE,
        dest="tolerance",
        help="verdict tolerance of the verify and spectrum records, also within report-all; "
        "limit records carry the tolerance of their own fit, and table has no verdicts",
    )
    parser.add_argument(
        "--precision",
        choices=("double", "extended"),
        default="double",
        help="extended runs the verify records, also within report-all, on 50-digit Decimal parameters; "
        "spectrum, table and limit compute in double at either precision",
    )
    parser.add_argument("--format", choices=("json", "csv"), default="json", dest="output_format")
    parser.add_argument("--out", default=None, dest="output_path")
    parser.add_argument("--no-timestamp", action="store_true", dest="no_timestamp")
    return parser


def _config_from_args(args) -> RunConfig:
    fields = dict(vars(args))
    lowest = fields.pop("l")
    if lowest is not None:
        fields["a"] = QParams.from_l(args.q, lowest, args.b).a
    cfg = RunConfig(**fields)
    cfg.params()  # validates the domain before any computation
    if cfg.index_max < 0:
        raise DomainError("index-max must be nonnegative")
    if cfg.dim < 1:
        raise DomainError("dim must be a positive integer")
    if not 0 < cfg.tolerance < math.inf:
        raise DomainError("tol must be positive and finite")
    return cfg


# ---------------------------------------------------------------------------
# verify


def _record_order(rec: dict) -> tuple:
    """The order of every command's records."""
    return rec["identity_id"], rec["i"], rec["j"]


def _run_verify(cfg: RunConfig) -> list:
    """The records of cfg's identity family, or of every family on one store."""
    if cfg.precision == "extended":
        # the exact Decimals of the flag values, checked against the domain
        # in the context the store computes in, not in the caller's
        with decimal.localcontext(_working_context(EXTENDED_DPS)):
            p = QParams(*(decimal.Decimal(repr(x)) for x in (cfg.q, cfg.a, cfg.b)))
        t = Truncation(rel_tol=1e-20)
    else:
        p, t = cfg.params(), Truncation()
    return [report_to_record(r) for r in run_identity_checks(cfg.identity, p, t, cfg.index_max, cfg.tolerance)]


# ---------------------------------------------------------------------------
# spectrum


def _spectrum_reports(cfg: RunConfig) -> list:
    p = cfg.params()
    n_extreme = 10
    # each branch decreases in magnitude, so its first n_extreme points hold
    # every one of the n_extreme largest
    labels, exact = zip(*spectrum_points(p, n_extreme).ranked()[:n_extreme])
    scales = [cfg.tolerance * (1 + abs(lam)) for lam in exact]
    reports = []
    errors, bounds = {}, {}
    # the entries of A depend on the row index alone, so A_dim is the
    # leading block of A_2dim
    full = build_A(p, 2 * cfg.dim)
    for tri in (Tridiagonal.symmetric(full.diag[: cfg.dim], full.offdiag[: cfg.dim - 1]), full):
        d = tri.dim
        nearest = eig_tridiagonal(tri, near=exact)
        # the cut exact eigenvector puts an eigenvalue of A_d within r of
        # lam, and the solve finds it to within delta
        delta = eig_tridiagonal_accuracy(tri)
        for rank, r in enumerate(truncation_residuals(p, d, labels)):
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
                    tolerance=cfg.tolerance,
                    status=status,
                    note=f"an eigenvalue of the truncation lies within {bound:.3e} of the exact one",
                )
            )
    for rank in range(n_extreme):
        e1, e2 = errors[(rank, cfg.dim)], errors[(rank, 2 * cfg.dim)]
        # the intervals err +- bound prove growth only where they are apart
        ok = e2 - bounds[(rank, 2 * cfg.dim)] <= e1 + bounds[(rank, cfg.dim)]
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
                tolerance=cfg.tolerance,
                status=status,
                note="matching error must not grow when dim doubles",
            )
        )
    return [report_to_record(r) for r in reports]


# ---------------------------------------------------------------------------
# table


def _table_rows(cfg: RunConfig) -> list:
    p, t, K = cfg.params(), Truncation(), cfg.index_max
    rows = []

    def row(family, n, m_or_x, value, method):
        rows.append({"family": family, "n": n, "m_or_x": m_or_x, "value": float(value), "method": method})

    for x in (p.a * p.q, p.a * p.q**2, p.a * p.q**3, p.b * p.q, p.b * p.q**2, p.b * p.q**3):
        seqs = big_q_laguerre_recurrence(K, x, p)
        for n in range(K + 1):
            row("big-q-laguerre", n, float(x), big_q_laguerre(n, x, p, t), "series")
            row("big-q-laguerre", n, float(x), seqs[n], "recurrence")
    for n in range(K + 1):
        # dual_f(n, m) and dual_g(n, m) are entry m of the duality
        # sequences, whose entries do not depend on the cut-off
        f_seq, g_seq = (spectral_sequence(p, branch, n, K) for branch in "ab")
        for m in range(K + 1):
            row("q-meixner", n, m, q_meixner(n, m, p.a, -p.b / p.a, p.q, t), "series")
            row("dual-f", n, m, f_seq[m], "spectral")
            row("dual-g", n, m, g_seq[m], "spectral")
    # c_n and c'_n, n <= K: the running products that a verify store's `c`
    # lists wrap, so they equal the constants the sums read
    c_seqs = (itertools.islice(_normalization_entries(p, branch, t), K + 1) for branch in "ab")
    for n, (c, c_prime) in enumerate(zip(*c_seqs)):
        row("c", n, n, c, "closed-form")
        row("c-prime", n, n, c_prime, "closed-form")
    return rows


# ---------------------------------------------------------------------------
# limit


def _limit_reports(cfg: RunConfig) -> list:
    sweep = LimitSweep(alpha=1.0, beta=0.5)
    reports = []
    for n in range(min(cfg.index_max, 6) + 1):
        reports.extend(limit_polynomial_check(n, 0.4, sweep))
    reports.extend(limit_operator_entries_check(min(cfg.index_max, 5), sweep))
    reports.append(classical_operator_check(0.25, 0.2, 1.0))
    return [report_to_record(r) for r in reports]


# ---------------------------------------------------------------------------
# output assembly


def _emit(cfg: RunConfig, records: list, table_rows: Optional[list] = None) -> int:
    summary = summarize(records)
    if cfg.output_format == "csv":
        text = render_table_csv(table_rows) if table_rows is not None else render_csv(records)
    else:
        payload = {"schema_version": "1"}
        if not cfg.no_timestamp:
            from datetime import datetime, timezone

            payload["generated_at"] = datetime.now(timezone.utc).isoformat()
        payload["config"] = cfg.as_dict()
        if table_rows is not None:
            payload["table"] = table_rows
        payload["records"] = records
        payload["summary"] = summary
        text = render_json(payload)

    try:
        if cfg.output_path:
            with open(cfg.output_path, "w", newline="") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except OSError as exc:
        print(f"qortho: I/O error: {exc}", file=sys.stderr)
        return EXIT_IOERR

    if summary["failed"]:
        return EXIT_FAIL
    return EXIT_INCONCLUSIVE if summary["inconclusive"] else EXIT_OK


# the record builders of each command but `table`
_RECORDS = {
    "verify": (_run_verify,),
    "spectrum": (_spectrum_reports,),
    "limit": (_limit_reports,),
    "report-all": (_run_verify, _spectrum_reports, _limit_reports),
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        if cfg.command == "table":
            return _emit(cfg, [], table_rows=_table_rows(cfg))
        records = [rec for build in _RECORDS[cfg.command] for rec in build(cfg)]
        records.sort(key=_record_order)
        return _emit(cfg, records)
    except DomainError as exc:
        print(f"qortho: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except QSeriesError as exc:
        # a sum that could not be computed is no verdict on the identity
        print(f"qortho: error: {exc}", file=sys.stderr)
        return EXIT_SOFTWARE


def process_main() -> None:
    """The process entry of `python -m qortho` and of the `qortho` script:
    main on the process's arguments, then exit with its code.

    Whatever is alive once main returns dies with the process, so it is
    frozen first and the interpreter's collections at exit pass it over;
    main closes every file it opens, so no buffered write waits on them.
    main itself, as tests and library callers run it, leaves the collector
    alone."""
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    process_main()
