"""Compare two CSV outputs of qortho record by record.

    python3 tests/golden_moves.py OLD.csv NEW.csv

Records are matched by their key columns (every column but the numbers a
record computes) and grouped by their first column, the identity family
or table family.  For each family it prints the records whose value moved
against the records it has, and the worst move

    |new lhs - old lhs| / (TOL (1 + max(|lhs|, |rhs|)))

(the value column for a table, which has no rhs), at the tolerance the
golden files use.  A verdict reads max(|rhs|, M) instead, whose M, the
sum of the magnitudes of a sum's terms, the files do not carry, so the
worst move is a guide to a record's bound, not the bound itself.  Below
that it lists every record whose `status` or `terms_used` changed, then, where any
did, every record whose `tail_estimate` changed (a bound can move while
the value stays), and every record only one file has.  The exit status
is 0.
"""

from __future__ import annotations

import argparse
import csv
import sys
from collections import Counter

# qortho's default verdict tolerance (`verify --tol`)
TOL = 1e-8
# columns a record computes; every other column names it
VALUE_COLUMNS = ("lhs", "rhs", "residual", "terms_used", "tail_estimate", "status", "value")
# columns whose change is listed record by record
WATCHED = ("status", "terms_used")
# a column whose change is listed record by record where there is one
BOUND = "tail_estimate"


def read_records(path: str) -> dict:
    """{key: row} of a CSV file; a key repeated in the file gets its
    occurrence number as its last part."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    seen: Counter = Counter()
    out = {}
    for row in rows:
        key = tuple(v for k, v in row.items() if k not in VALUE_COLUMNS)
        seen[key] += 1
        out[key + (seen[key],)] = row
    return out


def _number(row: dict, column: str) -> float:
    text = row.get(column)
    return float(text) if text not in (None, "") else 0.0


def relative_move(old: dict, new: dict) -> float:
    """|delta lhs| over TOL (1 + max(|lhs|, |rhs|)), read from the old record."""
    column = "lhs" if "lhs" in old else "value"
    lhs, rhs = _number(old, column), _number(old, "rhs")
    return abs(_number(new, column) - lhs) / (TOL * (1.0 + max(abs(lhs), abs(rhs))))


def compare(old_path: str, new_path: str) -> list:
    """The report's lines."""
    old, new = read_records(old_path), read_records(new_path)
    moved: Counter = Counter()
    total: Counter = Counter()
    worst: dict = {}
    changes = []
    bound_changes = []
    for key, before in old.items():
        after = new.get(key)
        if after is None:
            continue
        family = key[0]
        total[family] += 1
        column = "lhs" if "lhs" in before else "value"
        if before.get(column) != after.get(column):
            moved[family] += 1
            worst[family] = max(worst.get(family, 0.0), relative_move(before, after))
        for column in WATCHED:
            if before.get(column) != after.get(column):
                changes.append(f"{','.join(key[:-1])}: {column} {before.get(column)} -> {after.get(column)}")
        if before.get(BOUND) != after.get(BOUND):
            bound_changes.append(f"{','.join(key[:-1])}: {before.get(BOUND)} -> {after.get(BOUND)}")
    lines = [f"{'family':<28} {'moved':>9} {'worst':>10}"]
    for family in total:
        share = f"{moved[family]}/{total[family]}"
        lines.append(f"{family:<28} {share:>9} {worst.get(family, 0.0):>10.2g}")
    lines.append(f"status or terms_used changes: {len(changes)}")
    lines.extend("  " + line for line in changes)
    if bound_changes:
        lines.append(f"{BOUND} changes: {len(bound_changes)}")
        lines.extend("  " + line for line in bound_changes)
    for label, keys in (("only in OLD", old.keys() - new.keys()), ("only in NEW", new.keys() - old.keys())):
        if keys:
            lines.append(f"{label}: {len(keys)}")
            lines.extend("  " + ",".join(key[:-1]) for key in sorted(keys))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    print("\n".join(compare(args.old, args.new)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
