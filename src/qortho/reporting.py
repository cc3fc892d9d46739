"""Report serialization: canonical JSON (17-significant-digit floats,
stable key order) and the lossy CSV projection.

Identical inputs must produce byte-identical output, so floats are
rendered with an explicit format instead of repr and dictionaries keep
insertion order.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple

try:
    # the C function that json.encoder also picks, without importing the
    # json package (its decoder, scanner and encoder)
    from _json import encode_basestring_ascii as _quote
except ImportError:
    from json.encoder import encode_basestring_ascii as _quote

from qortho.qseries import QParams

__all__ = [
    "VerificationReport",
    "REPORT_SCHEMA",
    "CSV_HEADER",
    "report_to_record",
    "render_json",
    "render_csv",
    "summarize",
]

CSV_HEADER = "identity_id,i,j,lhs,rhs,residual,terms_used,tail_estimate,status"

_RECORD_SCHEMA = {
    "type": "object",
    "required": [
        "identity_id",
        "i",
        "j",
        "lhs",
        "rhs",
        "residual",
        "terms_used",
        "tail_estimate",
        "passed",
        "tolerance",
        "status",
        "params",
    ],
    "properties": {
        "identity_id": {"type": "string"},
        "i": {"type": "integer"},
        "j": {"type": "integer"},
        "lhs": {"$ref": "#/definitions/extended_float"},
        "rhs": {"$ref": "#/definitions/extended_float"},
        "residual": {"$ref": "#/definitions/extended_float"},
        "terms_used": {"type": "integer"},
        "tail_estimate": {"$ref": "#/definitions/extended_float"},
        "passed": {"type": "boolean"},
        "tolerance": {"$ref": "#/definitions/extended_float"},
        "status": {"type": "string", "enum": ["pass", "fail", "inconclusive"]},
        "note": {"type": "string"},
        "params": {
            "type": "object",
            "required": ["q", "a", "b"],
            "properties": {
                "q": {"type": "number"},
                "a": {"type": "number"},
                "b": {"type": "number"},
            },
        },
    },
    "additionalProperties": False,
}

REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "definitions": {
        # non-finite floats have no JSON representation; they serialize
        # to the strings below
        "extended_float": {
            "anyOf": [
                {"type": "number"},
                {"type": "string", "enum": ["inf", "-inf", "nan"]},
            ]
        }
    },
    "required": ["schema_version", "config", "records", "summary"],
    "properties": {
        "schema_version": {"type": "string", "enum": ["1"]},
        "generated_at": {"type": "string"},
        "config": {"type": "object"},
        "records": {"type": "array", "items": _RECORD_SCHEMA},
        "summary": {
            "type": "object",
            "required": ["passed", "failed", "inconclusive"],
            "properties": {
                "passed": {"type": "integer"},
                "failed": {"type": "integer"},
                "inconclusive": {"type": "integer"},
            },
        },
    },
}


class VerificationReport(NamedTuple):
    """Structured record of one identity check.

    For certified reports: status "pass" <=> residual <= tolerance *
    max(|rhs|, M), with M the sum of the magnitudes of the terms of the
    sum that formed lhs, scaled as lhs is.  When the tail estimate exceeds
    that bound the status is "inconclusive", since the computed lhs itself
    is then unreliable.
    """

    identity_id: str
    params: QParams
    indices: tuple
    lhs: float
    rhs: float
    residual: float
    terms_used: int
    tail_estimate: float
    tolerance: float
    status: str
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def report_to_record(r: VerificationReport) -> dict:
    """Flatten a report into the schema's record shape."""
    rec = {
        "identity_id": r.identity_id,
        "i": int(r.indices[0]),
        "j": int(r.indices[1]),
        "lhs": float(r.lhs),
        "rhs": float(r.rhs),
        "residual": float(r.residual),
        "terms_used": int(r.terms_used),
        "tail_estimate": float(r.tail_estimate),
        "passed": bool(r.passed),
        "tolerance": float(r.tolerance),
        "status": r.status,
        "params": {"q": float(r.params.q), "a": float(r.params.a), "b": float(r.params.b)},
    }
    if r.note:
        rec["note"] = r.note
    return rec


def summarize(records: Iterable[dict]) -> dict:
    counts = {"passed": 0, "failed": 0, "inconclusive": 0}
    for rec in records:
        if rec["status"] == "pass":
            counts["passed"] += 1
        elif rec["status"] == "fail":
            counts["failed"] += 1
        else:
            counts["inconclusive"] += 1
    return counts


def _fmt_float(x: float) -> str:
    """17 significant digits, which read back as the same float; nan, inf
    and -inf by name."""
    return format(x, ".17g")


def _render_value(obj, parts: list, pad: str, floats: dict, keys: dict) -> None:
    """Append the pieces of obj's canonical JSON to parts; pad is the
    indentation of the line obj starts on.  floats and keys are the memos of
    one render_json call: the text of each nonzero float, and each str key
    quoted with its ": "."""
    if isinstance(obj, float):
        text = floats.get(obj)
        if text is None:
            # JSON has no non-finite numbers: their names go in quotes
            text = _fmt_float(obj)
            if not math.isfinite(obj):
                text = f'"{text}"'
            # 0.0 and -0.0 are one dict key
            if obj:
                floats[obj] = text
        parts.append(text)
    elif isinstance(obj, str):
        parts.append(_quote(obj))
    elif obj is None:
        parts.append("null")
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    elif isinstance(obj, int):
        parts.append(str(obj))
    elif isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        inner = pad + "  "
        opening, separator = "{\n" + inner, ",\n" + inner
        for k, v in obj.items():
            key = keys.get(k) if type(k) is str else _quote(str(k)) + ": "
            if key is None:
                key = keys[k] = _quote(k) + ": "
            parts.append(opening + key)
            _render_value(v, parts, inner, floats, keys)
            opening = separator
        parts.append(f"\n{pad}}}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            parts.append("[]")
            return
        inner = pad + "  "
        opening, separator = "[\n" + inner, ",\n" + inner
        for v in obj:
            parts.append(opening)
            _render_value(v, parts, inner, floats, keys)
            opening = separator
        parts.append(f"\n{pad}]")
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def render_json(payload: dict) -> str:
    """The canonical JSON of payload, rendered in one pass into one list of
    pieces and joined once.  A report repeats its floats and keys (the
    default verify report has 6205 floats, 1009 of them distinct and
    nonzero, and 11725 keys, 29 distinct), so the call formats each
    distinct nonzero float and quotes each str key once; the memos live for
    the call alone."""
    parts: list = []
    _render_value(payload, parts, "", {}, {})
    parts.append("\n")
    return "".join(parts)


def _csv(header: str, rows: Iterable[dict]) -> str:
    """header, then one line per row of the row's values under the header's
    names, floats as in JSON but unquoted."""
    names = header.split(",")
    lines = [header]
    for row in rows:
        cells = (row[name] for name in names)
        lines.append(",".join(_fmt_float(v) if isinstance(v, float) else str(v) for v in cells))
    return "\n".join(lines) + "\n"


def render_csv(records: Iterable[dict]) -> str:
    """Lossy CSV projection: no config echo, notes, or parameters."""
    return _csv(CSV_HEADER, records)


def render_table_csv(rows: Iterable[dict]) -> str:
    return _csv("family,n,m_or_x,value,method", rows)
