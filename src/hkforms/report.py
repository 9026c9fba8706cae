"""Machine-readable verification records and their JSON/CSV serialization.

Reports are deterministic: no timestamps, sorted keys, fixed float formatting.
Running the same suite with the same seed twice produces identical bytes.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

SCHEMA_VERSION = 1

# stable CSV column order (documented interface)
CSV_FIELDS = ("suite", "check", "anchor", "mode", "measured", "expected", "passed")


@dataclass(frozen=True)
class ReportRecord:
    """One verification outcome.

    `anchor` names the mathematical identity or quantity being checked (or
    "plumbing" for infrastructure checks); `mode` is how `measured` relates
    to `expected`: "le" bounds, "eq" exact equality.
    """

    suite: str
    check: str
    anchor: str
    mode: str
    measured: float
    expected: float
    passed: bool


class Records(list):
    """One suite's records: stamps the suite name, scales every `le` bound by tol_scale."""

    def __init__(self, suite: str, tol_scale: float):
        super().__init__()
        self.suite = suite
        self.tol_scale = tol_scale

    def le(self, check: str, anchor: str, measured: float, bound: float) -> None:
        bound = bound * self.tol_scale
        self.append(ReportRecord(self.suite, check, anchor, "le", float(measured),
                                 float(bound), bool(measured <= bound)))

    def eq(self, check: str, anchor: str, measured: float, expected: float) -> None:
        self.append(ReportRecord(self.suite, check, anchor, "eq", float(measured),
                                 float(expected), bool(measured == expected)))

    def flag(self, check: str, anchor: str, ok: bool) -> None:
        self.append(ReportRecord(self.suite, check, anchor, "eq", float(bool(ok)), 1.0,
                                 bool(ok)))


def report_payload(records: list[ReportRecord], *, suite: str, seed: int,
                   tol_scale: float, details: dict) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "suite": suite,
        "seed": seed,
        "tol_scale": float(tol_scale),
        "passed": all(r.passed for r in records),
        "counts": {"total": len(records),
                   "failed": sum(0 if r.passed else 1 for r in records)},
        "records": [asdict(r) for r in records],
        "details": details,
    }


_NON_FINITE = {math.inf: "Infinity", -math.inf: "-Infinity"}


def _strict(node):
    """Replace non-finite floats by the strings "NaN", "Infinity", "-Infinity"."""
    if isinstance(node, float) and not math.isfinite(node):
        return _NON_FINITE.get(node, "NaN")
    if isinstance(node, dict):
        return {key: _strict(value) for key, value in node.items()}
    if isinstance(node, (list, tuple)):
        return [_strict(value) for value in node]
    return node


def emit_json(payload: dict, path: Path) -> bytes:
    """Strict JSON: non-finite floats are written as strings, never as bare tokens."""
    data = (json.dumps(_strict(payload), sort_keys=True, indent=1, allow_nan=False)
            + "\n").encode()
    path.write_bytes(data)
    return data


def _cell(value) -> str:
    """The one CSV cell rule: 17 significant digits, true/false, or str."""
    if isinstance(value, float):
        return "%.17g" % value
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _write_table(header, rows, path: Path) -> bytes:
    """One CSV file: a header line, then one line of cells per row."""
    lines = [",".join(header)] + [",".join(map(_cell, row)) for row in rows]
    data = ("\n".join(lines) + "\n").encode()
    path.write_bytes(data)
    return data


def emit_csv(records: list[ReportRecord], path: Path) -> bytes:
    return _write_table(CSV_FIELDS, ([getattr(r, f) for f in CSV_FIELDS] for r in records), path)


def emit_profile_csv(columns: dict[str, list], path: Path) -> bytes:
    """Plot-ready numeric table with 17-significant-digit formatting."""
    return _write_table(columns, zip(*([float(v) for v in col] for col in columns.values())),
                        path)
