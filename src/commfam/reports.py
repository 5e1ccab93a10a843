"""Structured check records and machine-readable scenario reports.

A report is a single JSON document with top-level fields
``{scenario, seed, checks, duration_ms, version}``; each check record carries
``{name, anchor, status, witness}`` where ``anchor`` is the mathematical
identity the check decides, ``status`` is one of ``pass`` / ``fail`` /
``skipped``, and ``witness`` serialises the first counterexample on failure
(or the reason on a skip).  Identical scenario inputs produce byte-identical
reports apart from ``duration_ms``.

A check decides by computing a witness, the first counterexample's text or
None, and ``verdict`` makes its record: ``pass`` exactly when the witness is
None, and ``fail`` carrying it otherwise, so an empty witness fails too.
``first_witness`` walks a check's cases, such as the pairs (i, j) with
i < j, up to the first one that gives a witness.  ``failed`` is left for the
unconditional failures, such as a draw budget exhausted before any check
ran.  The one record built by hand is the runner's ``resample-log``, whose
passing record carries the count of rejected draws as its witness.
"""

from __future__ import annotations

import json
from collections.abc import Iterable
from dataclasses import dataclass, field

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped"


@dataclass
class CheckRecord:
    name: str
    anchor: str
    status: str
    witness: str | None = None


def verdict(name: str, anchor: str, witness: str | None) -> CheckRecord:
    """The record of a decided check: ``pass`` exactly when ``witness`` is
    None, else ``fail`` with the witness."""
    return CheckRecord(name, anchor, PASS if witness is None else FAIL, witness)


def first_witness(witnesses: Iterable[str | None]) -> str | None:
    """The first witness that is not None, or None when there is none.  A
    generator is read no further than that witness, so a check stops at its
    first failing case."""
    return next((w for w in witnesses if w is not None), None)


def failed(name: str, anchor: str, witness: str) -> CheckRecord:
    return CheckRecord(name, anchor, FAIL, witness)


def skipped(name: str, anchor: str, reason: str) -> CheckRecord:
    return CheckRecord(name, anchor, SKIPPED, reason)


@dataclass
class Report:
    scenario: dict
    seed: int
    checks: list[CheckRecord] = field(default_factory=list)
    duration_ms: int = 0
    version: str = ""

    def all_passed(self) -> bool:
        return all(c.status == PASS for c in self.checks)

    def counts(self) -> dict[str, int]:
        out = {PASS: 0, FAIL: 0, SKIPPED: 0}
        for c in self.checks:
            out[c.status] = out.get(c.status, 0) + 1
        return out

    def to_json(self) -> str:
        return json.dumps({**vars(self), "checks": [vars(c) for c in self.checks]},
                          indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Report":
        doc = json.loads(text)
        return cls(**{**doc, "checks": [CheckRecord(**c) for c in doc["checks"]]})


def emit_report(report: Report, path) -> None:
    """Write ``report`` as JSON; raises OSError when the path is unwritable."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(report.to_json())
        handle.write("\n")


def parse_report(path) -> Report:
    with open(path, "r", encoding="utf-8") as handle:
        return Report.from_json(handle.read())
