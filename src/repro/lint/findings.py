"""Finding records and suppression comments.

A :class:`Finding` is one rule violation anchored to a file and line.
Its :attr:`~Finding.identity` deliberately excludes the line number, so
reports of two revisions can be compared across edits that shift code
around.

Suppression is per line: a violation whose line carries a
``# lint: disable=RULE`` (or ``disable=RULE1,RULE2``, or
``disable=all``) comment is dropped before reporting.  That comment is
the one way to accept a finding; ``repro lint --check`` fails on every
other error or warning.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, Set, Tuple

#: Severity ladder, most severe first.  ``error`` and ``warning``
#: findings gate ``--check``; ``info`` findings are advisory only.
SEVERITIES = ("error", "warning", "info")

#: Severities that fail a ``--check`` run.
GATING_SEVERITIES = frozenset({"error", "warning"})

_SUPPRESS_RE = re.compile(r"#\s*lint:\s*disable=([A-Za-z0-9_,\- ]+)")


@dataclass(frozen=True)
class Finding:
    """One rule violation at ``path:line``."""

    rule: str
    severity: str
    path: str  # posix path relative to the linted root
    line: int
    message: str
    #: Stable anchor within the file (``Class.method``, op name, …) —
    #: part of the identity, which survives line-number churn.
    symbol: str = ""

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"unknown severity {self.severity!r}; choose from {SEVERITIES}"
            )

    @property
    def identity(self) -> str:
        """Line-free identity: path, rule, symbol and message."""
        return f"{self.path}::{self.rule}::{self.symbol}::{self.message}"

    @property
    def gating(self) -> bool:
        return self.severity in GATING_SEVERITIES

    def sort_key(self) -> Tuple:
        return (
            SEVERITIES.index(self.severity),
            self.path,
            self.line,
            self.rule,
            self.message,
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "symbol": self.symbol,
            "message": self.message,
            "identity": self.identity,
        }

    def format(self) -> str:
        return f"{self.path}:{self.line}: {self.severity}: [{self.rule}] {self.message}"


# ----------------------------------------------------------------------
# Suppression comments.


def parse_suppressions(text: str) -> Dict[int, Set[str]]:
    """``line number -> suppressed rule names`` from ``# lint:`` comments.

    Regex-over-lines is deliberate: it sees comments inside decorators
    and multi-line calls where ``ast`` has no node per physical line.
    A rule list of ``all`` suppresses every rule on that line.
    """
    suppressed: Dict[int, Set[str]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        match = _SUPPRESS_RE.search(line)
        if match is None:
            continue
        rules = {part.strip() for part in match.group(1).split(",") if part.strip()}
        if rules:
            suppressed[lineno] = rules
    return suppressed


def is_suppressed(finding: Finding, suppressions: Dict[int, Set[str]]) -> bool:
    rules = suppressions.get(finding.line)
    if not rules:
        return False
    return finding.rule in rules or "all" in rules


__all__ = [
    "Finding",
    "GATING_SEVERITIES",
    "SEVERITIES",
    "is_suppressed",
    "parse_suppressions",
]
