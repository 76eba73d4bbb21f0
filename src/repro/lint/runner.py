"""Run the checkers over a tree and fold in suppressions."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.lint.base import (
    Checker,
    ParseFailure,
    iter_python_files,
    load_source_module,
)
from repro.lint.findings import Finding, is_suppressed
from repro.lint.fingerprint import FingerprintCompletenessChecker
from repro.lint.locks import LockDisciplineChecker
from repro.lint.logdiscipline import LogDisciplineChecker
from repro.lint.rng import RngDisciplineChecker
from repro.lint.wire import ProtocolConsistencyChecker
from repro.lint.workspace import WorkspaceDisciplineChecker

#: JSON report schema version (bump on breaking shape changes).
REPORT_VERSION = 2


def default_checkers() -> Tuple[Checker, ...]:
    """The six project invariant checkers, in reporting order."""
    return (
        FingerprintCompletenessChecker(),
        RngDisciplineChecker(),
        LockDisciplineChecker(),
        ProtocolConsistencyChecker(),
        WorkspaceDisciplineChecker(),
        LogDisciplineChecker(),
    )


@dataclass
class LintReport:
    """Everything one lint pass produced."""

    root: str
    files_scanned: int
    rules: Tuple[str, ...]
    #: Findings that survived suppression comments, sorted by severity.
    findings: List[Finding] = field(default_factory=list)
    suppressed: int = 0

    @property
    def gating(self) -> List[Finding]:
        """The error/warning findings that fail a ``--check`` run."""
        return [f for f in self.findings if f.gating]

    @property
    def ok(self) -> bool:
        return not self.gating

    def counts_by_rule(self) -> Dict[str, int]:
        counts = {rule: 0 for rule in self.rules}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return counts

    def counts_by_severity(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.severity] = counts.get(finding.severity, 0) + 1
        return counts

    def to_dict(self) -> Dict[str, object]:
        return {
            "version": REPORT_VERSION,
            "root": self.root,
            "files_scanned": self.files_scanned,
            "rules": list(self.rules),
            "counts_by_rule": self.counts_by_rule(),
            "counts_by_severity": self.counts_by_severity(),
            "total": len(self.findings),
            "gating": len(self.gating),
            "suppressed": self.suppressed,
            "ok": self.ok,
            "findings": [f.to_dict() for f in self.findings],
        }


def run_lint(
    root: Union[str, Path], checkers: Optional[Sequence[Checker]] = None
) -> LintReport:
    """Lint every python file under ``root``.

    Findings on a line with a suppression comment vanish into the
    ``suppressed`` count.  Parse failures become findings themselves
    (rule ``parse-error``) rather than aborting the pass.
    """
    root = Path(root)
    checkers = tuple(checkers) if checkers is not None else default_checkers()
    modules = []
    findings: List[Finding] = []
    for file_path in iter_python_files(root):
        try:
            modules.append(load_source_module(file_path, root))
        except ParseFailure as failure:
            findings.append(
                Finding(
                    rule="parse-error",
                    severity="error",
                    path=failure.relpath,
                    line=failure.lineno,
                    message=str(failure),
                )
            )
    for checker in checkers:
        findings.extend(checker.check_project(modules))

    kept: List[Finding] = []
    suppressed = 0
    suppressions_by_path = {m.relpath: m.suppressions for m in modules}
    for finding in findings:
        if is_suppressed(finding, suppressions_by_path.get(finding.path, {})):
            suppressed += 1
        else:
            kept.append(finding)
    kept.sort(key=Finding.sort_key)

    return LintReport(
        root=str(root),
        files_scanned=len(modules),
        rules=tuple(c.rule for c in checkers),
        findings=kept,
        suppressed=suppressed,
    )


__all__ = ["LintReport", "REPORT_VERSION", "default_checkers", "run_lint"]
