"""``repro.lint`` — AST-based invariant checks for this codebase.

The repo's correctness rests on conventions no general-purpose tool
knows about: stage ``fields`` tuples must cover every config read
(cache soundness), randomness must flow through seeded generators
(bit-exact reproduction), ``self._lock``-guarded state must stay
guarded (the coordinator's request threads), both ends of the cluster
wire protocol must agree on the ``op`` vocabulary, fused simulation
loops must stay allocation-free, and diagnostics must flow through the
structured telemetry loggers rather than ``print``.  Each is a
project-specific static pass here — run them all with ``repro lint``
(see ``docs/lint.md``).

The linted code is parsed, never imported, so the checkers work on
broken branches and deliberate-violation fixtures alike.
"""

from repro.lint.base import (
    Checker,
    ParseFailure,
    SourceModule,
    load_source_module,
)
from repro.lint.findings import (
    Finding,
    GATING_SEVERITIES,
    SEVERITIES,
    is_suppressed,
    parse_suppressions,
)
from repro.lint.fingerprint import FingerprintCompletenessChecker
from repro.lint.locks import LockDisciplineChecker
from repro.lint.logdiscipline import LogDisciplineChecker
from repro.lint.rng import RngDisciplineChecker
from repro.lint.runner import LintReport, REPORT_VERSION, default_checkers, run_lint
from repro.lint.wire import ProtocolConsistencyChecker
from repro.lint.workspace import WorkspaceDisciplineChecker

__all__ = [
    "Checker",
    "Finding",
    "FingerprintCompletenessChecker",
    "GATING_SEVERITIES",
    "LintReport",
    "LockDisciplineChecker",
    "LogDisciplineChecker",
    "ParseFailure",
    "ProtocolConsistencyChecker",
    "REPORT_VERSION",
    "RngDisciplineChecker",
    "SEVERITIES",
    "SourceModule",
    "WorkspaceDisciplineChecker",
    "default_checkers",
    "is_suppressed",
    "load_source_module",
    "parse_suppressions",
    "run_lint",
]
