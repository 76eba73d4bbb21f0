"""Lint framework mechanics: findings, suppressions, report."""

import json
from pathlib import Path

import pytest

from repro.lint import (
    Finding,
    REPORT_VERSION,
    default_checkers,
    is_suppressed,
    parse_suppressions,
    run_lint,
)

FIXTURES = Path(__file__).parent / "lint_fixtures"


def _finding(**overrides):
    base = dict(
        rule="rng-discipline",
        severity="error",
        path="snn/network.py",
        line=17,
        message="unseeded generator",
        symbol="DiehlCookNetwork.__init__",
    )
    base.update(overrides)
    return Finding(**base)


class TestFinding:
    def test_identity_is_line_free(self):
        assert _finding(line=17).identity == _finding(line=99).identity

    def test_identity_distinguishes_symbol(self):
        assert _finding().identity != _finding(symbol="other").identity

    def test_unknown_severity_rejected(self):
        with pytest.raises(ValueError, match="unknown severity"):
            _finding(severity="fatal")

    def test_gating_excludes_info(self):
        assert _finding(severity="error").gating
        assert _finding(severity="warning").gating
        assert not _finding(severity="info").gating

    def test_format_is_path_line_rule(self):
        text = _finding().format()
        assert text.startswith("snn/network.py:17: error: [rng-discipline]")


class TestSuppressions:
    def test_parse_single_and_multi_rule(self):
        text = (
            "x = 1\n"
            "y = foo()  # lint: disable=rng-discipline\n"
            "z = bar()  # lint: disable=lock-discipline, rng-discipline\n"
        )
        suppressions = parse_suppressions(text)
        assert suppressions == {
            2: {"rng-discipline"},
            3: {"lock-discipline", "rng-discipline"},
        }

    def test_disable_all(self):
        suppressions = parse_suppressions("q = f()  # lint: disable=all\n")
        assert is_suppressed(_finding(line=1), suppressions)

    def test_wrong_rule_does_not_suppress(self):
        suppressions = parse_suppressions(
            "q = f()  # lint: disable=lock-discipline\n"
        )
        assert not is_suppressed(_finding(line=1), suppressions)

    def test_wrong_line_does_not_suppress(self):
        suppressions = parse_suppressions(
            "q = f()  # lint: disable=rng-discipline\n"
        )
        assert not is_suppressed(_finding(line=2), suppressions)


class TestRunLint:
    def test_parse_failure_becomes_finding(self, tmp_path):
        (tmp_path / "broken.py").write_text("def f(:\n")
        (tmp_path / "fine.py").write_text("x = 1\n")
        report = run_lint(tmp_path)
        assert report.files_scanned == 1  # the parseable one
        assert [f.rule for f in report.findings] == ["parse-error"]
        assert report.findings[0].path == "broken.py"

    def test_default_checkers_cover_all_six_rules(self):
        assert tuple(c.rule for c in default_checkers()) == (
            "fingerprint-completeness",
            "rng-discipline",
            "lock-discipline",
            "protocol-consistency",
            "workspace-discipline",
            "log-discipline",
        )


class TestReportSchema:
    def test_json_shape(self):
        report = run_lint(FIXTURES / "rng_tree")
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["version"] == REPORT_VERSION
        assert set(payload) == {
            "version", "root", "files_scanned", "rules", "counts_by_rule",
            "counts_by_severity", "total", "gating", "suppressed", "ok",
            "findings",
        }
        assert payload["total"] == len(payload["findings"])
        assert payload["ok"] is (payload["gating"] == 0)
        for finding in payload["findings"]:
            assert set(finding) == {
                "rule", "severity", "path", "line", "symbol",
                "message", "identity",
            }

    def test_counts_add_up(self):
        report = run_lint(FIXTURES / "rng_tree")
        assert sum(report.counts_by_rule().values()) == len(report.findings)
        assert sum(report.counts_by_severity().values()) == len(report.findings)
