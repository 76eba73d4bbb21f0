"""The ``repro lint`` CLI: check/json/rules/report flags."""

import json
from pathlib import Path

from repro.cli import build_parser, main

FIXTURES = Path(__file__).parent / "lint_fixtures"
RNG_TREE = str(FIXTURES / "rng_tree")


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["lint"])
        assert args.command == "lint"
        assert args.root is None
        assert not args.check

    def test_flags(self):
        args = build_parser().parse_args(
            ["lint", "--root", "src", "--check", "--json",
             "--rules", "rng-discipline"]
        )
        assert args.root == "src"
        assert args.check and args.json
        assert args.rules == ["rng-discipline"]


class TestLintCommand:
    def test_check_fails_on_fixture_tree(self, capsys):
        assert main(["lint", "--root", RNG_TREE, "--check"]) == 1
        out = capsys.readouterr().out
        assert "rng-discipline" in out

    def test_default_mode_reports_without_gating(self, capsys):
        assert main(["lint", "--root", RNG_TREE]) == 0
        assert "finding(s)" in capsys.readouterr().out

    def test_json_output(self, capsys):
        assert main(["lint", "--root", RNG_TREE, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["counts_by_rule"]["rng-discipline"] == 4
        assert payload["suppressed"] == 1

    def test_suppressed_findings_pass_check(self, tmp_path, capsys):
        # A ``# lint: disable=RULE`` comment is the way to accept a
        # finding: once every flagged line carries one, --check passes.
        assert main(["lint", "--root", RNG_TREE, "--json"]) == 0
        flagged = {f["line"] for f in json.loads(capsys.readouterr().out)["findings"]}
        lines = (FIXTURES / "rng_tree" / "bad_rng.py").read_text().splitlines()
        for line in flagged:
            lines[line - 1] += "  # lint: disable=rng-discipline"
        (tmp_path / "bad_rng.py").write_text("\n".join(lines) + "\n")
        assert main(["lint", "--root", str(tmp_path), "--check", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] and payload["total"] == 0
        assert payload["suppressed"] == len(flagged) + 1

    def test_source_tree_is_clean(self, capsys):
        assert main(["lint", "--check"]) == 0
        assert " 0 finding(s)" in capsys.readouterr().out

    def test_rules_filter(self, capsys):
        assert main(
            ["lint", "--root", RNG_TREE, "--check",
             "--rules", "lock-discipline"]
        ) == 0  # the rng fixture is clean under the lock rule

    def test_unknown_rule_exits_2(self, capsys):
        assert main(["lint", "--rules", "no-such-rule"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_report_file(self, tmp_path, capsys):
        report_path = tmp_path / "LINT_report.json"
        assert main(
            ["lint", "--root", RNG_TREE, "--report", str(report_path)]
        ) == 0
        payload = json.loads(report_path.read_text())
        assert payload["total"] == 4

    def test_default_root_is_reported_relative_to_the_working_directory(
        self, tmp_path, capsys, monkeypatch
    ):
        # CI regenerates the committed report from the repository root.
        monkeypatch.chdir(Path(__file__).resolve().parent.parent)
        report_path = tmp_path / "LINT_report.json"
        assert main(["lint", "--report", str(report_path)]) == 0
        assert json.loads(report_path.read_text())["root"] == "src/repro"

    def test_default_root_outside_the_working_directory_is_absolute(
        self, tmp_path, capsys, monkeypatch
    ):
        import repro

        monkeypatch.chdir(tmp_path)
        report_path = tmp_path / "LINT_report.json"
        assert main(["lint", "--report", str(report_path)]) == 0
        root = json.loads(report_path.read_text())["root"]
        assert root == str(Path(repro.__file__).resolve().parent)
