"""Each checker catches its fixture violation — and the repo runs clean.

The fixture trees under ``tests/lint_fixtures/`` contain deliberate
violations; they are parsed by the linter, never imported.
"""

from pathlib import Path

from repro.lint import (
    FingerprintCompletenessChecker,
    LockDisciplineChecker,
    LogDisciplineChecker,
    ProtocolConsistencyChecker,
    RngDisciplineChecker,
    WorkspaceDisciplineChecker,
    run_lint,
)

FIXTURES = Path(__file__).parent / "lint_fixtures"
SRC_ROOT = Path(__file__).parent.parent / "src" / "repro"


class TestRngDiscipline:
    def test_fixture_violations(self):
        report = run_lint(
            FIXTURES / "rng_tree", checkers=[RngDisciplineChecker()]
        )
        assert [f.severity for f in report.findings] == ["error"] * 4
        messages = "\n".join(f.message for f in report.findings)
        assert "numpy.random.seed" in messages
        assert "numpy.random.rand" in messages
        assert "without a seed" in messages
        assert "stdlib random.random" in messages

    def test_suppression_comment_respected(self):
        report = run_lint(
            FIXTURES / "rng_tree", checkers=[RngDisciplineChecker()]
        )
        assert report.suppressed == 1
        # The suppressed np.random.rand() call is on line 23.
        assert all(f.line != 23 for f in report.findings)

    def test_seeded_generator_not_flagged(self):
        report = run_lint(
            FIXTURES / "rng_tree", checkers=[RngDisciplineChecker()]
        )
        # ``sanctioned`` (line 27) draws from default_rng(seed): clean.
        assert all(f.line < 25 for f in report.findings)


class TestLockDiscipline:
    def test_fixture_violation(self):
        report = run_lint(
            FIXTURES / "locks_tree", checkers=[LockDisciplineChecker()]
        )
        assert len(report.findings) == 1
        finding = report.findings[0]
        assert finding.severity == "error"
        assert finding.symbol == "Counter.reset"
        assert "self.total" in finding.message

    def test_locked_suffix_and_suppression_exempt(self):
        report = run_lint(
            FIXTURES / "locks_tree", checkers=[LockDisciplineChecker()]
        )
        symbols = {f.symbol for f in report.findings}
        assert "Counter._drain_locked" not in symbols  # suffix contract
        assert "Counter.clear_peak" not in symbols  # suppression comment
        assert report.suppressed == 1


class TestProtocolConsistency:
    def test_both_directions(self):
        report = run_lint(
            FIXTURES / "wire_tree", checkers=[ProtocolConsistencyChecker()]
        )
        worker_routes = [f for f in report.findings if "'/worker/" in f.message]
        errors = [f for f in worker_routes if f.severity == "error"]
        assert {(f.path, f.message.split("'")[1]) for f in errors} == {
            ("cluster/client.py", "/worker/leese"),
            ("cluster/worker.py", "/worker/hearbeat"),
        }
        orphans = [f for f in worker_routes if "'/worker/orphan'" in f.message]
        assert [f.severity for f in orphans] == ["warning"]
        assert orphans[0].path == "cluster/http_api.py"

    def test_matched_op_not_flagged(self):
        report = run_lint(
            FIXTURES / "wire_tree", checkers=[ProtocolConsistencyChecker()]
        )
        assert not any("'/worker/lease'" in f.message for f in report.findings)

    def test_worker_dispatch_covered(self):
        # The peer download is a ROUTES row like any other: emitted by
        # the worker module, it is matched...
        report = run_lint(
            FIXTURES / "wire_tree", checkers=[ProtocolConsistencyChecker()]
        )
        assert not any("/artifacts/" in f.message for f in report.findings)
        # ...and a worker route the worker emits without a row is an
        # error at the emitting line.
        typo = [f for f in report.findings if "'/worker/hearbeat'" in f.message]
        assert [f.severity for f in typo] == ["error"]
        assert typo[0].path == "cluster/worker.py"
        assert typo[0].symbol == "beat"

    def test_no_handler_module_means_no_findings(self):
        # A fixture subset without a coordinator cross-checks nothing.
        report = run_lint(
            FIXTURES / "rng_tree", checkers=[ProtocolConsistencyChecker()]
        )
        assert report.findings == []

    def test_http_emitted_without_route_is_error(self):
        report = run_lint(
            FIXTURES / "wire_tree", checkers=[ProtocolConsistencyChecker()]
        )
        pause = [f for f in report.findings if "/sweeps/{}/pause" in f.message]
        assert [f.severity for f in pause] == ["error"]
        assert pause[0].path == "cluster/http_api.py"
        assert "404" in pause[0].message

    def test_http_route_without_emitter_is_warning(self):
        report = run_lint(
            FIXTURES / "wire_tree", checkers=[ProtocolConsistencyChecker()]
        )
        cancel = [f for f in report.findings if "/sweeps/{}/cancel" in f.message]
        assert [f.severity for f in cancel] == ["warning"]
        assert "no in-tree client" in cancel[0].message

    def test_http_route_with_missing_handler_is_error(self):
        report = run_lint(
            FIXTURES / "wire_tree", checkers=[ProtocolConsistencyChecker()]
        )
        ghost = [f for f in report.findings if "'ghost'" in f.message]
        assert [f.severity for f in ghost] == ["error"]
        assert "_route_ghost" in ghost[0].message

    def test_http_matched_routes_not_flagged(self):
        # /fleet (constant path) and /sweeps/{sweep_id} (f-string
        # emission vs. {param} template) are emitted, routed and
        # handled: clean in both directions.
        report = run_lint(
            FIXTURES / "wire_tree", checkers=[ProtocolConsistencyChecker()]
        )
        assert not any("'/fleet'" in f.message for f in report.findings)
        status_key = "'/sweeps/{}'"
        assert not any(status_key in f.message for f in report.findings)


class TestWorkspaceDiscipline:
    def test_fixture_violations(self):
        report = run_lint(
            FIXTURES / "workspace_tree", checkers=[WorkspaceDisciplineChecker()]
        )
        assert [f.severity for f in report.findings] == ["warning"] * 3
        assert {f.symbol for f in report.findings} == {"run_fused_loop"}
        messages = "\n".join(f.message for f in report.findings)
        assert "np.zeros_like()" in messages
        assert "np.add() without out=" in messages
        assert ".copy()" in messages

    def test_out_kwarg_and_hoisted_allocations_clean(self):
        report = run_lint(
            FIXTURES / "workspace_tree", checkers=[WorkspaceDisciplineChecker()]
        )
        symbols = {f.symbol for f in report.findings}
        # out=-directed ufuncs and pre-loop allocations are the pattern.
        assert "fused_outside_loop" not in symbols
        # Functions without fused/frozen in the name are out of scope.
        assert "plain_helper" not in symbols

    def test_suppression_comment_respected(self):
        report = run_lint(
            FIXTURES / "workspace_tree", checkers=[WorkspaceDisciplineChecker()]
        )
        assert report.suppressed == 1
        assert "run_frozen_pass" not in {f.symbol for f in report.findings}

    def test_injected_loop_allocation_is_caught(self, tmp_path):
        """A fresh allocation slipped into the real fused loop trips lint."""
        network_src = (SRC_ROOT / "snn" / "network.py").read_text()
        needle = "np.copyto(pre, pre_steps[t])"
        assert needle in network_src
        line = next(l for l in network_src.splitlines() if needle in l)
        indent = line[: len(line) - len(line.lstrip())]
        mutated = network_src.replace(
            needle, "scratch = np.zeros_like(drives[t])\n" + indent + needle, 1
        )
        (tmp_path / "network.py").write_text(mutated)
        report = run_lint(tmp_path, checkers=[WorkspaceDisciplineChecker()])
        assert any(
            "np.zeros_like()" in f.message
            and "_run_batch_stdp_fused" in f.symbol
            for f in report.findings
        ), [f.format() for f in report.findings]


class TestLogDiscipline:
    def test_fixture_violations(self):
        report = run_lint(
            FIXTURES / "logs_tree", checkers=[LogDisciplineChecker()]
        )
        assert [f.severity for f in report.findings] == ["warning"] * 3
        assert all(f.path == "bad_logs.py" for f in report.findings)
        messages = "\n".join(f.message for f in report.findings)
        assert "print() bypasses structured logging" in messages
        assert "getLogger() without a name" in messages
        # Both the attribute and the from-import spellings are caught.
        assert {f.line for f in report.findings} == {7, 8, 12}

    def test_cli_and_benchmark_surfaces_exempt(self):
        report = run_lint(
            FIXTURES / "logs_tree", checkers=[LogDisciplineChecker()]
        )
        paths = {f.path for f in report.findings}
        assert "cli.py" not in paths
        assert "benchmarks/bench_demo.py" not in paths

    def test_named_logger_and_suppression_clean(self):
        report = run_lint(
            FIXTURES / "logs_tree", checkers=[LogDisciplineChecker()]
        )
        # logging.getLogger(__name__) on line 6 is the sanctioned form.
        assert all(f.line != 6 for f in report.findings)
        # The annotated print in deliberate() is suppressed, not reported.
        assert report.suppressed == 1
        assert all(f.symbol != "deliberate" for f in report.findings)

    def test_injected_print_in_real_module_is_caught(self, tmp_path):
        """A print() slipped into the worker agent trips lint."""
        worker_src = (SRC_ROOT / "cluster" / "worker.py").read_text()
        needle = "class WorkerAgent"
        assert needle in worker_src
        mutated = worker_src.replace(
            needle, 'print("debug leftover")\n\n\n' + needle, 1
        )
        (tmp_path / "worker.py").write_text(mutated)
        report = run_lint(tmp_path, checkers=[LogDisciplineChecker()])
        assert any(
            "print() bypasses" in f.message for f in report.findings
        ), [f.format() for f in report.findings]


class TestFingerprintCompleteness:
    def test_undeclared_read_is_error(self):
        report = run_lint(
            FIXTURES / "fingerprint_tree",
            checkers=[FingerprintCompletenessChecker()],
        )
        errors = [f for f in report.findings if f.severity == "error"]
        assert len(errors) == 1
        assert "config.voltage" in errors[0].message
        assert errors[0].symbol == "LeakyStage.run"

    def test_unused_declared_field_is_info(self):
        report = run_lint(
            FIXTURES / "fingerprint_tree",
            checkers=[FingerprintCompletenessChecker()],
        )
        infos = [f for f in report.findings if f.severity == "info"]
        assert len(infos) == 1
        assert "'seed'" in infos[0].message
        assert infos[0].symbol == "LeakyStage.fields"

    def test_declared_reads_not_flagged(self):
        report = run_lint(
            FIXTURES / "fingerprint_tree",
            checkers=[FingerprintCompletenessChecker()],
        )
        messages = "\n".join(f.message for f in report.findings)
        assert "config.dataset" not in messages
        assert "config.n_train" not in messages


class TestRepoRunsClean:
    def test_source_tree_has_no_findings(self):
        """The committed tree passes its own linter (suppressions only)."""
        report = run_lint(SRC_ROOT)
        assert report.findings == [], [f.format() for f in report.findings]

    def test_injected_unfingerprinted_read_is_caught(self, tmp_path):
        """Adding an un-declared config read to a real stage trips lint.

        This is the cache-invalidation regression the rule exists for: a
        stage reading a config attribute outside its ``fields`` tuple
        would alias two different configs onto one cached artifact.
        """
        stages_src = (SRC_ROOT / "pipeline" / "stages.py").read_text()
        needle = "rng = np.random.default_rng(cfg.seed)"
        assert needle in stages_src
        mutated = stages_src.replace(
            needle, "_ = cfg.weak_cell_sigma\n        " + needle
        )
        (tmp_path / "core").mkdir()
        (tmp_path / "pipeline").mkdir()
        (tmp_path / "core" / "config.py").write_text(
            (SRC_ROOT / "core" / "config.py").read_text()
        )
        (tmp_path / "pipeline" / "stages.py").write_text(mutated)

        report = run_lint(
            tmp_path, checkers=[FingerprintCompletenessChecker()]
        )
        gating = [f for f in report.findings if f.gating]
        assert any(
            "config.weak_cell_sigma" in f.message
            and f.symbol == "TrainBaselineStage.run"
            for f in gating
        ), [f.format() for f in report.findings]

    def test_unmutated_copy_stays_clean(self, tmp_path):
        """Control for the injection test: the same copy, unmutated."""
        (tmp_path / "core").mkdir()
        (tmp_path / "pipeline").mkdir()
        (tmp_path / "core" / "config.py").write_text(
            (SRC_ROOT / "core" / "config.py").read_text()
        )
        (tmp_path / "pipeline" / "stages.py").write_text(
            (SRC_ROOT / "pipeline" / "stages.py").read_text()
        )
        report = run_lint(
            tmp_path, checkers=[FingerprintCompletenessChecker()]
        )
        assert [f for f in report.findings if f.gating] == []
