"""repro.telemetry — spans, metrics, structured logs, Chrome export.

The contracts under test:

- spans nest via the thread-local stack, record monotonic durations,
  and cost nothing (shared no-op, no writer allocation) when tracing
  is off;
- metric snapshots merge exactly: counters add, gauges last-write-win,
  histograms fold bucket-wise (or into overflow on bucket mismatch)
  with count/sum/min/max staying exact;
- the exported ``trace.json`` is a valid Chrome/Perfetto trace;
- ``stage_timings`` stays a plain name→seconds dict on the serial
  path, telemetry on or off.
"""

import json
import logging
import threading

import pytest

from repro.telemetry import (
    JsonLineFormatter,
    MetricsRegistry,
    adopt_context,
    configure_telemetry,
    configure_tracing,
    current_context,
    export_chrome_trace,
    get_logger,
    get_metrics,
    merge_snapshots,
    open_spans,
    shutdown_tracing,
    span,
    telemetry_log_level,
    telemetry_snapshot,
    timed_span,
    trace_writer,
    write_chrome_trace,
)


@pytest.fixture(autouse=True)
def _tracing_off():
    """Every test starts and ends with tracing uninstalled."""
    shutdown_tracing()
    yield
    shutdown_tracing()


def _read_jsonl(path):
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


# ----------------------------------------------------------------------
class TestSpans:
    def test_off_by_default_is_the_shared_noop(self):
        assert trace_writer() is None
        first, second = span("a"), span("b", k=1)
        assert first is second  # one singleton, zero allocation

    def test_nesting_parents_and_shared_trace_id(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        configure_tracing(str(path))
        with span("outer") as outer:
            with span("inner") as inner:
                assert inner.parent_id == outer.span_id
                assert inner.trace_id == outer.trace_id
        records = _read_jsonl(path)
        assert [r["name"] for r in records] == ["inner", "outer"]
        by_name = {r["name"]: r for r in records}
        assert by_name["inner"]["parent"] == by_name["outer"]["span"]
        assert by_name["outer"]["parent"] is None
        assert by_name["inner"]["dur_s"] <= by_name["outer"]["dur_s"]

    def test_attrs_and_error_recorded(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        configure_tracing(str(path))
        with pytest.raises(RuntimeError):
            with span("boom", stage="train") as s:
                s.set(epoch=3)
                raise RuntimeError("nope")
        (record,) = _read_jsonl(path)
        assert record["error"] == "RuntimeError"
        assert record["attrs"] == {"stage": "train", "epoch": 3}

    def test_timed_span_measures_without_writer(self):
        with timed_span("work") as s:
            pass
        assert s.duration_s >= 0.0
        assert s.span_id  # a real span even with tracing off

    def test_current_context_and_adopt(self):
        assert current_context() is None
        remote = {"trace_id": "a" * 16, "span_id": "b" * 16}
        with adopt_context(remote):
            assert current_context() == remote
            with timed_span("child") as child:
                assert child.trace_id == remote["trace_id"]
                assert child.parent_id == remote["span_id"]
        assert current_context() is None

    def test_adopt_none_is_noop(self):
        with adopt_context(None):
            assert current_context() is None

    def test_open_spans_reports_oldest_first(self):
        with timed_span("long-running"):
            rows = open_spans()
            assert rows and rows[0]["name"] == "long-running"
            assert rows[0]["age_s"] >= 0.0
        assert all(r["name"] != "long-running" for r in open_spans())

    def test_open_spans_lists_the_five_oldest(self):
        import contextlib

        with contextlib.ExitStack() as stack:
            for index in range(7):
                stack.enter_context(timed_span(f"open-{index}"))
            rows = open_spans()
        assert [row["name"] for row in rows] == [f"open-{i}" for i in range(5)]

    def test_threads_get_independent_stacks(self, tmp_path):
        configure_tracing(str(tmp_path / "trace.jsonl"))
        seen = {}

        def worker():
            with span("threaded") as s:
                seen["parent"] = s.parent_id

        with span("main"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert seen["parent"] is None  # no cross-thread inheritance


# ----------------------------------------------------------------------
class TestMetrics:
    def test_instruments_accumulate(self):
        registry = MetricsRegistry()
        registry.counter("jobs").inc()
        registry.counter("jobs").inc(2)
        registry.gauge("depth").set(7)
        registry.histogram("dt").observe(0.003)
        snap = registry.to_dict()
        assert snap["counters"]["jobs"] == 3
        assert snap["gauges"]["depth"] == 7
        hist = snap["histograms"]["dt"]
        assert hist["count"] == 1 and hist["sum"] == pytest.approx(0.003)
        assert hist["min"] == hist["max"] == pytest.approx(0.003)
        assert sum(hist["counts"]) == 1

    def test_merge_counters_add_gauges_last_win(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("n").inc(2)
        a.gauge("g").set(1)
        b.counter("n").inc(3)
        b.gauge("g").set(9)
        merged = merge_snapshots([a.to_dict(), b.to_dict()])
        assert merged["counters"]["n"] == 5
        assert merged["gauges"]["g"] == 9

    def test_merge_histograms_bucketwise(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for v in (0.002, 0.02):
            a.histogram("dt").observe(v)
        b.histogram("dt").observe(0.2)
        merged = merge_snapshots([a.to_dict(), b.to_dict()])["histograms"]["dt"]
        assert merged["count"] == 3
        assert merged["sum"] == pytest.approx(0.222)
        assert merged["min"] == pytest.approx(0.002)
        assert merged["max"] == pytest.approx(0.2)
        assert sum(merged["counts"]) == 3

    def test_merge_mismatched_buckets_folds_into_overflow(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("dt", buckets=(1.0,)).observe(0.5)
        b.histogram("dt").observe(0.5)  # default buckets: mismatch
        merged = MetricsRegistry()
        merged.merge(a.to_dict())
        merged.merge(b.to_dict())
        hist = merged.to_dict()["histograms"]["dt"]
        # Totals stay exact even though one snapshot lost bucket detail.
        assert hist["count"] == 2
        assert hist["sum"] == pytest.approx(1.0)
        assert hist["counts"][-1] >= 1

    def test_global_registry_and_snapshot_shape(self):
        get_metrics().counter("test.telemetry.probe").inc()
        snapshot = telemetry_snapshot()
        assert set(snapshot) == {"metrics", "open_spans"}
        assert snapshot["metrics"]["counters"]["test.telemetry.probe"] >= 1
        json.dumps(snapshot)  # wire-safe: plain JSON throughout


# ----------------------------------------------------------------------
class TestLogs:
    def _record(self, logger="repro.test", msg="hello", **extra):
        record = logging.LogRecord(logger, logging.INFO, "f.py", 1, msg, (), None)
        for key, value in extra.items():
            setattr(record, key, value)
        return record

    def test_formatter_emits_json_with_extras(self):
        line = JsonLineFormatter().format(self._record(job="j1", bytes=42))
        payload = json.loads(line)
        assert payload["message"] == "hello"
        assert payload["level"] == "INFO"
        assert payload["logger"] == "repro.test"
        assert payload["job"] == "j1" and payload["bytes"] == 42
        assert "trace_id" not in payload  # no open span

    def test_formatter_stamps_trace_id_inside_span(self):
        with timed_span("ctx") as s:
            payload = json.loads(JsonLineFormatter().format(self._record()))
        assert payload["trace_id"] == s.trace_id

    def test_configure_is_idempotent(self):
        configure_telemetry(level="INFO")
        configure_telemetry(level="DEBUG")
        root = logging.getLogger("repro")
        named = [h for h in root.handlers if h.get_name() == "repro-telemetry"]
        assert len(named) == 1  # replaced, not stacked
        assert root.level == logging.DEBUG
        assert telemetry_log_level() == "DEBUG"  # what a fleet inherits
        root.removeHandler(named[0])
        assert telemetry_log_level() is None

    def test_configured_records_go_to_stderr(self, capsys):
        # stdout stays reserved for CLI output and --json payloads.
        root = logging.getLogger("repro")
        level = root.level
        configure_telemetry(level="INFO")
        try:
            get_logger("repro.test").info("to stderr", extra={"job": "j2"})
        finally:
            for handler in list(root.handlers):
                if handler.get_name() == "repro-telemetry":
                    root.removeHandler(handler)
            root.setLevel(level)
        captured = capsys.readouterr()
        assert captured.out == ""
        payload = json.loads(captured.err.strip().splitlines()[-1])
        assert payload["message"] == "to stderr" and payload["job"] == "j2"

    def test_bad_level_raises(self):
        with pytest.raises(ValueError, match="unknown log level"):
            configure_telemetry(level="LOUD")

    def test_get_logger_requires_name(self):
        with pytest.raises(ValueError):
            get_logger("")

    def test_configure_installs_trace_writer(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        configure_telemetry(trace_path=str(path))
        assert trace_writer() is not None
        with span("via-configure"):
            pass
        shutdown_tracing()
        assert [r["name"] for r in _read_jsonl(path)] == ["via-configure"]


# ----------------------------------------------------------------------
class TestChromeExport:
    def test_export_is_valid_chrome_trace(self, tmp_path):
        jsonl = tmp_path / "trace.jsonl"
        configure_tracing(str(jsonl))
        with span("outer", stage="train"):
            with span("inner"):
                pass
        shutdown_tracing()
        trace = export_chrome_trace(str(jsonl))
        assert trace["displayTimeUnit"] == "ms"
        events = trace["traceEvents"]
        assert len(events) == 2
        for event in events:
            assert event["ph"] == "X"
            assert event["ts"] >= 0 and event["dur"] >= 0
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
            assert event["args"]["trace_id"]
        # Sorted by start time: outer opened first.
        assert [e["name"] for e in events] == ["outer", "inner"]
        inner = events[1]
        assert inner["args"]["parent_id"] == events[0]["args"]["span_id"]

    def test_write_chrome_trace_summary(self, tmp_path):
        jsonl = tmp_path / "trace.jsonl"
        configure_tracing(str(jsonl))
        with span("only"):
            pass
        shutdown_tracing()
        out = tmp_path / "trace.chrome.json"
        summary = write_chrome_trace(str(jsonl), str(out))
        assert summary["events"] == 1 and summary["pids"] == 1
        assert json.loads(out.read_text())["traceEvents"][0]["name"] == "only"

    def test_non_span_lines_are_skipped(self, tmp_path):
        jsonl = tmp_path / "trace.jsonl"
        jsonl.write_text(
            json.dumps({"type": "note", "text": "ignore me"}) + "\n"
            + json.dumps({
                "type": "span", "name": "kept", "trace": "t", "span": "s",
                "parent": None, "pid": 1, "tid": 2, "ts": 0.0, "dur_s": 0.1,
            }) + "\n"
        )
        events = export_chrome_trace(str(jsonl))["traceEvents"]
        assert [e["name"] for e in events] == ["kept"]


# ----------------------------------------------------------------------
class TestStageTimingsEquivalence:
    def test_serial_stage_timings_unchanged_by_tracing(self, tmp_path):
        """``stage_timings`` stays the same name→seconds mapping whether
        telemetry records or not (values are re-measured wall time, so
        only shape and coverage are comparable across runs)."""
        from repro import SparkXDConfig
        from repro.pipeline import ArtifactStore, ExperimentPipeline

        tiny = SparkXDConfig.small(
            n_train=25, n_test=15, n_neurons=8, n_steps=20,
            baseline_epochs=1, ber_rates=(1e-4,), accuracy_bound=0.5,
        )
        off = ExperimentPipeline(tiny, store=ArtifactStore())
        off.run()
        configure_tracing(str(tmp_path / "trace.jsonl"))
        on = ExperimentPipeline(tiny, store=ArtifactStore())
        on.run()
        shutdown_tracing()
        assert set(on.stage_timings) == set(off.stage_timings)
        assert all(v > 0 for v in on.stage_timings.values())
        # The recorded stage spans carry the exact timing values.
        records = _read_jsonl(tmp_path / "trace.jsonl")
        stage_durs = {
            r["name"][len("stage."):]: r["dur_s"]
            for r in records if r["name"].startswith("stage.")
        }
        for name, value in on.stage_timings.items():
            assert stage_durs[name] == pytest.approx(value)
