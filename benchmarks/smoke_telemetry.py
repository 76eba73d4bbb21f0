#!/usr/bin/env python
"""Telemetry smoke: merged fleet traces are real, and off means off.

Two contracts, checked end-to-end through the real CLI:

1. **Off is free** — without ``--trace`` no writer is ever allocated
   and the hot-path ``span()`` helper hands back its shared no-op, so
   instrumented code paths cost one global read.
2. **On is coherent** — a 2-worker localhost ``sweep --workers 2
   --trace`` appends coordinator and worker spans to one JSONL file; the spans
   parse, carry ids, come from multiple processes, nest under parents
   present in the same file within wall-clock bounds, and export to a
   structurally valid Chrome/Perfetto ``trace.json``.

Usage::

    PYTHONPATH=src python benchmarks/smoke_telemetry.py

Exits non-zero on the first violated contract.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

#: Wall-clock slack for cross-process nesting checks: ``ts`` is
#: time.time() at span entry while ``dur_s`` is monotonic, so parent
#: and child clocks can disagree by scheduling + clock-domain jitter.
NEST_SLACK_S = 0.25

SWEEP_ARGS = [
    "sweep",
    "--workers", "2",
    "--voltages", "1.325", "1.025",
    "--seeds", "42", "43",
    "--neurons", "12", "--train", "40", "--test", "25", "--steps", "30",
    "--bound", "0.5",
    "--json",
]


def check(condition: bool, label: str) -> None:
    if not condition:
        print(f"FAIL: {label}", file=sys.stderr)
        sys.exit(1)
    print(f"ok: {label}")


def check_off_is_free() -> None:
    from repro import SparkXDConfig
    from repro.pipeline import ArtifactStore, ExperimentPipeline
    from repro.telemetry import span, trace_writer

    tiny = SparkXDConfig.small(
        n_train=25, n_test=15, n_neurons=8, n_steps=20,
        baseline_epochs=1, ber_rates=(1e-4,), accuracy_bound=0.5,
    )
    pipeline = ExperimentPipeline(tiny, store=ArtifactStore())
    pipeline.run()
    check(trace_writer() is None, "telemetry off: no trace writer allocated")
    check(span("x") is span("y"), "telemetry off: span() is the shared no-op")
    check(
        all(v > 0 for v in pipeline.stage_timings.values()),
        "telemetry off: stage_timings still measured",
    )


def run_traced_sweep(trace_path: Path) -> None:
    command = [sys.executable, "-m", "repro", *SWEEP_ARGS,
               "--trace", str(trace_path)]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    result = subprocess.run(
        command, env=env, capture_output=True, text=True, timeout=900
    )
    if result.returncode != 0:
        print(result.stdout, file=sys.stderr)
        print(result.stderr, file=sys.stderr)
    check(result.returncode == 0, "2-worker sweep --trace completed")
    records = json.loads(result.stdout)
    check(len(records) == 4, "sweep produced all 4 grid-point records")


def check_trace_contents(trace_path: Path) -> None:
    spans = []
    with open(trace_path, "r", encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                spans.append(json.loads(line))  # malformed line -> raise
    check(len(spans) > 0, f"trace parsed: {len(spans)} span record(s)")
    by_id = {}
    required = ("name", "trace", "span", "pid", "tid", "ts", "dur_s")
    for record in spans:
        missing = [field for field in required if field not in record]
        if missing:
            check(False, f"span record missing {missing}: {record!r}")
        by_id[record["span"]] = record
    check(True, f"every record carries {', '.join(required)}")
    check(len(by_id) == len(spans), "span ids are unique")

    pids = {record["pid"] for record in spans}
    check(
        len(pids) >= 2,
        f"spans from multiple processes share the file (pids={sorted(pids)})",
    )

    names = {record["name"] for record in spans}
    check("cluster.sweep" in names, "coordinator recorded cluster.sweep")
    check("cluster.job" in names, "workers recorded cluster.job spans")
    check(
        any(name.startswith("stage.") for name in names),
        "pipeline stage spans recorded",
    )

    sweep = next(r for r in spans if r["name"] == "cluster.sweep")
    jobs = [r for r in spans if r["name"] == "cluster.job"]
    check(
        all(j["trace"] == sweep["trace"] for j in jobs),
        "worker job spans joined the coordinator's trace",
    )
    check(
        all(j["parent"] == sweep["span"] for j in jobs),
        "worker job spans parent under the sweep span",
    )

    parented = [r for r in spans if r.get("parent")]
    check(len(parented) > 0, "nested spans present")
    orphans = [r for r in parented if r["parent"] not in by_id]
    check(not orphans, "every parent id resolves within the file")
    for record in parented:
        parent = by_id[record["parent"]]
        starts_inside = record["ts"] >= parent["ts"] - NEST_SLACK_S
        ends_inside = (
            record["ts"] + record["dur_s"]
            <= parent["ts"] + parent["dur_s"] + NEST_SLACK_S
        )
        check(
            starts_inside and ends_inside,
            f"{record['name']} nests inside {parent['name']} in time",
        )
        break  # one detailed bound per run keeps the log readable
    check(
        all(
            r["ts"] >= p["ts"] - NEST_SLACK_S
            and r["ts"] + r["dur_s"] <= p["ts"] + p["dur_s"] + NEST_SLACK_S
            for r in parented
            for p in (by_id[r["parent"]],)
        ),
        "all child spans start and end within their parents (with slack)",
    )


def check_chrome_export(trace_path: Path, out_path: Path) -> None:
    command = [
        sys.executable, "-m", "repro", "telemetry", "export",
        "--trace", str(trace_path), "--out", str(out_path), "--json",
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    result = subprocess.run(
        command, env=env, capture_output=True, text=True, timeout=120
    )
    check(result.returncode == 0, "repro telemetry export succeeded")
    summary = json.loads(result.stdout)
    check(summary["pids"] >= 2, "export summary sees multiple processes")

    trace = json.loads(out_path.read_text())
    events = trace["traceEvents"]
    check(isinstance(events, list) and events, "traceEvents is a non-empty list")
    check(summary["events"] == len(events), "export summary counts the events")
    for event in events:
        ok = (
            isinstance(event.get("name"), str)
            and event.get("ph") == "X"
            and isinstance(event.get("ts"), (int, float))
            and isinstance(event.get("dur"), (int, float))
            and isinstance(event.get("pid"), int)
            and isinstance(event.get("tid"), int)
        )
        if not ok:
            check(False, f"malformed Chrome event: {event!r}")
    check(
        events == sorted(events, key=lambda e: e["ts"]),
        "Chrome events are start-time ordered",
    )
    print(f"chrome trace: {len(events)} event(s) -> {out_path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--keep", metavar="DIR", default=None,
                        help="write the trace files into DIR instead of a "
                             "temporary directory (for inspection)")
    args = parser.parse_args(argv)

    check_off_is_free()
    if args.keep:
        workdir = Path(args.keep)
        workdir.mkdir(parents=True, exist_ok=True)
        context = None
    else:
        context = tempfile.TemporaryDirectory()
        workdir = Path(context.name)
    try:
        trace_path = workdir / "fleet_trace.jsonl"
        run_traced_sweep(trace_path)
        check_trace_contents(trace_path)
        check_chrome_export(trace_path, workdir / "fleet_trace.chrome.json")
    finally:
        if context is not None:
            context.cleanup()
    print("telemetry smoke: all contracts hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
