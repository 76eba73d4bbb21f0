"""Zero-dependency span/trace API recording to per-process JSONL.

A *span* is a named, timed region of work.  Spans nest: a thread-local
stack makes the innermost open span the parent of any span started on
the same thread, so ``stage.train-baseline`` opened inside
``cluster.job`` lands under it in the exported trace without any
explicit plumbing.  Durations come from ``time.perf_counter()`` (the
monotonic clock); the wall-clock ``ts`` field exists only to align
timelines *across* processes in the merged trace.

Tracing is off by default and stays allocation-free on the hot paths:
``span(...)`` returns a shared no-op singleton until a ``TraceWriter``
is installed via :func:`configure_tracing`, so per-chunk / per-epoch
instrumentation costs one global read when telemetry is disabled.
``timed_span(...)`` always returns a real span (callers that need the
measured ``duration_s`` — the pipeline's ``stage_timings`` — use it),
but still writes nothing without a writer.

Multi-process traces: every record is a single ``write()`` of one
JSON line in append mode, so a coordinator and its worker subprocesses
can share one trace file — the OS interleaves whole lines and the
exporter separates timelines by ``pid``.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
import uuid
from typing import Any, Dict, Iterator, List, Optional

__all__ = [
    "Span",
    "TraceWriter",
    "adopt_context",
    "configure_tracing",
    "current_context",
    "export_chrome_trace",
    "open_spans",
    "shutdown_tracing",
    "span",
    "timed_span",
    "trace_writer",
    "write_chrome_trace",
]


def _start_process() -> None:  # and again in a forked child
    global _id_prefix, _id_counter, _pid
    _id_prefix, _id_counter, _pid = uuid.uuid4().hex[:8], itertools.count(), os.getpid()


_start_process()
os.register_at_fork(after_in_child=_start_process)
#: One encoder for all records; ``json.dumps`` with options makes one per call.
_encode = json.JSONEncoder(sort_keys=True, default=str).encode


def new_id() -> str:
    """A fresh 16-hex-char trace/span id: a random per-process prefix
    (uuid4-backed, not seeded RNG) and a counter, with no system call."""

    return f"{_id_prefix}{next(_id_counter):08x}"


class TraceWriter:
    """Append-only JSONL sink shared by every span in the process.

    One ``write()`` call per record keeps concurrent appends from
    multiple processes line-atomic on POSIX; the per-instance lock
    serialises threads within this process.
    """

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self._lock = threading.Lock()
        self._handle = open(self.path, "a", encoding="utf-8")

    def write(self, record: Dict[str, Any]) -> None:
        line = _encode(record)
        with self._lock:
            self._handle.write(line + "\n")
            self._handle.flush()

    def close(self) -> None:
        with self._lock:
            if not self._handle.closed:
                self._handle.close()


_state_lock = threading.Lock()
_writer: Optional[TraceWriter] = None
_tls = threading.local()
#: Open (entered, not yet exited) spans: span_id -> (name, perf_counter at entry).
_open: Dict[str, Any] = {}


def configure_tracing(path: str) -> TraceWriter:
    """Install (or replace) the process-wide trace writer."""

    global _writer
    with _state_lock:
        if _writer is not None:
            _writer.close()
        _writer = TraceWriter(path)
        return _writer


def shutdown_tracing() -> None:
    """Close and remove the process-wide trace writer (spans go no-op)."""

    global _writer
    with _state_lock:
        if _writer is not None:
            _writer.close()
        _writer = None


def trace_writer() -> Optional[TraceWriter]:
    """The installed writer, or ``None`` when tracing is off."""

    return _writer


def _stack() -> List["Span"]:
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = []
        _tls.stack = stack
    return stack


class Span:
    """A timed region; use as a context manager via span()/timed_span()."""

    __slots__ = (
        "name",
        "attrs",
        "trace_id",
        "span_id",
        "parent_id",
        "duration_s",
        "_t0",
        "_wall0",
    )

    def __init__(self, name: str, attrs: Dict[str, Any]) -> None:
        self.name = name
        self.attrs = attrs
        self.trace_id = ""
        self.span_id = ""
        self.parent_id: Optional[str] = None
        self.duration_s = 0.0
        self._t0 = 0.0
        self._wall0 = 0.0

    def set(self, **attrs: Any) -> "Span":
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        stack = _stack()
        if stack:
            parent = stack[-1]
            self.trace_id = parent.trace_id
            self.parent_id = parent.span_id
        else:
            remote = getattr(_tls, "remote", None)
            if remote is not None:
                self.trace_id, self.parent_id = remote
            else:
                self.trace_id = new_id()
        self.span_id = new_id()
        stack.append(self)
        with _state_lock:
            _open[self.span_id] = (self.name, time.perf_counter())
        self._wall0 = time.time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.duration_s = time.perf_counter() - self._t0
        stack = _stack()
        if stack and stack[-1] is self:
            stack.pop()
        elif self in stack:  # exited out of order; keep the stack sane
            stack.remove(self)
        with _state_lock:
            _open.pop(self.span_id, None)
        writer = _writer
        if writer is not None:
            record = {
                "type": "span",
                "name": self.name,
                "trace": self.trace_id,
                "span": self.span_id,
                "parent": self.parent_id,
                "pid": _pid,
                "tid": threading.get_ident(),
                "ts": self._wall0,
                "dur_s": self.duration_s,
            }
            if exc_type is not None:
                record["error"] = exc_type.__name__
            if self.attrs:
                record["attrs"] = self.attrs
            writer.write(record)


class _NullSpan:
    """Shared no-op stand-in returned by span() when tracing is off."""

    __slots__ = ()

    duration_s = 0.0
    trace_id = ""
    span_id = ""
    parent_id = None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        return None

    def set(self, **attrs: Any) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


def span(name: str, **attrs: Any):
    """A recording span when tracing is on; a shared no-op otherwise.

    Hot paths (per-chunk, per-minibatch) use this: the disabled cost is
    one module-global read and no allocation.
    """

    if _writer is None:
        return _NULL_SPAN
    return Span(name, attrs)


def timed_span(name: str, **attrs: Any) -> Span:
    """A real span even when tracing is off, for callers that consume
    ``duration_s`` (e.g. span-backed ``stage_timings``)."""

    return Span(name, attrs)


def current_context() -> Optional[Dict[str, str]]:
    """``{"trace_id", "span_id"}`` of the innermost open span, if any."""

    stack = getattr(_tls, "stack", None)
    if stack:
        top = stack[-1]
        return {"trace_id": top.trace_id, "span_id": top.span_id}
    remote = getattr(_tls, "remote", None)
    if remote is not None:
        return {"trace_id": remote[0], "span_id": remote[1]}
    return None


class adopt_context:
    """Adopt a remote parent (e.g. from a lease reply) for this thread.

    While active, spans opened with an empty local stack parent under
    the remote context instead of starting fresh traces — this is how a
    worker's ``cluster.job`` span joins the coordinator's sweep trace.
    ``ctx`` may be ``None`` (no-op) for wire payloads without trace
    context.
    """

    def __init__(self, ctx: Optional[Dict[str, str]]) -> None:
        trace_id = (ctx or {}).get("trace_id")
        span_id = (ctx or {}).get("span_id")
        self._remote = (trace_id, span_id) if trace_id else None
        self._prior: Any = None

    def __enter__(self) -> "adopt_context":
        self._prior = getattr(_tls, "remote", None)
        if self._remote is not None:
            _tls.remote = self._remote
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        _tls.remote = self._prior


def open_spans(limit: int = 5) -> List[Dict[str, Any]]:
    """The oldest currently-open spans as ``{"name", "age_s"}`` rows.

    This is the "slowest open spans" feed for worker telemetry
    snapshots and ``repro cluster top`` — a span that has been open for
    minutes is a straggler regardless of whether tracing writes a file.
    """

    now = time.perf_counter()
    with _state_lock:
        entries = [(name, now - t0) for (name, t0) in _open.values()]
    entries.sort(key=lambda item: -item[1])
    return [
        {"name": name, "age_s": round(age, 3)} for name, age in entries[:limit]
    ]


# ----------------------------------------------------------------------
# Chrome/Perfetto export


def _iter_records(jsonl_path: str) -> Iterator[Dict[str, Any]]:
    with open(jsonl_path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if record.get("type") == "span":
                yield record


def export_chrome_trace(jsonl_path: str) -> Dict[str, Any]:
    """Convert a span JSONL file to a Chrome/Perfetto ``trace.json`` dict.

    Complete-phase (``"ph": "X"``) events, microsecond timestamps from
    the wall-clock ``ts`` field so records from different processes land
    on one timeline.
    """

    events: List[Dict[str, Any]] = []
    for record in _iter_records(jsonl_path):
        args = dict(record.get("attrs") or {})
        args["trace_id"] = record["trace"]
        args["span_id"] = record["span"]
        if record.get("parent"):
            args["parent_id"] = record["parent"]
        if record.get("error"):
            args["error"] = record["error"]
        events.append(
            {
                "name": record["name"],
                "cat": "repro",
                "ph": "X",
                "ts": record["ts"] * 1e6,
                "dur": record["dur_s"] * 1e6,
                "pid": record["pid"],
                "tid": record["tid"],
                "args": args,
            }
        )
    events.sort(key=lambda event: event["ts"])
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(jsonl_path: str, out_path: str) -> Dict[str, Any]:
    """Export ``jsonl_path`` to ``out_path``; returns a small summary."""

    trace = export_chrome_trace(jsonl_path)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(trace, handle)
    events = trace["traceEvents"]
    return {
        "trace": str(jsonl_path),
        "out": str(out_path),
        "events": len(events),
        "pids": len({event["pid"] for event in events}),
    }
