"""Append-only coordinator journal: sweep job transitions on disk.

A :class:`SweepJournal` is one JSONL file living next to the
coordinator's artifact store.  Every scheduling transition of a
:class:`~repro.cluster.plan.SweepPlan` — lease grants, requeues,
completions, plan failure — is appended as a single JSON line and
flushed before the scheduling call returns, so a coordinator killed at
any instant (SIGKILL included) loses at most the line being written.

On restart, the plan **replays** the journal: every ``done`` event
whose target artifact is still present in the store marks the matching
job done — with the original worker attribution and placement stats —
so an interrupted sweep resumes without re-leasing (or re-executing)
a single journaled-done fingerprint.  A ``done`` event whose artifact
has since vanished (pruned cache) is ignored and the job simply runs
again: the store, not the journal, is the source of truth for bytes.

Two guards keep replay honest:

- each plan construction appends a ``plan`` header carrying a
  ``plan_id`` fingerprint of the full (config × stage) digest matrix;
  replaying a journal whose headers name a *different* sweep raises
  :class:`JournalMismatch` instead of silently mixing state;
- a truncated tail line (the one a crash interrupted) is tolerated and
  skipped; malformed lines elsewhere are skipped too, never fatal.

**Compaction** keeps the file bounded: :meth:`SweepJournal.compact`
folds the lease/requeue chatter away, rewriting the journal as just
the latest plan header plus one ``snapshot`` event that carries the
entire done map (stage, digest, worker attribution, stats).  Replay of
a compacted journal reaches the identical plan state — ``done_events``
reads snapshots and plain ``done`` lines interchangeably — but its
size and replay cost are O(done jobs), not O(total transitions), which
is what makes million-job sweeps resumable in practice.  Compaction
runs offline (``repro cluster journal compact``) or automatically
every ``compact_every`` appended events, and the rewrite is atomic
(temp file + ``os.replace``), so a crash mid-compaction leaves the
previous journal intact.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Union


class JournalMismatch(ValueError):
    """The journal on disk belongs to a different sweep."""


class SweepJournal:
    """One append-only JSONL transition log, replayable after a crash.

    Parameters
    ----------
    path:
        The journal file.  Parent directories are created as needed.
    resume:
        With ``False`` (the default) an existing non-empty journal is
        refused with a :class:`ValueError` — starting a *new* sweep on
        top of an old journal is almost always an operator mistake
        (pass ``resume=True`` to replay it, or delete the file).
    compact_every:
        Auto-compact after this many appended events (``None`` — the
        default — never compacts automatically).  Each compaction
        resets the counter, so the on-disk file stays within
        ``compact_every`` lines of its snapshot-only minimum no matter
        how long the sweep runs.
    """

    def __init__(
        self,
        path: Union[str, Path],
        resume: bool = False,
        compact_every: Optional[int] = None,
    ):
        if compact_every is not None and int(compact_every) < 1:
            raise ValueError(f"compact_every must be >= 1, got {compact_every}")
        self.path = Path(path)
        self.resume = bool(resume)
        self.compact_every = None if compact_every is None else int(compact_every)
        existing = self.path.exists() and self.path.stat().st_size > 0
        if existing and not self.resume:
            raise ValueError(
                f"journal {self.path} already exists; resume the interrupted "
                "sweep (resume=True / --resume) or delete the file to start "
                "fresh"
            )
        self._events: List[Dict[str, Any]] = self._load() if existing else []
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._appended_since_compact = 0
        self._handle = open(self.path, "a", encoding="utf-8")
        if existing and not self._ends_with_newline():
            # The previous life crashed mid-write, leaving a torn tail
            # with no terminator.  Appending onto it would glue the
            # next event to the partial line, corrupting BOTH for every
            # later replay — seal the tear first.
            self._handle.write("\n")
            self._handle.flush()

    def _ends_with_newline(self) -> bool:
        with open(self.path, "rb") as handle:
            handle.seek(-1, os.SEEK_END)
            return handle.read(1) == b"\n"

    # ------------------------------------------------------------------
    def _load(self) -> List[Dict[str, Any]]:
        events: List[Dict[str, Any]] = []
        with open(self.path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    event = json.loads(line)
                except json.JSONDecodeError:
                    # The line a crash truncated mid-write (or stray
                    # corruption): skip — every complete transition is
                    # on its own line, so nothing else is affected.
                    continue
                if isinstance(event, dict):
                    events.append(event)
        return events

    def _lag_locked(self) -> int:
        for index in range(len(self._events) - 1, -1, -1):
            if self._events[index].get("event") == "snapshot":
                return len(self._events) - index - 1
        return len(self._events)

    def status(self) -> Dict[str, Any]:
        """Operator view: path, event count, lag, compaction policy."""
        with self._lock:
            return {
                "path": str(self.path),
                "events": len(self._events),
                "lag": self._lag_locked(),
                "compact_every": self.compact_every,
            }

    def done_events(self, plan_id: Optional[str] = None) -> Dict[tuple, Dict[str, Any]]:
        """``(stage, digest) -> last done event``, verifying plan headers.

        With ``plan_id`` given, any ``plan`` header naming a different
        sweep raises :class:`JournalMismatch` — replaying another
        grid's journal must fail loudly, not half-apply.
        """
        done: Dict[tuple, Dict[str, Any]] = {}
        for event in self._events:
            kind = event.get("event")
            if kind in ("plan", "snapshot") and plan_id is not None:
                recorded = event.get("plan_id")
                if recorded is not None and recorded != plan_id:
                    raise JournalMismatch(
                        f"journal {self.path} was written by a different sweep "
                        f"(plan_id {recorded[:16]}… != {plan_id[:16]}…); "
                        "point --journal elsewhere or delete it"
                    )
            if kind == "done":
                stage, digest = event.get("stage"), event.get("digest")
                if stage and digest:
                    done[(str(stage), str(digest))] = event
            elif kind == "snapshot":
                # A folded done map: each entry replays exactly like
                # the original done line it summarises.
                for entry in event.get("done", []):
                    stage, digest = entry.get("stage"), entry.get("digest")
                    if stage and digest:
                        done[(str(stage), str(digest))] = entry
        return done

    # ------------------------------------------------------------------
    def append(self, event: Dict[str, Any]) -> None:
        """Write one transition line and flush it to the OS.

        A flush is enough for process-kill durability (the page cache
        outlives the process); fsync-per-event would only add OS-crash
        coverage at a latency cost the scheduler lock would feel.
        """
        event = dict(event)
        event.setdefault("t", round(time.time(), 3))
        line = json.dumps(event, sort_keys=True, default=str)
        with self._lock:
            if self._handle.closed:  # pragma: no cover - post-close race
                return
            self._handle.write(line + "\n")
            self._handle.flush()
            self._events.append(event)
            self._appended_since_compact += 1
            if (
                self.compact_every is not None
                and self._appended_since_compact >= self.compact_every
            ):
                self._compact_locked()

    # ------------------------------------------------------------------
    def compact(self) -> Dict[str, int]:
        """Fold the journal down to plan header + one done snapshot.

        Lease grants, requeues and heartbeat chatter are history that
        replay never reads — only the done map matters for resume.
        Returns ``{"events_before", "events_after", "done"}``.
        """
        with self._lock:
            if self._handle.closed:
                raise ValueError(f"journal {self.path} is closed")
            return self._compact_locked()

    def _compact_locked(self) -> Dict[str, int]:
        before = len(self._events)
        header: Optional[Dict[str, Any]] = None
        failed: Optional[Dict[str, Any]] = None
        done: Dict[tuple, Dict[str, Any]] = {}
        for event in self._events:
            kind = event.get("event")
            if kind == "plan":
                header = event
            elif kind == "plan-failed":
                failed = event
            elif kind == "done":
                stage, digest = event.get("stage"), event.get("digest")
                if stage and digest:
                    done[(str(stage), str(digest))] = {
                        key: event[key]
                        for key in ("job", "stage", "digest", "worker", "stats")
                        if key in event
                    }
            elif kind == "snapshot":
                for entry in event.get("done", []):
                    stage, digest = entry.get("stage"), entry.get("digest")
                    if stage and digest:
                        done[(str(stage), str(digest))] = entry
        snapshot: Dict[str, Any] = {
            "event": "snapshot",
            "t": round(time.time(), 3),
            "folded": before,
            "done": [done[key] for key in sorted(done)],
        }
        if header is not None and header.get("plan_id") is not None:
            snapshot["plan_id"] = header["plan_id"]
        compacted = [e for e in (header, snapshot, failed) if e is not None]
        # Atomic rewrite: a crash here leaves either the old journal or
        # the new one, never a half-written file (the .tmp is ignored
        # by every reader).
        tmp = self.path.with_name(self.path.name + ".tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            for event in compacted:
                handle.write(json.dumps(event, sort_keys=True, default=str) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        self._handle.close()
        os.replace(tmp, self.path)
        self._handle = open(self.path, "a", encoding="utf-8")
        self._events = list(compacted)
        self._appended_since_compact = 0
        return {
            "events_before": before,
            "events_after": len(compacted),
            "done": len(done),
        }

    def close(self) -> None:
        with self._lock:
            if not self._handle.closed:
                self._handle.close()

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


__all__ = ["JournalMismatch", "SweepJournal"]
