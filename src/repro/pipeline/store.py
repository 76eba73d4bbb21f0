"""Content-addressed artifact caching.

An :class:`ArtifactStore` maps ``(stage name, config fingerprint)`` keys
to stage artifacts.  The fingerprint hashes exactly the configuration
fields the stage's computation depends on (each stage declares them),
so:

- a sweep over DRAM-side knobs (voltages, weak-cell sigma, mapping
  policy, device spec) hits the cached training artifacts and only the
  cheap ``dram-eval`` stage re-runs;
- changing any training-side field (dataset, seed, BER schedule, …)
  changes the fingerprint and transparently invalidates everything
  downstream.

The store is in-memory by default; give it a ``root`` directory to
persist artifacts across processes and sessions.  Disk persistence uses
``pickle`` — only point ``root`` at a directory you trust, exactly like
any other local build cache.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import hashlib
import json
import os
import pickle
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Sequence, Set, Tuple, Union

from repro.telemetry import get_logger, get_metrics

LOG = get_logger(__name__)

#: Sentinel distinguishing "no cached artifact" from a cached ``None``.
MISS = object()


def canonical_form(value: Any) -> Any:
    """Reduce a config value to JSON-serialisable canonical form."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: canonical_form(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, (tuple, list)):
        return [canonical_form(v) for v in value]
    if isinstance(value, dict):
        return {str(k): canonical_form(v) for k, v in sorted(value.items())}
    return value


def fingerprint(payload: Any) -> str:
    """SHA-256 hex digest of the canonical JSON form of ``payload``."""
    text = json.dumps(canonical_form(payload), sort_keys=True, default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def config_fingerprint(config: Any, fields: Sequence[str]) -> str:
    """Fingerprint of the named ``config`` attributes only."""
    return fingerprint({name: getattr(config, name) for name in sorted(fields)})


@dataclass
class CacheStats:
    """Hit/miss counters of one :class:`ArtifactStore`."""

    hits: int = 0
    misses: int = 0
    puts: int = 0

    def snapshot(self) -> "CacheStats":
        return CacheStats(hits=self.hits, misses=self.misses, puts=self.puts)


@dataclass(frozen=True)
class PruneReport:
    """What one :meth:`ArtifactStore.prune` pass evicted and kept.

    With ``dry_run`` set the pass deleted nothing: the removed/freed
    numbers describe what a real pass with the same budget *would*
    evict.
    """

    removed_files: int
    freed_bytes: int
    kept_files: int
    kept_bytes: int
    dry_run: bool = False

    def to_dict(self) -> dict:
        return {
            "removed_files": self.removed_files,
            "freed_bytes": self.freed_bytes,
            "kept_files": self.kept_files,
            "kept_bytes": self.kept_bytes,
            "dry_run": self.dry_run,
        }


class ArtifactStore:
    """In-memory (optionally disk-backed) artifact cache.

    Keys are ``(stage_name, fingerprint)`` pairs.  All artifacts must be
    picklable when ``root`` is set.
    """

    def __init__(self, root: Optional[Union[str, Path]] = None):
        self.root = Path(root) if root is not None else None
        if self.root is not None:
            self.root.mkdir(parents=True, exist_ok=True)
        self._memory: Dict[Tuple[str, str], Any] = {}
        self.stats = CacheStats()
        # The memory map and the CacheStats counters are read-modify-
        # written from every request thread of the coordinator (the
        # service dispatches has/get/put on a thread pool), so all their
        # mutations go through this lock.  File I/O deliberately stays outside it: disk publishes
        # are atomic (and treat a lost race as a hit), so artifact
        # traffic from many workers stays concurrent.
        self._lock = threading.RLock()

    def __getstate__(self):
        state = self.__dict__.copy()
        del state["_lock"]  # locks don't pickle; each process gets its own
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._lock = threading.RLock()

    def stats_view(self) -> "ArtifactStore":
        """A view sharing this store's memory, disk and lock — but with
        its own fresh :class:`CacheStats`.

        Lets one reader attribute hits/misses to *its* traffic while
        other threads hammer the same store through the original handle
        (the cluster executor's overlapped assembly runs while worker
        uploads are still being served).
        """
        view = copy.copy(self)
        view._lock = self._lock  # one lock per underlying store
        view.stats = CacheStats()
        return view

    # ------------------------------------------------------------------
    def _path(self, key: Tuple[str, str]) -> Path:
        stage, digest = key
        return self.root / stage / f"{digest}.pkl"

    def get(self, stage: str, digest: str) -> Any:
        """Return the cached artifact or the :data:`MISS` sentinel."""
        key = (stage, digest)
        with self._lock:
            if key in self._memory:
                self.stats.hits += 1
                artifact = self._memory[key]
                served_from_memory = True
            else:
                served_from_memory = False
        if served_from_memory:
            get_metrics().counter("store.hits").inc()
            if self.root is not None:
                # Keep prune()'s LRU ranking honest for artifacts served
                # from memory: their disk twin is still "in use".
                with contextlib.suppress(OSError):
                    os.utime(self._path(key), None)
            return artifact
        if self.root is not None:
            path = self._path(key)
            if path.exists():
                # Load outside the lock: two threads racing on one key
                # both unpickle the same published bytes and the loser
                # merely overwrites an identical object.
                with open(path, "rb") as handle:
                    artifact = pickle.load(handle)
                # Refresh the mtime so prune()'s LRU ordering reflects
                # use, not just creation.
                with contextlib.suppress(OSError):
                    os.utime(path, None)
                with self._lock:
                    self._memory[key] = artifact
                    self.stats.hits += 1
                get_metrics().counter("store.hits").inc()
                return artifact
        with self._lock:
            self.stats.misses += 1
        get_metrics().counter("store.misses").inc()
        return MISS

    def put(self, stage: str, digest: str, artifact: Any) -> None:
        key = (stage, digest)
        with self._lock:
            self._memory[key] = artifact
            self.stats.puts += 1
        get_metrics().counter("store.puts").inc()
        if self.root is not None:
            self._publish(
                key, lambda: pickle.dumps(artifact, protocol=pickle.HIGHEST_PROTOCOL)
            )

    def put_bytes(self, stage: str, digest: str, blob: bytes) -> None:
        """Store an already-pickled artifact without unpickling it.

        The fast path of the cluster coordinator's artifact uploads: a
        disk-backed store writes ``blob`` straight to the artifact file
        and does *not* retain the object in memory — the artifact loads
        lazily on first :meth:`get`, so a long-running coordinator's
        memory is bounded by what it actually reads, not by everything
        workers ever pushed.  A memory-only store has nowhere else to
        keep it and falls back to unpickling.
        """
        if self.root is None:
            self.put(stage, digest, pickle.loads(blob))
            return
        with self._lock:
            self.stats.puts += 1
        get_metrics().counter("store.puts").inc()
        self._publish((stage, digest), lambda: blob)

    def _publish(self, key: Tuple[str, str], make_blob) -> None:
        """Atomically write ``make_blob()`` to the key's artifact file.

        Content-addressed keys make losing a write race a *hit*: a
        concurrent writer (another sweep worker, a cluster artifact
        upload) already published an equivalent artifact under this
        fingerprint, so skip the redundant write and just refresh the
        LRU rank.
        """
        path = self._path(key)
        if path.exists():
            with contextlib.suppress(OSError):
                os.utime(path, None)
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        # Write to a per-writer temp file, then atomically publish:
        # concurrent processes sharing the cache dir never observe a
        # partial pickle, even when racing on the same key.
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=f".{key[1][:8]}-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(make_blob())
            os.replace(tmp_name, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp_name)
            raise

    def prune(self, max_bytes: int, dry_run: bool = False) -> PruneReport:
        """Evict least-recently-used disk artifacts down to a byte budget.

        Artifact files are ranked by mtime (refreshed on every disk
        read, so ranking is least-recently-*used*) and deleted oldest
        first until the total size is at most ``max_bytes``.  Evicted
        artifacts are also dropped from the in-memory map, so the store
        behaves as if they were never cached.  Requires a disk-backed
        store (``root`` set).

        With ``dry_run=True`` nothing is deleted (disk and memory are
        untouched); the returned report describes what the same budget
        would evict.
        """
        if self.root is None:
            raise ValueError("prune() requires a disk-backed store (root=...)")
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        entries = []
        for path in self.root.glob("*/*.pkl"):
            with contextlib.suppress(OSError):
                stat = path.stat()
                entries.append((stat.st_mtime, stat.st_size, path))
        entries.sort(key=lambda item: item[0])
        total = sum(size for _, size, _ in entries)
        removed = freed = 0
        for _, size, path in entries:
            if total <= max_bytes:
                break
            if not dry_run:
                try:
                    path.unlink()
                except OSError:
                    continue
                with self._lock:
                    self._memory.pop((path.parent.name, path.stem), None)
            removed += 1
            freed += size
            total -= size
        LOG.info(
            "store prune",
            extra={
                "removed_files": removed,
                "freed_bytes": freed,
                "kept_bytes": total,
                "dry_run": dry_run,
            },
        )
        return PruneReport(
            removed_files=removed,
            freed_bytes=freed,
            kept_files=len(entries) - removed,
            kept_bytes=total,
            dry_run=dry_run,
        )

    def __contains__(self, key: Tuple[str, str]) -> bool:
        with self._lock:
            if key in self._memory:
                return True
        return self.root is not None and self._path(key).exists()

    def __len__(self) -> int:
        """Distinct cached artifacts — disk entries included.

        A disk-backed store counts what is actually cached, not just
        what has been faulted into memory (an uploaded-but-never-read
        artifact is cached all the same).  Memory-only keys whose disk
        twin vanished are still counted once.
        """
        with self._lock:
            keys: Set[Tuple[str, str]] = set(self._memory)
        if self.root is not None:
            for path in self.root.glob("*/*.pkl"):
                keys.add((path.parent.name, path.stem))
        return len(keys)

    def clear(self) -> None:
        """Drop every in-memory entry (disk entries are left alone)."""
        with self._lock:
            self._memory.clear()
