"""Tests of the content-addressed artifact store and config fingerprints."""

import pytest

from repro import SparkXDConfig
from repro.pipeline.stages import (
    BASELINE_FIELDS,
    DRAM_FIELDS,
    TOLERANCE_FIELDS,
    TRAINING_FIELDS,
)
from repro.pipeline.store import (
    MISS,
    ArtifactStore,
    config_fingerprint,
    fingerprint,
)


class TestFingerprint:
    def test_stable_across_calls(self):
        assert fingerprint({"a": 1, "b": (2, 3)}) == fingerprint({"a": 1, "b": (2, 3)})

    def test_key_order_irrelevant(self):
        assert fingerprint({"a": 1, "b": 2}) == fingerprint({"b": 2, "a": 1})

    def test_value_change_changes_digest(self):
        assert fingerprint({"a": 1}) != fingerprint({"a": 2})

    def test_dataclasses_are_canonicalised(self):
        cfg = SparkXDConfig.small()
        a = config_fingerprint(cfg, ("dram_spec",))
        b = config_fingerprint(cfg.with_overrides(seed=99), ("dram_spec",))
        assert a == b  # dram_spec unchanged -> same digest


class TestStageFieldGroups:
    """The cache-soundness invariants the stage chain relies on."""

    def test_fields_grow_monotonically(self):
        assert set(BASELINE_FIELDS) < set(TRAINING_FIELDS)
        assert set(TRAINING_FIELDS) < set(TOLERANCE_FIELDS)
        assert set(TOLERANCE_FIELDS) < set(DRAM_FIELDS)

    def test_dram_fields_cover_every_config_field(self):
        import dataclasses

        assert set(DRAM_FIELDS) == {
            f.name for f in dataclasses.fields(SparkXDConfig)
        }

    def test_dram_side_override_keeps_training_fingerprint(self):
        cfg = SparkXDConfig.small()
        swept = cfg.with_overrides(
            voltages=(1.175,), weak_cell_sigma=0.3, mapping_policy="baseline"
        )
        assert config_fingerprint(cfg, TOLERANCE_FIELDS) == config_fingerprint(
            swept, TOLERANCE_FIELDS
        )
        assert config_fingerprint(cfg, DRAM_FIELDS) != config_fingerprint(
            swept, DRAM_FIELDS
        )

    def test_training_side_override_invalidates(self):
        cfg = SparkXDConfig.small()
        for override in ({"seed": 99}, {"ber_rates": (1e-4,)}, {"dataset": "fashion"}):
            changed = cfg.with_overrides(**override)
            assert config_fingerprint(cfg, TRAINING_FIELDS) != config_fingerprint(
                changed, TRAINING_FIELDS
            ), override


class TestArtifactStore:
    def test_miss_then_hit(self):
        store = ArtifactStore()
        assert store.get("stage", "abc") is MISS
        store.put("stage", "abc", {"x": 1})
        assert store.get("stage", "abc") == {"x": 1}
        assert store.stats.misses == 1
        assert store.stats.hits == 1
        assert store.stats.puts == 1

    def test_contains_does_not_touch_stats(self):
        store = ArtifactStore()
        store.put("stage", "abc", 1)
        assert ("stage", "abc") in store
        assert ("stage", "zzz") not in store
        assert store.stats.hits == 0
        assert store.stats.misses == 0

    def test_different_digest_misses(self):
        store = ArtifactStore()
        store.put("stage", "abc", 1)
        assert store.get("stage", "def") is MISS

    def test_clear_drops_memory(self):
        store = ArtifactStore()
        store.put("stage", "abc", 1)
        store.clear()
        assert store.get("stage", "abc") is MISS

    def test_disk_persistence_across_instances(self, tmp_path):
        first = ArtifactStore(tmp_path / "cache")
        first.put("stage", "abc", {"weights": [1, 2, 3]})
        second = ArtifactStore(tmp_path / "cache")
        assert second.get("stage", "abc") == {"weights": [1, 2, 3]}
        assert second.stats.hits == 1

    def test_disk_store_contains_without_loading(self, tmp_path):
        first = ArtifactStore(tmp_path / "cache")
        first.put("stage", "abc", 1)
        second = ArtifactStore(tmp_path / "cache")
        assert ("stage", "abc") in second
        assert not second._memory  # not loaded into memory yet
        # ...but the disk entry still counts as cached.
        assert len(second) == 1

    def test_len_counts_disk_entries(self, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        store.put("stage", "d0", 1)
        store.put("other", "d1", 2)
        # A fresh instance over the same root sees both artifacts
        # without faulting anything into memory.
        fresh = ArtifactStore(tmp_path / "cache")
        assert len(fresh) == 2
        # Memory and disk twins of one key are counted once.
        fresh.get("stage", "d0")
        assert len(fresh) == 2
        # A memory-only store still counts its map.
        memory = ArtifactStore()
        memory.put("stage", "d0", 1)
        assert len(memory) == 1


class TestPrune:
    def _filled_store(self, tmp_path, n=4, size=2000):
        store = ArtifactStore(tmp_path / "cache")
        for i in range(n):
            store.put("stage", f"digest{i}", b"x" * size)
        return store

    def test_prune_evicts_oldest_first(self, tmp_path):
        import os
        import time

        store = self._filled_store(tmp_path)
        # Make mtimes strictly ordered regardless of filesystem precision.
        files = sorted((tmp_path / "cache" / "stage").glob("*.pkl"))
        now = time.time()
        for i in range(4):
            os.utime(tmp_path / "cache" / "stage" / f"digest{i}.pkl",
                     (now + i, now + i))
        total = sum(f.stat().st_size for f in files)
        one_file = total // 4
        report = store.prune(max_bytes=2 * one_file)
        assert report.removed_files == 2
        assert report.kept_files == 2
        # oldest digests evicted, newest kept — and dropped from memory too
        assert ("stage", "digest0") not in store
        assert ("stage", "digest3") in store
        from repro.pipeline.store import MISS

        assert store.get("stage", "digest0") is MISS
        assert store.get("stage", "digest3") == b"x" * 2000

    def test_prune_to_zero_clears_disk(self, tmp_path):
        store = self._filled_store(tmp_path)
        report = store.prune(max_bytes=0)
        assert report.kept_files == 0
        assert report.kept_bytes == 0
        assert not list((tmp_path / "cache").glob("*/*.pkl"))

    def test_prune_within_budget_is_noop(self, tmp_path):
        store = self._filled_store(tmp_path)
        report = store.prune(max_bytes=10**9)
        assert report.removed_files == 0
        assert report.freed_bytes == 0
        assert store.get("stage", "digest0") == b"x" * 2000

    def test_prune_requires_disk_store(self):
        with pytest.raises(ValueError):
            ArtifactStore().prune(max_bytes=100)
        with pytest.raises(ValueError):
            ArtifactStore("/tmp").prune(max_bytes=-1)

    def test_get_refreshes_mtime_for_lru(self, tmp_path):
        import os
        import time

        store = self._filled_store(tmp_path, n=2)
        old = time.time() - 1000
        for i in range(2):
            os.utime(tmp_path / "cache" / "stage" / f"digest{i}.pkl", (old, old))
        store.clear()  # force the next get to touch disk
        store.get("stage", "digest0")
        report = store.prune(max_bytes=2500)
        # digest0 was just used, so digest1 is the LRU victim
        assert report.removed_files == 1
        assert ("stage", "digest0") in store
        assert not (tmp_path / "cache" / "stage" / "digest1.pkl").exists()

    def test_report_to_dict(self, tmp_path):
        store = self._filled_store(tmp_path, n=1)
        report = store.prune(max_bytes=10**9)
        assert report.to_dict() == {
            "removed_files": 0,
            "freed_bytes": 0,
            "kept_files": 1,
            "kept_bytes": report.kept_bytes,
            "dry_run": False,
        }

    def test_dry_run_reports_without_deleting(self, tmp_path):
        store = self._filled_store(tmp_path, n=4)
        real_budget = 2 * (tmp_path / "cache" / "stage" / "digest0.pkl").stat().st_size
        preview = store.prune(max_bytes=real_budget, dry_run=True)
        assert preview.dry_run
        assert preview.removed_files == 2
        assert preview.freed_bytes > 0
        # Nothing touched: all four files and memory entries survive.
        assert len(list((tmp_path / "cache").glob("*/*.pkl"))) == 4
        assert all(("stage", f"digest{i}") in store for i in range(4))
        # The preview matches what a real pass then does.
        actual = store.prune(max_bytes=real_budget)
        assert (actual.removed_files, actual.freed_bytes) == (
            preview.removed_files,
            preview.freed_bytes,
        )
        assert not actual.dry_run


class TestConcurrentWriters:
    def test_put_treats_existing_fingerprint_as_hit(self, tmp_path):
        """Losing a write race must not rewrite the published file."""
        import os

        store = ArtifactStore(tmp_path / "cache")
        store.put("stage", "d0", b"first")
        path = tmp_path / "cache" / "stage" / "d0.pkl"
        before = path.stat()
        # A second writer (same content-addressed key) arrives late.
        other = ArtifactStore(tmp_path / "cache")
        other.put("stage", "d0", b"first")
        after = path.stat()
        assert after.st_size == before.st_size
        assert store.get("stage", "d0") == b"first"
        assert other.get("stage", "d0") == b"first"
        # The skip still refreshes the LRU rank of the file.
        old = before.st_mtime - 1000
        os.utime(path, (old, old))
        other.put("stage", "d0", b"first")
        assert path.stat().st_mtime > old

    def test_put_bytes_streams_to_disk_without_unpickling(self, tmp_path):
        import pickle

        store = ArtifactStore(tmp_path / "cache")
        blob = pickle.dumps({"weights": list(range(100))})
        store.put_bytes("stage", "d0", blob)
        # Bytes land verbatim on disk; nothing is pinned in memory.
        path = tmp_path / "cache" / "stage" / "d0.pkl"
        assert path.read_bytes() == blob
        assert not store._memory
        # The artifact loads lazily, and re-uploads are hits.
        assert store.get("stage", "d0") == {"weights": list(range(100))}
        before = path.stat().st_mtime_ns
        store.put_bytes("stage", "d0", blob)
        assert path.read_bytes() == blob
        assert path.stat().st_mtime_ns >= before

    def test_put_bytes_memory_store_falls_back_to_object(self):
        import pickle

        store = ArtifactStore()
        store.put_bytes("stage", "d0", pickle.dumps([1, 2, 3]))
        assert store.get("stage", "d0") == [1, 2, 3]

    def test_many_threads_racing_on_one_key(self, tmp_path):
        import threading

        store = ArtifactStore(tmp_path / "cache")
        payload = {"weights": list(range(500))}
        errors = []

        def writer():
            try:
                local = ArtifactStore(tmp_path / "cache")
                local.put("stage", "shared", payload)
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=writer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        # Exactly one published file, no leftover temp files, readable.
        stage_dir = tmp_path / "cache" / "stage"
        assert sorted(p.name for p in stage_dir.iterdir()) == ["shared.pkl"]
        fresh = ArtifactStore(tmp_path / "cache")
        assert fresh.get("stage", "shared") == payload


class TestThreadSafety:
    """One shared store under many threads — the coordinator's shape.

    ``ExperimentService`` dispatches worker requests on its event
    loop's thread pool, every thread mutating one store; the memory map
    and CacheStats counters must therefore be lock-protected
    read-modify-writes.
    """

    def test_concurrent_puts_and_gets_keep_stats_consistent(self):
        import threading

        store = ArtifactStore()
        n_threads, n_ops = 8, 200
        errors = []

        def hammer(worker_id):
            try:
                for i in range(n_ops):
                    store.put("stage", f"w{worker_id}-{i}", i)
                    assert store.get("stage", f"w{worker_id}-{i}") == i
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [
            threading.Thread(target=hammer, args=(w,)) for w in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        # Without the internal lock the += read-modify-writes lose
        # updates under contention and these exact totals fail.
        assert store.stats.puts == n_threads * n_ops
        assert store.stats.hits == n_threads * n_ops
        assert store.stats.misses == 0
        assert len(store) == n_threads * n_ops

    def test_concurrent_disk_backed_access(self, tmp_path):
        import threading

        store = ArtifactStore(tmp_path / "cache")
        for i in range(20):
            store.put("stage", f"d{i}", list(range(i)))
        store.clear()  # every get below faults in from disk
        errors = []

        def reader():
            try:
                for i in range(20):
                    assert store.get("stage", f"d{i}") == list(range(i))
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=reader) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert store.stats.hits == 6 * 20

    def test_store_pickles_without_its_lock(self, tmp_path):
        import pickle

        store = ArtifactStore(tmp_path / "cache")
        store.put("stage", "d0", {"x": 1})
        clone = pickle.loads(pickle.dumps(store))
        assert clone.get("stage", "d0") == {"x": 1}
        clone.put("stage", "d1", 2)  # the restored lock works

    def test_stats_view_shares_bytes_but_not_counters(self, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        store.put("stage", "d0", {"x": 1})
        view = store.stats_view()
        # Same artifacts, same lock, fresh counters.
        assert view._memory is store._memory
        assert view._lock is store._lock
        assert view.get("stage", "d0") == {"x": 1}
        assert view.stats.hits == 1
        assert store.stats.hits == 0  # untouched by the view's traffic
        assert view.get("stage", "gone") is MISS
        assert (view.stats.hits, view.stats.misses) == (1, 1)
        assert (store.stats.hits, store.stats.misses) == (0, 0)
        # Writes through the view land in the shared store.
        view.put("stage", "d1", 2)
        assert store.get("stage", "d1") == 2
