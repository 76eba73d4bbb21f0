"""Peer-to-peer artifact fabric + journal compaction tests.

The fabric contract: with peers enabled, artifact bytes flow
worker-to-worker (the coordinator serves metadata: lease ``sources``
hints and ``locate`` answers) and every failure mode — dead peer,
refused key, stale hint — falls back transparently to the hub, so
records stay value-identical to the serial Runner no matter which path
the bytes took.  With ``--no-peer-sync`` the PR 4/5 hub topology is
reproduced exactly.

The compaction contract: a compacted journal replays to the identical
plan state as the full transition log, at O(done jobs) size.
"""

import contextlib
import json
import pickle
import socket
import threading

import pytest

from repro import SparkXDConfig
from repro.analysis.export import records_equivalent
from repro.cluster import (
    ClusterClient,
    ClusterExecutor,
    ExperimentService,
    ProtocolError,
    SweepJournal,
    SweepPlan,
    local_worker_threads,
)
from repro.cluster.journal import JournalMismatch
from repro.cluster.protocol import (
    GZIP_MIN_BYTES,
    encode_blob,
    recv_message,
    send_message,
)
from repro.cluster.sync import ArtifactSync
from repro.cluster.worker import _PeerServer
from repro.pipeline import ArtifactStore, Runner, default_stages

TINY = SparkXDConfig.small(
    n_train=40,
    n_test=25,
    n_neurons=12,
    n_steps=30,
    baseline_epochs=1,
    ber_rates=(1e-5, 1e-3),
    accuracy_bound=0.5,
)
GRID = {"voltages": [(1.325,), (1.025,)]}


@pytest.fixture(scope="module")
def serial_sweep():
    """The serial reference: records plus the warmed store."""
    store = ArtifactStore()
    records = Runner(TINY, store=store).run(GRID)
    return records, store


def _dead_address() -> str:
    """A localhost ``host:port`` where nothing is listening."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    return f"127.0.0.1:{port}"


# ----------------------------------------------------------------------
class TestPeerServer:
    def test_peer_get_round_trip(self):
        store = ArtifactStore()
        store.put("stage", "digest", {"weights": [1.0, 2.0]})
        server = _PeerServer(store).start()
        try:
            client = ClusterClient(("127.0.0.1", server.port))
            reply, blob = client.request(
                {"op": "peer_get", "stage": "stage", "digest": "digest"}
            )
            assert reply["found"]
            assert pickle.loads(blob) == {"weights": [1.0, 2.0]}
            stats = server.transfer_stats()
            assert stats["served"] == 1
            assert stats["served_bytes"] == len(blob)
        finally:
            server.stop()

    def test_missing_key_is_refusal_not_error(self):
        server = _PeerServer(ArtifactStore()).start()
        try:
            client = ClusterClient(("127.0.0.1", server.port))
            reply, blob = client.request(
                {"op": "peer_get", "stage": "s", "digest": "gone"}
            )
            assert reply == {"found": False}
            assert blob is None
            assert server.transfer_stats()["served"] == 0
        finally:
            server.stop()

    def test_peer_has_filters(self):
        store = ArtifactStore()
        store.put("a", "1", "x")
        server = _PeerServer(store).start()
        try:
            client = ClusterClient(("127.0.0.1", server.port))
            reply, _ = client.request(
                {"op": "peer_has", "keys": [["a", "1"], ["b", "2"]]}
            )
            assert reply["present"] == [["a", "1"]]
        finally:
            server.stop()

    def test_unknown_op_is_error_reply(self):
        server = _PeerServer(ArtifactStore()).start()
        try:
            client = ClusterClient(("127.0.0.1", server.port))
            with pytest.raises(ProtocolError, match="unknown op"):
                client.request({"op": "lease"})
        finally:
            server.stop()

    def test_gzip_accept_shrinks_wire_bytes(self):
        store = ArtifactStore()
        store.put("s", "d", [0.0] * 4096)  # compressible, > GZIP_MIN_BYTES
        server = _PeerServer(store).start()
        try:
            client = ClusterClient(("127.0.0.1", server.port))
            reply, blob = client.request(
                {"op": "peer_get", "stage": "s", "digest": "d",
                 "accept": ["gzip"]}
            )
            assert pickle.loads(blob) == [0.0] * 4096
            # Decoded transparently; the wire size is surfaced and small.
            assert reply["blob_wire_bytes"] < len(blob)
            stats = server.transfer_stats()
            assert stats["served_wire_bytes"] == reply["blob_wire_bytes"]
            assert stats["served_bytes"] == len(blob)
        finally:
            server.stop()


# ----------------------------------------------------------------------
class TestPeerRouting:
    """The plan's holdings map as the fabric routing table (no sockets)."""

    def test_locate_answers_from_holdings(self):
        plan = SweepPlan(TINY, {}, ArtifactStore(), lease_timeout=10.0)
        plan.register_peer("w1", "10.0.0.1", 7001)
        plan.registry.set_holdings("w1", [["train-baseline", "abc"]])
        located = plan.locate([("train-baseline", "abc"), ("other", "zzz")])
        assert located == [["train-baseline", "abc", ["10.0.0.1:7001"]]]

    def test_locate_excludes_requester(self):
        plan = SweepPlan(TINY, {}, ArtifactStore(), lease_timeout=10.0)
        plan.register_peer("w1", "10.0.0.1", 7001)
        plan.registry.set_holdings("w1", [["a", "1"]])
        assert plan.locate([("a", "1")], exclude="w1") == []

    def test_locate_drops_dead_workers(self):
        clock = {"now": 0.0}
        plan = SweepPlan(
            TINY, {}, ArtifactStore(),
            lease_timeout=10.0, clock=lambda: clock["now"],
        )
        plan.register_peer("w1", "10.0.0.1", 7001)
        plan.registry.set_holdings("w1", [["a", "1"]])
        assert plan.locate([("a", "1")]) != []
        clock["now"] = 31.0  # past the 3x lease_timeout liveness window
        assert plan.locate([("a", "1")]) == []

    def test_unregistered_worker_never_listed(self):
        plan = SweepPlan(TINY, {}, ArtifactStore(), lease_timeout=10.0)
        plan.registry.set_holdings("w1", [["a", "1"]])  # no peer_port
        assert plan.locate([("a", "1")]) == []

    def test_peer_sync_disabled_answers_nothing(self):
        plan = SweepPlan(
            TINY, {}, ArtifactStore(), lease_timeout=10.0, peer_sync=False
        )
        plan.register_peer("w1", "10.0.0.1", 7001)
        plan.registry.set_holdings("w1", [["a", "1"]])
        assert plan.locate([("a", "1")]) == []

    def test_complete_folds_chain_into_holdings(self):
        plan = SweepPlan(TINY, {}, ArtifactStore(), lease_timeout=10.0)
        job = plan.lease("w1")
        plan.store.put(job.stage, job.digest, "artifact")
        assert plan.complete("w1", job.job_id)
        assert plan.worker_holding_count("w1") == len(job.upstream) + 1
        plan.register_peer("w1", "10.0.0.1", 7001)
        assert plan.locate([(job.stage, job.digest)]) == [
            [job.stage, job.digest, ["10.0.0.1:7001"]]
        ]


# ----------------------------------------------------------------------
def _hub(store=None):
    """A service with no tenants, as a pure artifact hub."""
    return ExperimentService(store if store is not None else ArtifactStore())


class TestSyncPeerFirst:
    def test_peer_preferred_over_hub(self):
        hub_store = ArtifactStore()
        hub_store.put("s", "d", "hub copy")
        peer_store = ArtifactStore()
        peer_store.put("s", "d", "hub copy")
        peer = _PeerServer(peer_store).start()
        with _hub(hub_store) as server:
            try:
                sync = ArtifactSync(
                    ClusterClient(server.worker_address),
                    ArtifactStore(),
                    sources=[["s", "d", [f"127.0.0.1:{peer.port}"]]],
                )
                assert sync.pull("s", "d")
                assert sync.pulled_bytes_peer > 0
                assert sync.pulled_bytes_hub == 0
                assert server.core.transfer_stats()["get_count"] == 0
            finally:
                peer.stop()

    def test_dead_peer_falls_back_to_hub(self):
        hub_store = ArtifactStore()
        hub_store.put("s", "d", "only the hub has it")
        dead = _dead_address()
        with _hub(hub_store) as server:
            sync = ArtifactSync(
                ClusterClient(server.worker_address),
                ArtifactStore(),
                sources=[["s", "d", [dead]]],
            )
            assert sync.pull("s", "d")
            assert sync.pulled_bytes_hub > 0
            assert sync.peer_fallbacks == 1
            # The address is dead for the whole session: a second pull
            # must not re-dial it.
            assert dead in sync._dead_peers

    def test_peer_dying_mid_transfer_falls_back(self):
        """A peer that truncates the blob mid-send is a fallback, not a
        job failure: the partial bytes never reach the store."""
        hub_store = ArtifactStore()
        hub_store.put("s", "d", "authoritative")
        ready = threading.Event()
        holder = {}

        def truncating_peer():
            listener = socket.socket()
            listener.bind(("127.0.0.1", 0))
            listener.listen(1)
            holder["port"] = listener.getsockname()[1]
            ready.set()
            conn, _ = listener.accept()
            with conn, listener:
                recv_message(conn.makefile("rb"))
                # Announce a big blob, send almost none of it, die.
                conn.sendall(b'{"found": true, "blob_bytes": 99999}\n')
                conn.sendall(b"x" * 16)

        thread = threading.Thread(target=truncating_peer, daemon=True)
        thread.start()
        assert ready.wait(5.0)
        with _hub(hub_store) as server:
            sync = ArtifactSync(
                ClusterClient(server.worker_address),
                ArtifactStore(),
                sources=[["s", "d", [f"127.0.0.1:{holder['port']}"]]],
            )
            assert sync.pull("s", "d")
        thread.join(timeout=5.0)
        assert sync.store.get("s", "d") == "authoritative"
        assert sync.pulled_bytes_peer == 0
        assert sync.peer_fallbacks == 1

    def test_peer_refusing_evicted_key_falls_back(self):
        hub_store = ArtifactStore()
        hub_store.put("s", "d", "evicted from the peer")
        peer = _PeerServer(ArtifactStore()).start()  # holds nothing
        address = f"127.0.0.1:{peer.port}"
        with _hub(hub_store) as server:
            try:
                sync = ArtifactSync(
                    ClusterClient(server.worker_address),
                    ArtifactStore(),
                    sources=[["s", "d", [address]]],
                )
                assert sync.pull("s", "d")
                assert sync.pulled_bytes_hub > 0
                # A refusal is not a death sentence: the peer stays
                # dialable for other keys.
                assert address not in sync._dead_peers
                assert sync.peer_has(address, [("s", "d")]) == []
            finally:
                peer.stop()

    def test_peer_sync_disabled_ignores_sources(self):
        hub_store = ArtifactStore()
        hub_store.put("s", "d", "hub")
        with _hub(hub_store) as server:
            sync = ArtifactSync(
                ClusterClient(server.worker_address),
                ArtifactStore(),
                peer_sync=False,
                sources=[["s", "d", [_dead_address()]]],
            )
            assert sync.pull("s", "d")
            assert sync.pulled_bytes_hub > 0
            assert sync.peer_fallbacks == 0  # never even considered


class _FlakyClient:
    """Duck-typed ClusterClient: fails N times, then succeeds."""

    def __init__(self, failures, error=OSError("connection reset")):
        self.failures = failures
        self.error = error
        self.calls = 0

    def request(self, payload, blob=None, check=True, encoding=None):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.error
        return {"ok": True, "found": False, "present": []}, None


class TestRetryBackoff:
    def test_transient_errors_are_retried(self):
        client = _FlakyClient(failures=2)
        sync = ArtifactSync(client, ArtifactStore(), backoff_s=0.001)
        assert sync.remote_has([("s", "d")]) == []
        assert client.calls == 3
        assert sync.retries == 2

    def test_attempts_are_bounded(self):
        client = _FlakyClient(failures=99)
        sync = ArtifactSync(
            client, ArtifactStore(), max_attempts=3, backoff_s=0.001
        )
        with pytest.raises(OSError):
            sync.remote_has([("s", "d")])
        assert client.calls == 3

    def test_error_replies_are_not_retried(self):
        # A deterministic error reply must surface immediately —
        # retrying it would just repeat the same answer N times.
        client = _FlakyClient(failures=99, error=ProtocolError("bad request"))
        sync = ArtifactSync(client, ArtifactStore(), backoff_s=0.001)
        with pytest.raises(ProtocolError):
            sync.remote_has([("s", "d")])
        assert client.calls == 1
        assert sync.retries == 0


# ----------------------------------------------------------------------
class TestGzipWire:
    def test_small_blobs_stay_raw(self):
        blob = b"tiny"
        assert encode_blob(blob, ["gzip"]) == (blob, None)

    def test_unaccepted_blobs_stay_raw(self):
        blob = b"\x00" * (GZIP_MIN_BYTES * 2)
        assert encode_blob(blob, []) == (blob, None)

    def test_compressible_blob_shrinks(self):
        blob = b"\x00" * (GZIP_MIN_BYTES * 2)
        wire, encoding = encode_blob(blob, ["gzip"])
        assert encoding == "gzip"
        assert len(wire) < len(blob)

    def test_round_trip_decodes_transparently(self):
        import io

        blob = b"\x01\x02" * GZIP_MIN_BYTES
        wire, encoding = encode_blob(blob, ["gzip"])
        buffer = io.BytesIO()
        send_message(buffer, {"op": "put"}, wire, encoding=encoding)
        buffer.seek(0)
        payload, decoded = recv_message(buffer)
        assert decoded == blob
        assert payload["blob_wire_bytes"] == len(wire)

    def test_corrupt_gzip_is_protocol_error(self):
        import io

        buffer = io.BytesIO()
        send_message(
            buffer, {"op": "put"}, b"not gzip at all", encoding="gzip"
        )
        buffer.seek(0)
        with pytest.raises(ProtocolError, match="corrupt gzip"):
            recv_message(buffer)

    def test_unknown_encoding_is_protocol_error(self):
        import io

        buffer = io.BytesIO()
        send_message(buffer, {"op": "put"}, b"payload", encoding="zstd")
        buffer.seek(0)
        with pytest.raises(ProtocolError, match="unknown blob encoding"):
            recv_message(buffer)

    def test_push_compresses_only_with_hub_capability(self):
        artifact = [0.0] * 8192
        for caps, expect_compressed in ((), False), (("gzip",), True):
            local = ArtifactStore()
            local.put("s", "d", artifact)
            hub_store = ArtifactStore()
            with _hub(hub_store) as server:
                sync = ArtifactSync(
                    ClusterClient(server.worker_address),
                    local,
                    hub_caps=caps,
                )
                assert sync.push("s", "d")
                if expect_compressed:
                    assert sync.pushed_wire_bytes < sync.pushed_bytes
                else:
                    assert sync.pushed_wire_bytes == sync.pushed_bytes
                # The hub decoded transparently: value-identical bytes.
                assert hub_store.get("s", "d") == artifact


# ----------------------------------------------------------------------
class TestTelemetryWireCompat:
    """The optional ``telemetry``/``trace`` fields degrade exactly like
    the gzip caps handshake: either side may predate them and the
    protocol still interoperates (``.get()`` on receive, unknown keys
    ignored on reply)."""

    @staticmethod
    def _core(trace_context=None):
        """The dispatch core of a service with one tenant (no sockets)."""
        service = ExperimentService(lease_timeout=10.0)
        service.submit(TINY, GRID, trace_context=trace_context)
        return service.core

    def test_old_worker_without_telemetry_field_interoperates(self):
        core = self._core()
        reply, _, _ = core.dispatch({"op": "hello", "worker": "old"}, None)
        assert reply["ok"] and "caps" in reply
        reply, _, _ = core.dispatch({"op": "lease", "worker": "old"}, None)
        assert "job" in reply
        # No sweep span installed on this tenant: no trace key, so a
        # pre-telemetry worker never sees the field at all.
        assert "trace" not in reply
        job_id = reply["job"]["job_id"]
        # An old worker echoes no sweep_id: the report routes by job id.
        reply, _, _ = core.dispatch(
            {"op": "heartbeat", "worker": "old", "job_id": job_id}, None
        )
        assert reply["ok"]
        status = core.status_view()
        # The worker is live yet absent from the telemetry view —
        # it simply never reported a snapshot.
        assert "old" in status["workers"]
        assert "old" not in status["telemetry"]["workers"]

    def test_worker_snapshots_aggregate_latest_wins(self):
        core = self._core()
        snap = {"metrics": {"counters": {"compat.test.jobs": 1}},
                "open_spans": [{"name": "cluster.job", "age_s": 0.5}]}
        core.dispatch({"op": "hello", "worker": "w1", "telemetry": snap}, None)
        later = {"metrics": {"counters": {"compat.test.jobs": 3}},
                 "open_spans": []}
        core.dispatch({"op": "lease", "worker": "w1", "telemetry": later}, None)
        status = core.status_view()
        view = status["telemetry"]
        # Snapshots are cumulative: the latest replaces, never adds.
        assert (
            view["workers"]["w1"]["metrics"]["counters"]["compat.test.jobs"]
            == 3
        )
        assert view["fleet"]["counters"]["compat.test.jobs"] == 3

    def test_malformed_telemetry_field_is_ignored(self):
        core = self._core()
        reply, _, _ = core.dispatch(
            {"op": "hello", "worker": "odd", "telemetry": "garbage"}, None
        )
        assert reply["ok"]
        status = core.status_view()
        assert "odd" not in status["telemetry"]["workers"]

    def test_lease_carries_trace_only_when_context_set(self):
        context = {"trace_id": "t" * 16, "span_id": "s" * 16}
        reply, _, _ = self._core(trace_context=context).dispatch(
            {"op": "lease", "worker": "w"}, None
        )
        assert reply["trace"] == context

    def test_new_worker_against_old_style_replies(self):
        """A telemetry-aware worker adopts ``None`` trace context (old
        coordinators send no ``trace`` key) without starting a trace."""
        from repro.telemetry import adopt_context, current_context, span

        with adopt_context(None):
            assert current_context() is None
            with span("cluster.job"):  # tracing off: shared no-op
                pass
        assert current_context() is None


# ----------------------------------------------------------------------
class TestJournalCompaction:
    def _chattery_journal(self, path):
        journal = SweepJournal(path)
        journal.append({"event": "plan", "plan_id": "p1", "jobs": 2})
        for i in range(20):
            journal.append({"event": "lease", "job": "a:1", "worker": f"w{i}"})
            journal.append({"event": "requeue", "job": "a:1", "worker": f"w{i}"})
        journal.append({
            "event": "done", "job": "a:1", "stage": "a", "digest": "1",
            "worker": "w9", "stats": {"wall_s": 1.0},
        })
        journal.append({
            "event": "done", "job": "b:2", "stage": "b", "digest": "2",
            "worker": "w3", "stats": {},
        })
        return journal

    def test_compact_folds_to_header_plus_snapshot(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = self._chattery_journal(path)
        before = journal.done_events(plan_id="p1")
        summary = journal.compact()
        journal.close()
        assert summary["events_before"] == 43
        assert summary["events_after"] == 2
        assert summary["done"] == 2
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2  # O(done), not O(transitions)
        assert json.loads(lines[0])["event"] == "plan"
        assert json.loads(lines[1])["event"] == "snapshot"
        with SweepJournal(path, resume=True) as reopened:
            after = reopened.done_events(plan_id="p1")
        assert set(after) == set(before)
        assert after[("a", "1")]["worker"] == "w9"
        assert after[("a", "1")]["stats"] == {"wall_s": 1.0}

    def test_compaction_is_idempotent_and_appendable(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = self._chattery_journal(path)
        journal.compact()
        journal.compact()  # folding a snapshot is a no-op fold
        journal.append({
            "event": "done", "job": "c:3", "stage": "c", "digest": "3",
            "worker": "w1", "stats": {},
        })
        journal.close()
        with SweepJournal(path, resume=True) as reopened:
            done = reopened.done_events(plan_id="p1")
        assert set(done) == {("a", "1"), ("b", "2"), ("c", "3")}

    def test_snapshot_plan_id_mismatch_raises(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = self._chattery_journal(path)
        journal.compact()
        journal.close()
        with SweepJournal(path, resume=True) as reopened:
            with pytest.raises(JournalMismatch):
                reopened.done_events(plan_id="some-other-sweep")

    def test_compact_every_bounds_the_file(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = SweepJournal(path, compact_every=10)
        journal.append({"event": "plan", "plan_id": "p1"})
        for i in range(100):
            journal.append({"event": "lease", "job": "a:1", "worker": "w"})
        journal.close()
        lines = path.read_text().strip().splitlines()
        # Never more than compact_every lines past the snapshot floor.
        assert len(lines) <= 12

    def test_plan_resumes_identically_from_compacted_journal(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        store = ArtifactStore()
        with SweepJournal(path) as journal:
            plan = SweepPlan(
                TINY, GRID, store, lease_timeout=10.0, journal=journal
            )
            # Some requeue chatter plus two real completions.
            job = plan.lease("w1")
            plan.fail("w1", job.job_id, "induced")
            for _ in range(2):
                job = plan.lease("w1")
                store.put(job.stage, job.digest, f"artifact-{job.job_id}")
                assert plan.complete("w1", job.job_id)
            reference = plan.counts()
            done_ids = {
                j.job_id for j in plan.jobs.values() if j.state == "done"
            }
        with SweepJournal(path, resume=True) as journal:
            assert journal.compact()["events_after"] == 2
        with SweepJournal(path, resume=True) as journal:
            resumed = SweepPlan(
                TINY, GRID, store, lease_timeout=10.0, journal=journal
            )
            assert resumed.replayed_done == len(done_ids)
            counts = resumed.counts()
            assert counts["done"] == reference["done"]
            assert counts["pending"] == reference["pending"] + reference["leased"]
            assert {
                j.job_id for j in resumed.jobs.values() if j.state == "done"
            } == done_ids
            # Worker attribution and stats survive the fold.
            for job_id in done_ids:
                assert resumed.jobs[job_id].worker == "w1"

    def test_offline_cli_compact(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "journal.jsonl"
        journal = self._chattery_journal(path)
        journal.close()
        exit_code = main([
            "cluster", "journal", "compact", str(path), "--json"
        ])
        summary = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert summary["events_before"] == 43
        assert summary["events_after"] == 2
        with SweepJournal(path, resume=True) as reopened:
            assert set(reopened.done_events(plan_id="p1")) == {
                ("a", "1"), ("b", "2"),
            }

    def test_offline_cli_compact_missing_file(self, tmp_path, capsys):
        from repro.cli import main

        exit_code = main([
            "cluster", "journal", "compact", str(tmp_path / "nope.jsonl")
        ])
        assert exit_code == 1


# ----------------------------------------------------------------------
class TestPeerFabricE2E:
    def test_two_workers_empty_store_zero_hub_gets(self, serial_sweep):
        """The acceptance benchmark in miniature: an empty coordinator
        store and two workers — every artifact is computed by a live
        peer, so every pull is peer-served and the hub serves zero
        ``get`` bytes."""
        serial_records, _ = serial_sweep
        executor = ClusterExecutor(
            TINY,
            store=ArtifactStore(),
            lease_timeout=10.0,
            poll_s=0.05,
            wait_timeout=300.0,
        )
        agents = []
        with contextlib.ExitStack() as stack:
            records = executor.run(
                GRID,
                on_ready=lambda address: agents.extend(
                    stack.enter_context(
                        local_worker_threads(address, 2, max_idle_s=60.0)
                    )
                ),
            )
        assert records_equivalent(serial_records, records)
        transfers = executor.last_transfer_stats
        assert transfers["get_count"] == 0
        assert transfers["get_bytes"] == 0
        assert sum(a.stats.bytes_pulled_hub for a in agents) == 0
        # Completions (not pushes) keep the routing table fresh enough
        # that workers never needed a full holdings re-report; any
        # cross-worker pull was peer-served.
        pulled = sum(a.stats.bytes_pulled for a in agents)
        assert pulled == sum(a.stats.bytes_pulled_peer for a in agents)

    def test_no_peer_sync_reproduces_hub_topology(self, serial_sweep):
        """--no-peer-sync parity: same records, every byte via the hub."""
        serial_records, _ = serial_sweep
        executor = ClusterExecutor(
            TINY,
            store=ArtifactStore(),
            lease_timeout=10.0,
            poll_s=0.05,
            wait_timeout=300.0,
            peer_sync=False,
        )
        agents = []
        with contextlib.ExitStack() as stack:
            records = executor.run(
                GRID,
                on_ready=lambda address: agents.extend(
                    stack.enter_context(
                        local_worker_threads(
                            address, 2, max_idle_s=60.0, peer=False
                        )
                    )
                ),
            )
        assert records_equivalent(serial_records, records)
        assert sum(a.stats.bytes_pulled_peer for a in agents) == 0
        assert sum(a.stats.peer_served for a in agents) == 0
        # Whatever was pulled came from the hub, byte for byte.
        transfers = executor.last_transfer_stats
        assert transfers["get_bytes"] == sum(
            a.stats.bytes_pulled for a in agents
        )
