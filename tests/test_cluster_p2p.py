"""Peer-to-peer artifact fabric tests.

The fabric contract: artifact bytes flow worker-to-worker (the
coordinator serves metadata: lease ``sources`` hints from its routing
table), a chain only the hub holds is pulled from the hub, and every
failure mode — dead peer, refused key, stale hint — falls back
transparently to the hub, so records stay value-identical to the
serial Runner no matter which path the bytes took.
"""

import contextlib
import pickle
import socket
import threading

import pytest
from cluster_threads import local_worker_threads

from repro import SparkXDConfig
from repro.analysis.export import records_equivalent
from repro.cluster import (
    ClusterExecutor,
    ExperimentService,
    ServiceClient,
    ServiceError,
    SweepPlan,
    WorkerAgent,
)
from repro.cluster.http_api import ArtifactEndpoint, HttpEndpoint
from repro.cluster.protocol import GZIP_MIN_BYTES, encode_blob
from repro.cluster.sync import ArtifactSync
from repro.cluster.worker import _peer_bind_host
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


def _peer(store):
    """A worker's peer endpoint over ``store``: downloads only."""
    return HttpEndpoint(ArtifactEndpoint(store)).start()


def _fake_peer(reply_head: bytes, body: bytes):
    """A one-shot peer that answers any request with raw bytes, then
    closes; returns ``(address, thread)``."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)

    def serve():
        conn, _ = listener.accept()
        with conn, listener:
            conn.recv(65536)
            conn.sendall(reply_head + body)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return f"127.0.0.1:{listener.getsockname()[1]}", thread


# ----------------------------------------------------------------------
class TestPeerServer:
    def test_peer_get_round_trip(self):
        store = ArtifactStore()
        store.put("stage", "digest", {"weights": [1.0, 2.0]})
        server = _peer(store)
        try:
            reply = ServiceClient(server.address).http_request(
                "GET", "/artifacts/stage/digest"
            )
            assert pickle.loads(reply["blob"]) == {"weights": [1.0, 2.0]}
            stats = server.artifacts.transfer_stats()
            assert stats["get_count"] == 1
            assert stats["get_bytes"] == len(reply["blob"])
        finally:
            server.stop()

    def test_missing_key_is_refusal_not_error(self):
        server = _peer(ArtifactStore())
        try:
            with pytest.raises(ServiceError) as excinfo:
                ServiceClient(server.address).http_request(
                    "GET", "/artifacts/s/gone"
                )
            assert excinfo.value.status == 404
            assert excinfo.value.payload["found"] is False
            assert server.artifacts.transfer_stats()["get_count"] == 0
        finally:
            server.stop()

    def test_unknown_op_is_error_reply(self):
        """A peer serves the download route only: every other route,
        uploads included, is a 404 there."""
        server = _peer(ArtifactStore())
        try:
            client = ServiceClient(server.address)
            for method, path in (
                ("POST", "/worker/lease"),
                ("PUT", "/artifacts/s/d"),
                ("GET", "/fleet"),
            ):
                with pytest.raises(ServiceError, match="no route") as excinfo:
                    client.http_request(method, path, {})
                assert excinfo.value.status == 404
            assert ("s", "d") not in server.artifacts.store
        finally:
            server.stop()

    def test_gzip_accept_shrinks_wire_bytes(self):
        store = ArtifactStore()
        store.put("s", "d", [0.0] * 4096)  # compressible, > GZIP_MIN_BYTES
        server = _peer(store)
        try:
            reply = ServiceClient(server.address).http_request(
                "GET", "/artifacts/s/d"
            )
            blob = reply["blob"]
            assert pickle.loads(blob) == [0.0] * 4096
            # Decoded transparently; the wire size is surfaced and small.
            assert reply["wire_bytes"] < len(blob)
            stats = server.artifacts.transfer_stats()
            assert stats["get_wire_bytes"] == reply["wire_bytes"]
            assert stats["get_bytes"] == len(blob)
        finally:
            server.stop()


# ----------------------------------------------------------------------
class TestPeerRouting:
    """The plan's holdings map as the fabric routing table (no sockets)."""

    def test_locate_answers_from_holdings(self):
        plan = SweepPlan(TINY, {}, ArtifactStore(), lease_timeout=10.0)
        plan.registry.register_peer("w1", "10.0.0.1", 7001)
        plan.registry.set_holdings("w1", [["train-baseline", "abc"]])
        located = plan.registry.locate([("train-baseline", "abc"), ("other", "zzz")])
        assert located == [["train-baseline", "abc", ["10.0.0.1:7001"]]]

    def test_locate_excludes_requester(self):
        plan = SweepPlan(TINY, {}, ArtifactStore(), lease_timeout=10.0)
        plan.registry.register_peer("w1", "10.0.0.1", 7001)
        plan.registry.set_holdings("w1", [["a", "1"]])
        assert plan.registry.locate([("a", "1")], exclude="w1") == []

    def test_locate_drops_dead_workers(self):
        clock = {"now": 0.0}
        plan = SweepPlan(
            TINY, {}, ArtifactStore(),
            lease_timeout=10.0, clock=lambda: clock["now"],
        )
        plan.registry.register_peer("w1", "10.0.0.1", 7001)
        plan.registry.set_holdings("w1", [["a", "1"]])
        assert plan.registry.locate([("a", "1")]) != []
        clock["now"] = 31.0  # past the 3x lease_timeout liveness window
        assert plan.registry.locate([("a", "1")]) == []

    def test_unregistered_worker_never_listed(self):
        plan = SweepPlan(TINY, {}, ArtifactStore(), lease_timeout=10.0)
        plan.registry.set_holdings("w1", [["a", "1"]])  # no peer_port
        assert plan.registry.locate([("a", "1")]) == []

    def test_complete_folds_chain_into_holdings(self):
        plan = SweepPlan(TINY, {}, ArtifactStore(), lease_timeout=10.0)
        job = plan.lease("w1")
        plan.store.put(job.stage, job.digest, "artifact")
        assert plan.complete("w1", job.job_id)
        assert plan.registry.holding_count("w1") == len(job.upstream) + 1
        plan.registry.register_peer("w1", "10.0.0.1", 7001)
        assert plan.registry.locate([(job.stage, job.digest)]) == [
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
        peer = _peer(peer_store)
        with _hub(hub_store) as server:
            try:
                sync = ArtifactSync(
                    ServiceClient(server.address),
                    ArtifactStore(),
                    sources=[["s", "d", [f"127.0.0.1:{peer.address[1]}"]]],
                )
                assert sync.pull("s", "d")
                assert sync.pulled_bytes_peer > 0
                assert sync.pulled_bytes_hub == 0
                assert server.artifacts.transfer_stats()["get_count"] == 0
            finally:
                peer.stop()

    def test_dead_peer_falls_back_to_hub(self):
        hub_store = ArtifactStore()
        hub_store.put("s", "d", "only the hub has it")
        dead = _dead_address()
        with _hub(hub_store) as server:
            sync = ArtifactSync(
                ServiceClient(server.address),
                ArtifactStore(),
                sources=[["s", "d", [dead]]],
            )
            assert sync.pull("s", "d")
            assert sync.pulled_bytes_hub > 0
            assert sync.peer_fallbacks == 1
            # The address is dead for the whole session: a second pull
            # must not re-dial it.
            assert dead in sync.dead_peers

    def test_peer_dying_mid_transfer_falls_back(self):
        """A peer that announces a Content-Length it never sends is a
        fallback, not a job failure: the partial bytes never reach the
        store."""
        hub_store = ArtifactStore()
        hub_store.put("s", "d", "authoritative")
        address, thread = _fake_peer(
            b"HTTP/1.0 200 OK\r\nContent-Type: application/octet-stream\r\n"
            b"Content-Length: 99999\r\n\r\n",
            b"x" * 16,
        )
        with _hub(hub_store) as server:
            sync = ArtifactSync(
                ServiceClient(server.address),
                ArtifactStore(),
                sources=[["s", "d", [address]]],
            )
            assert sync.pull("s", "d")
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert sync.store.get("s", "d") == "authoritative"
        assert sync.pulled_bytes_peer == 0
        assert sync.peer_fallbacks == 1
        assert address in sync.dead_peers

    def test_peer_corrupt_gzip_falls_back(self):
        """A peer reply announcing gzip but carrying garbage is a
        fallback to the hub, not a job failure."""
        hub_store = ArtifactStore()
        hub_store.put("s", "d", "authoritative")
        garbage = b"not gzip at all"
        address, thread = _fake_peer(
            b"HTTP/1.0 200 OK\r\nContent-Type: application/octet-stream\r\n"
            b"Content-Encoding: gzip\r\n"
            + f"Content-Length: {len(garbage)}\r\n\r\n".encode("ascii"),
            garbage,
        )
        with _hub(hub_store) as server:
            sync = ArtifactSync(
                ServiceClient(server.address),
                ArtifactStore(),
                sources=[["s", "d", [address]]],
            )
            assert sync.pull("s", "d")
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert sync.store.get("s", "d") == "authoritative"
        assert sync.pulled_bytes_hub > 0
        assert sync.peer_fallbacks == 1

    def test_peer_refusing_evicted_key_falls_back(self):
        hub_store = ArtifactStore()
        hub_store.put("s", "d", "evicted from the peer")
        peer_store = ArtifactStore()
        peer_store.put("s", "other", "still held")
        peer = _peer(peer_store)  # does not hold ("s", "d")
        address = f"127.0.0.1:{peer.address[1]}"
        with _hub(hub_store) as server:
            try:
                sync = ArtifactSync(
                    ServiceClient(server.address),
                    ArtifactStore(),
                    sources=[["s", "d", [address]]],
                )
                assert sync.pull("s", "d")
                assert sync.pulled_bytes_hub > 0
                # A refusal is not a death sentence: the peer stays
                # dialable for other keys.
                assert address not in sync.dead_peers
                sync.update_sources([["s", "other", [address]]])
                assert sync.pull("s", "other")
                assert sync.pulled_bytes_peer > 0
            finally:
                peer.stop()


class _FlakyClient:
    """Duck-typed ServiceClient: fails N times, then succeeds."""

    token = None

    def __init__(self, failures, error=OSError("connection reset")):
        self.failures = failures
        self.error = error
        self.calls = 0

    def http_request(self, method, path, payload=None, **kwargs):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.error
        return {"ok": True, "present": []}


class TestRetryBackoff:
    @pytest.fixture(autouse=True)
    def short_backoff(self, monkeypatch):
        monkeypatch.setattr("repro.cluster.sync.DEFAULT_BACKOFF_S", 0.001)

    def test_transient_errors_are_retried(self):
        client = _FlakyClient(failures=2)
        sync = ArtifactSync(client, ArtifactStore())
        assert sync.remote_has([("s", "d")]) == []
        assert client.calls == 3
        assert sync.retries == 2

    def test_attempts_are_bounded(self):
        client = _FlakyClient(failures=99)
        sync = ArtifactSync(client, ArtifactStore())
        with pytest.raises(OSError):
            sync.remote_has([("s", "d")])
        assert client.calls == 3

    def test_error_replies_are_not_retried(self):
        # A deterministic error reply must surface immediately —
        # retrying it would just repeat the same answer N times.
        client = _FlakyClient(failures=99, error=ServiceError(400, "bad request"))
        sync = ArtifactSync(client, ArtifactStore())
        with pytest.raises(ServiceError):
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
        """A gzip upload lands decoded; the download comes back gzip on
        the wire and decoded to the identical bytes."""
        blob = pickle.dumps([0.0] * 8192, protocol=pickle.HIGHEST_PROTOCOL)
        wire, encoding = encode_blob(blob, ["gzip"])
        assert encoding == "gzip"
        hub_store = ArtifactStore()
        with _hub(hub_store) as server:
            client = ServiceClient(server.address)
            client.http_request(
                "PUT", "/artifacts/s/d", blob=wire, encoding=encoding
            )
            assert hub_store.get("s", "d") == [0.0] * 8192
            reply = client.http_request("GET", "/artifacts/s/d")
        assert reply["blob"] == blob
        assert reply["wire_bytes"] < len(blob)

    def test_corrupt_gzip_is_protocol_error(self):
        hub_store = ArtifactStore()
        with _hub(hub_store) as server:
            with pytest.raises(ServiceError, match="corrupt gzip") as excinfo:
                ServiceClient(server.address).http_request(
                    "PUT", "/artifacts/s/d", blob=b"not gzip at all",
                    encoding="gzip",
                )
        assert excinfo.value.status == 400
        assert ("s", "d") not in hub_store

    def test_unknown_encoding_is_protocol_error(self):
        hub_store = ArtifactStore()
        with _hub(hub_store) as server:
            with pytest.raises(ServiceError, match="Content-Encoding") as excinfo:
                ServiceClient(server.address).http_request(
                    "PUT", "/artifacts/s/d", blob=b"payload", encoding="zstd"
                )
        assert excinfo.value.status == 400
        assert ("s", "d") not in hub_store

    def test_push_never_sends_an_encoding_that_grew(self):
        """Pushes gzip what shrinks and send the rest raw; the hub
        decodes either to value-identical artifacts."""
        import numpy as np

        compressible = [0.0] * 8192
        noise = np.random.default_rng(0).bytes(64 * 1024)
        for artifact, expect_compressed in ((compressible, True), (noise, False)):
            local = ArtifactStore()
            local.put("s", "d", artifact)
            hub_store = ArtifactStore()
            with _hub(hub_store) as server:
                sync = ArtifactSync(ServiceClient(server.address), local)
                assert sync.push("s", "d")
            if expect_compressed:
                assert sync.pushed_wire_bytes < sync.pushed_bytes
            else:
                assert sync.pushed_wire_bytes == sync.pushed_bytes
            assert hub_store.get("s", "d") == artifact


# ----------------------------------------------------------------------
class TestTelemetryWireCompat:
    """The optional ``telemetry`` field of worker requests and the
    ``trace`` field of lease grants: a worker that sends no snapshot
    simply does not appear in the telemetry view."""

    @staticmethod
    @contextlib.contextmanager
    def _service(trace_context=None):
        """A live service with one tenant submitted under
        ``trace_context``, and a client for it."""
        from repro.telemetry import adopt_context

        with ExperimentService(lease_timeout=10.0) as service:
            with adopt_context(trace_context):
                service.submit(TINY, GRID)
            yield service, ServiceClient(service.address)

    def test_old_worker_without_telemetry_field_interoperates(self):
        with self._service() as (service, client):
            reply = client.http_request(
                "POST", "/worker/hello", {"worker": "plain"}
            )
            assert reply["ok"]
            reply = client.http_request(
                "POST", "/worker/lease", {"worker": "plain"}
            )
            assert "job" in reply
            # No sweep span installed on this tenant: no trace key.
            assert "trace" not in reply
            reply = client.http_request("POST", "/worker/heartbeat", {
                "worker": "plain", "sweep_id": reply["sweep_id"],
                "job_id": reply["job"]["job_id"],
            })
            assert reply["ok"]
            status = service.fleet()
        # The worker is live yet absent from the telemetry view — it
        # simply never reported a snapshot.
        assert "plain" in status["workers"]
        assert "plain" not in status["telemetry"]["workers"]

    def test_worker_snapshots_aggregate_latest_wins(self):
        snap = {"metrics": {"counters": {"compat.test.jobs": 1}},
                "open_spans": [{"name": "cluster.job", "age_s": 0.5}]}
        later = {"metrics": {"counters": {"compat.test.jobs": 3}},
                 "open_spans": []}
        with self._service() as (service, client):
            client.http_request(
                "POST", "/worker/hello", {"worker": "w1", "telemetry": snap}
            )
            client.http_request(
                "POST", "/worker/lease", {"worker": "w1", "telemetry": later}
            )
            view = service.fleet()["telemetry"]
        # Snapshots are cumulative: the latest replaces, never adds.
        assert (
            view["workers"]["w1"]["metrics"]["counters"]["compat.test.jobs"]
            == 3
        )
        assert view["fleet"]["counters"]["compat.test.jobs"] == 3

    def test_malformed_telemetry_field_is_ignored(self):
        with self._service() as (service, client):
            reply = client.http_request(
                "POST", "/worker/hello", {"worker": "odd", "telemetry": "garbage"}
            )
            assert reply["ok"]
            status = service.fleet()
        assert "odd" not in status["telemetry"]["workers"]

    def test_lease_carries_trace_only_when_context_set(self):
        context = {"trace_id": "t" * 16, "span_id": "s" * 16}
        with self._service(trace_context=context) as (_, client):
            reply = client.http_request("POST", "/worker/lease", {"worker": "w"})
        assert reply["trace"] == context

    def test_new_worker_against_old_style_replies(self):
        """A telemetry-aware worker adopts ``None`` trace context (a
        grant without a ``trace`` key) without starting a trace."""
        from repro.telemetry import adopt_context, current_context, span

        with adopt_context(None):
            assert current_context() is None
            with span("cluster.job"):  # tracing off: shared no-op
                pass
        assert current_context() is None


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
            wait_timeout=300.0,
        )
        agents = []
        with contextlib.ExitStack() as stack:
            records = executor.run(
                GRID,
                on_ready=lambda address: agents.extend(
                    stack.enter_context(
                        local_worker_threads(
                            address, 2, max_idle_s=60.0, token=executor.token
                        )
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

    def test_downstream_job_pulls_its_chain_from_a_peer(self, serial_sweep, monkeypatch):
        """The peer path, deterministically: a live peer endpoint holds
        a chain's upstream artifacts (so does the hub) and is registered
        with its holdings; a fresh worker leasing the downstream job is
        pointed at the peer by its grant and pulls every byte from it —
        none from the hub."""
        monkeypatch.setattr("repro.cluster.worker.RETRY_S", 0.05)
        serial_records, serial_store = serial_sweep
        grid = {"voltages": [(1.325,)]}
        keys = [(stage.name, stage.cache_key(TINY)) for stage in default_stages()[:-1]]
        hub_store, peer_store = ArtifactStore(), ArtifactStore()
        for key in keys:
            hub_store.put(*key, serial_store.get(*key))
            peer_store.put(*key, serial_store.get(*key))
        peer = _peer(peer_store)
        peer_address = f"127.0.0.1:{peer.address[1]}"
        grants = []

        class RecordingAgent(WorkerAgent):
            def _execute(self, job, sources, trace, sweep_id):
                grants.append(sources)
                super()._execute(job, sources=sources, trace=trace, sweep_id=sweep_id)

        try:
            with ExperimentService(
                hub_store, lease_timeout=10.0, poll_s=0.05
            ) as service:
                managed = service.submit(TINY, grid)
                (job,) = managed.plan.jobs.values()
                assert job.stage == "dram-eval"
                service.registry.register_peer(
                    "seeded-peer", "127.0.0.1", peer.address[1]
                )
                service.registry.set_holdings("seeded-peer", keys)
                agent = RecordingAgent(
                    service.address, name="fresh", max_jobs=1,
                    max_idle_s=10.0,
                )
                assert agent.run_forever().jobs_done == 1
                hub = service.artifacts.transfer_stats()
                records = service.results(managed.sweep_id)
        finally:
            peer.stop()
        assert grants == [[[stage, digest, [peer_address]] for stage, digest in keys]]
        assert job.stats["pulled_bytes_peer"] > 0
        assert job.stats["pulled_bytes_hub"] == 0
        assert hub["get_count"] == 0
        assert peer.artifacts.transfer_stats()["get_count"] == len(keys)
        assert records_equivalent(serial_records[:1], records)

    def test_dead_peer_is_dialled_once_per_agent(self, serial_sweep, monkeypatch):
        """Two jobs on one agent whose grants name the same unreachable
        peer dial it once: the agent, not each job, remembers it dead.
        Each job pulls its chain afresh (a forgetful local store) and
        the hub serves every byte."""
        monkeypatch.setattr("repro.cluster.worker.RETRY_S", 0.05)
        serial_records, serial_store = serial_sweep
        keys = [(stage.name, stage.cache_key(TINY)) for stage in default_stages()[:-1]]
        hub_store = ArtifactStore()
        for key in keys:
            hub_store.put(*key, serial_store.get(*key))
        # A peer that accepts each connection and hangs up at once.
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(8)
        listener.settimeout(0.05)
        dead = f"127.0.0.1:{listener.getsockname()[1]}"
        dials, grants, closing = [], [], threading.Event()

        def hang_up():
            while not closing.is_set():
                try:
                    conn, _ = listener.accept()
                except socket.timeout:
                    continue
                dials.append(1)
                conn.close()

        class ForgetfulAgent(WorkerAgent):
            def _execute(self, job, sources, trace, sweep_id):
                grants.append(sources)
                super()._execute(job, sources=sources, trace=trace, sweep_id=sweep_id)
                self.store = ArtifactStore()

        thread = threading.Thread(target=hang_up, daemon=True)
        thread.start()
        try:
            with ExperimentService(hub_store, lease_timeout=10.0, poll_s=0.05) as service:
                managed = service.submit(TINY, GRID)
                assert {j.stage for j in managed.plan.jobs.values()} == {"dram-eval"}
                service.registry.register_peer(
                    "unreachable", "127.0.0.1", listener.getsockname()[1]
                )
                service.registry.set_holdings("unreachable", keys)
                agent = ForgetfulAgent(
                    service.address, name="fresh", max_jobs=2,
                    max_idle_s=10.0,
                )
                assert agent.run_forever().jobs_done == 2
                records = service.results(managed.sweep_id)
        finally:
            closing.set()
            thread.join(timeout=5.0)
            listener.close()
        assert grants == [[[stage, digest, [dead]] for stage, digest in keys]] * 2
        assert len(dials) == 1
        assert agent.stats.bytes_pulled_peer == 0
        assert agent.stats.bytes_pulled_hub > 0
        assert records_equivalent(serial_records, records)

    def test_loopback_coordinator_peers_listen_on_loopback(self, serial_sweep, monkeypatch):
        """Workers of a loopback coordinator (every local fleet) listen on
        127.0.0.1 only, are advertised there, and still serve pulls: a
        holder agent that leases nothing serves a chain's upstream
        artifacts to a fresh agent running the downstream job."""
        monkeypatch.setattr("repro.cluster.worker.RETRY_S", 0.05)
        serial_records, serial_store = serial_sweep
        grid = {"voltages": [(1.325,)]}
        keys = [(stage.name, stage.cache_key(TINY)) for stage in default_stages()[:-1]]
        hub_store, holder_store = ArtifactStore(), ArtifactStore()
        for key in keys:
            hub_store.put(*key, serial_store.get(*key))
            holder_store.put(*key, serial_store.get(*key))
        serving, listening, grants = threading.Event(), [], []

        class HolderAgent(WorkerAgent):
            def _lease_loop(self):
                self._register()
                listening.append(self._peer_endpoint.address)
                serving.set()
                self._stop.wait()
                return self.stats

        class PullingAgent(WorkerAgent):
            def _execute(self, job, sources, trace, sweep_id):
                listening.append(self._peer_endpoint.address)
                grants.append(sources)
                super()._execute(job, sources=sources, trace=trace, sweep_id=sweep_id)

        with ExperimentService(hub_store, lease_timeout=10.0, poll_s=0.05) as service:
            holder = HolderAgent(service.address, name="holder", store=holder_store)
            thread = threading.Thread(target=holder.run_forever, daemon=True)
            thread.start()
            try:
                assert serving.wait(10.0)
                service.registry.set_holdings("holder", keys)
                managed = service.submit(TINY, grid)
                (job,) = managed.plan.jobs.values()
                puller = PullingAgent(
                    service.address, name="puller", max_jobs=1,
                    max_idle_s=10.0,
                )
                assert puller.run_forever().jobs_done == 1
                records = service.results(managed.sweep_id)
            finally:
                holder.stop()
                thread.join(timeout=10.0)
        assert [host for host, _ in listening] == ["127.0.0.1", "127.0.0.1"]
        holder_address = f"127.0.0.1:{listening[0][1]}"
        assert grants == [[[stage, digest, [holder_address]] for stage, digest in keys]]
        assert job.stats["pulled_bytes_peer"] > 0
        assert job.stats["pulled_bytes_hub"] == 0
        assert records_equivalent(serial_records[:1], records)

    @pytest.mark.parametrize(
        "coordinator, bind",
        [
            ("127.0.0.1", "127.0.0.1"),
            ("127.0.0.2", "127.0.0.1"),
            ("localhost", "127.0.0.1"),
            ("::1", "::1"),
            ("10.1.2.3", "0.0.0.0"),
            ("0.0.0.0", "0.0.0.0"),
            ("coordinator.example", "0.0.0.0"),
        ],
    )
    def test_peer_bind_host(self, coordinator, bind):
        assert _peer_bind_host(coordinator) == bind

    def test_warm_hub_serves_fresh_workers(self, serial_sweep):
        """The hub pull path end to end: the hub's store holds a chain no
        peer holds, so the fresh worker running the downstream job pulls
        every upstream byte from the hub."""
        serial_records, serial_store = serial_sweep
        keys = [(stage.name, stage.cache_key(TINY)) for stage in default_stages()[:-1]]
        hub_store = ArtifactStore()
        for key in keys:
            hub_store.put(*key, serial_store.get(*key))
        executor = ClusterExecutor(
            TINY,
            store=hub_store,
            lease_timeout=10.0,
            wait_timeout=300.0,
        )
        agents = []
        with contextlib.ExitStack() as stack:
            records = executor.run(
                {"voltages": [(1.325,)]},
                on_ready=lambda address: agents.extend(
                    stack.enter_context(
                        local_worker_threads(
                            address, 2, max_idle_s=60.0, token=executor.token
                        )
                    )
                ),
            )
        assert records_equivalent(serial_records[:1], records)
        (job,) = executor.last_plan.jobs.values()
        assert job.stage == "dram-eval"
        pulled = sum(a.stats.bytes_pulled for a in agents)
        assert pulled > 0
        assert sum(a.stats.bytes_pulled_peer for a in agents) == 0
        # Every pulled byte came from the hub, byte for byte.
        assert executor.last_transfer_stats["get_bytes"] == pulled
