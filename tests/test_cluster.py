"""Cluster subsystem tests: the wire, coordinator fault paths, e2e.

The end-to-end tests are the acceptance contract of docs/cluster.md: a
multi-worker distributed sweep produces records *identical in value* to
the serial Runner on the same grid, with each training-side fingerprint
executed exactly once cluster-wide.
"""

import pickle
import socket
import threading
import time
from types import SimpleNamespace

import pytest
from cluster_threads import local_worker_threads

from repro import SparkXDConfig
from repro.analysis.export import records_equivalent, run_record_value_dict
from repro.cluster import (
    ClusterExecutor,
    ExperimentService,
    PlanFailed,
    ServiceClient,
    ServiceError,
    WorkerAgent,
    parse_address,
)
from repro.cluster.executor import LOCAL_POLL_S
from repro.cluster.protocol import is_loopback_host
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


# ----------------------------------------------------------------------
class TestProtocol:
    def test_parse_address_forms(self):
        assert parse_address("host:123") == ("host", 123)
        assert parse_address(("host", 123)) == ("host", 123)
        assert parse_address("host") == ("host", 8752)
        assert parse_address(":123") == ("127.0.0.1", 123)

    def test_parse_address_ipv6(self):
        from repro.cluster import format_address

        assert parse_address("[2001:db8::1]:9000") == ("2001:db8::1", 9000)
        assert parse_address("[::1]") == ("::1", 8752)
        assert parse_address("::1") == ("::1", 8752)  # bare literal, no port
        with pytest.raises(ValueError):
            parse_address("[::1")
        # format/parse round trip, v4 and v6
        for addr in (("10.0.0.1", 8752), ("2001:db8::1", 9000)):
            assert parse_address(format_address(addr)) == addr

    @pytest.mark.parametrize(
        "host, loopback",
        [
            ("127.0.0.1", True),
            ("127.8.9.10", True),  # all of 127.0.0.0/8
            ("::1", True),
            ("localhost", True),
            ("0.0.0.0", False),  # wildcard binds reach other hosts
            ("::", False),
            ("192.0.2.7", False),
            ("example.org", False),
        ],
    )
    def test_is_loopback_host(self, host, loopback):
        assert is_loopback_host(host) is loopback

    def test_ipv6_bind_serves(self):
        from repro.cluster import format_address

        try:
            service = ExperimentService(host="::1").start()
        except OSError:
            pytest.skip("no IPv6 loopback on this host")
        try:
            address = format_address(service.address)
            assert address.startswith("[::1]:")
            assert ServiceClient(address).fleet()["sweeps"] == {}
        finally:
            service.stop()

    def test_truncated_blob_raises(self, coordinator):
        """An upload whose body falls short of its Content-Length stores
        nothing (and the connection just ends)."""
        blob = pickle.dumps({"weights": list(range(64))})
        head = (
            "PUT /artifacts/s/partial HTTP/1.1\r\n"
            f"Content-Length: {len(blob)}\r\n"
            "Content-Type: application/octet-stream\r\n\r\n"
        ).encode("ascii")
        with socket.create_connection(coordinator.address, timeout=5.0) as sock:
            sock.sendall(head + blob[:-4])
            sock.shutdown(socket.SHUT_WR)
            reply = sock.makefile("rb").read()
        assert reply.startswith(b"HTTP/1.0 400")
        assert ("s", "partial") not in coordinator.service.artifacts.store
        assert coordinator.service.artifacts.transfer_stats()["put_count"] == 0

    def test_closed_connection_raises(self):
        """A reply cut short of its Content-Length is a ConnectionError
        (an OSError, so sync's retry and peer fallback both fire)."""
        with socket.socket() as listener:
            listener.bind(("127.0.0.1", 0))
            listener.listen(1)

            def truncate():
                conn, _ = listener.accept()
                with conn:
                    conn.recv(65536)
                    conn.sendall(
                        b"HTTP/1.0 200 OK\r\nContent-Type: application/json\r\n"
                        b"Content-Length: 100\r\n\r\n{\"ok\""
                    )

            thread = threading.Thread(target=truncate, daemon=True)
            thread.start()
            client = ServiceClient(listener.getsockname(), timeout=5.0)
            with pytest.raises(ConnectionError):
                client.http_request("GET", "/fleet")
            thread.join(timeout=5.0)

    def test_large_artifact_round_trips_but_large_json_is_refused(
        self, coordinator
    ):
        """Artifact bodies carry no cap; a JSON body over 16 MiB is
        refused before a byte of it is read."""
        big = pickle.dumps(bytes(range(256)) * (80 * 1024 + 1))  # > 20 MiB
        assert len(big) > 20 * 1024 * 1024
        client = _client(coordinator)
        reply = client.http_request("PUT", "/artifacts/s/big", blob=big)
        assert reply["stored"]
        assert client.http_request("GET", "/artifacts/s/big")["blob"] == big
        head = (
            "POST /sweeps HTTP/1.1\r\n"
            f"Content-Length: {17 * 1024 * 1024}\r\n"
            "Content-Type: application/json\r\n\r\n"
        ).encode("ascii")
        with socket.create_connection(coordinator.address, timeout=5.0) as sock:
            sock.sendall(head)  # and no body: a reading server would hang
            status_line = sock.makefile("rb").readline()
        assert status_line.startswith(b"HTTP/1.0 413")

    def test_unknown_content_encoding_is_400(self, coordinator):
        with pytest.raises(ServiceError) as excinfo:
            _client(coordinator).http_request(
                "PUT", "/artifacts/s/z", blob=b"payload", encoding="zstd"
            )
        assert excinfo.value.status == 400
        assert "Content-Encoding" in str(excinfo.value)
        assert ("s", "z") not in coordinator.service.artifacts.store


class TestConfigWire:
    def test_round_trip_preserves_fingerprints(self):
        import json

        from repro.pipeline.stages import DRAM_FIELDS
        from repro.pipeline.store import config_fingerprint

        back = SparkXDConfig.from_wire(json.loads(json.dumps(TINY.to_wire())))
        assert back == TINY
        assert config_fingerprint(back, DRAM_FIELDS) == config_fingerprint(
            TINY, DRAM_FIELDS
        )

    def test_custom_dram_spec_survives(self):
        from repro.dram.specs import tiny_spec

        config = TINY.with_overrides(
            dram_spec=tiny_spec().scaled(rows_per_subarray=8), voltages=(1.1,)
        )
        assert SparkXDConfig.from_wire(config.to_wire()) == config

    def test_unknown_field_rejected(self):
        payload = TINY.to_wire()
        payload["not_a_field"] = 1
        with pytest.raises(ValueError, match="not_a_field"):
            SparkXDConfig.from_wire(payload)


# ----------------------------------------------------------------------
# Coordinator fault paths over real sockets, with protocol-level fake
# workers (no training: artifacts are hand-pushed pickles).


@pytest.fixture
def coordinator():
    """A running service with one single-point tenant: its address and plan."""
    with ExperimentService(
        lease_timeout=0.3, max_attempts=5, poll_s=0.05
    ) as service:
        managed = service.submit(TINY, {})
        yield SimpleNamespace(
            address=service.address,
            plan=managed.plan,
            service=service,
            sweep_id=managed.sweep_id,
        )


def _client(server):
    return ServiceClient(server.address, timeout=5.0)


class TestCoordinatorFaultPaths:
    def test_worker_death_requeues_with_exclusion(self, coordinator):
        client = _client(coordinator)
        reply = client.http_request("POST", "/worker/lease", {"worker": "dying"})
        job = reply["job"]
        # Register a healthy peer before the lease expires.
        waiting = client.http_request("POST", "/worker/lease", {"worker": "healthy"})
        assert "wait" in waiting
        time.sleep(0.35)  # no heartbeat: the lease expires
        retaken = client.http_request("POST", "/worker/lease", {"worker": "healthy"})
        assert retaken["job"]["job_id"] == job["job_id"]
        # The dead worker is excluded while the healthy one is live.
        plan_job = coordinator.plan.jobs[job["job_id"]]
        assert "dying" in plan_job.excluded
        assert plan_job.worker == "healthy"
        starved = client.http_request("POST", "/worker/lease", {"worker": "dying"})
        assert "wait" in starved

    def test_heartbeat_keeps_lease_alive(self, coordinator):
        client = _client(coordinator)
        reply = client.http_request("POST", "/worker/lease", {"worker": "steady"})
        job_id = reply["job"]["job_id"]
        assert reply["sweep_id"] == coordinator.sweep_id
        for _ in range(3):
            time.sleep(0.15)
            beat = client.http_request("POST", "/worker/heartbeat", {
                "worker": "steady", "sweep_id": reply["sweep_id"],
                "job_id": job_id,
            })
            assert beat["ok"]
        assert coordinator.plan.jobs[job_id].state == "leased"
        # A report must name the sweep its grant carried.
        unnamed = client.http_request("POST", "/worker/heartbeat", {
            "worker": "steady", "job_id": job_id,
        })
        assert not unnamed["ok"]

    def test_duplicate_completion_is_idempotent(self, coordinator):
        client = _client(coordinator)
        reply = client.http_request("POST", "/worker/lease", {"worker": "w1"})
        job = reply["job"]
        blob = pickle.dumps({"fake": "artifact"})
        client.http_request(
            "PUT", f"/artifacts/{job['stage']}/{job['digest']}", blob=blob
        )
        first = client.http_request("POST", "/worker/complete", {
            "worker": "w1", "sweep_id": reply["sweep_id"],
            "job_id": job["job_id"],
        })
        second = client.http_request("POST", "/worker/complete", {
            "worker": "w2", "sweep_id": reply["sweep_id"],
            "job_id": job["job_id"],
        })
        assert first["ok"] and second["ok"]
        assert coordinator.plan.jobs[job["job_id"]].state == "done"

    def test_completion_without_artifact_rejected(self, coordinator):
        client = _client(coordinator)
        reply = client.http_request("POST", "/worker/lease", {"worker": "liar"})
        verdict = client.http_request("POST", "/worker/complete", {
            "worker": "liar", "sweep_id": reply["sweep_id"],
            "job_id": reply["job"]["job_id"],
        })
        assert not verdict["ok"]
        assert coordinator.plan.jobs[reply["job"]["job_id"]].state == "pending"

    def test_artifact_round_trip_is_byte_identical(self, coordinator):
        client = _client(coordinator)
        import numpy as np

        artifact = {"weights": np.arange(32, dtype=np.float64).reshape(4, 8)}
        blob = pickle.dumps(artifact, protocol=pickle.HIGHEST_PROTOCOL)
        stored = client.http_request(
            "PUT", "/artifacts/train-baseline/d1", blob=blob
        )
        assert stored["stored"]
        # Idempotent: re-uploading the same fingerprint is a hit.
        again = client.http_request(
            "PUT", "/artifacts/train-baseline/d1", blob=blob
        )
        assert again["ok"] and not again["stored"]
        reply = client.http_request("GET", "/artifacts/train-baseline/d1")
        assert reply["blob"] == blob  # byte-identical round trip

    def test_has_filters_present_keys(self, coordinator):
        client = _client(coordinator)
        client.http_request(
            "PUT", "/artifacts/s/present", blob=pickle.dumps("x")
        )
        reply = client.http_request(
            "POST", "/artifacts/has", {"keys": [["s", "present"], ["s", "absent"]]}
        )
        assert reply["present"] == [["s", "present"]]

    def test_get_missing_artifact(self, coordinator):
        with pytest.raises(ServiceError) as excinfo:
            _client(coordinator).http_request("GET", "/artifacts/s/nope")
        assert excinfo.value.status == 404
        assert excinfo.value.payload["found"] is False

    def test_unknown_op_is_an_error_reply(self, coordinator):
        with pytest.raises(ServiceError, match="no route") as excinfo:
            _client(coordinator).http_request("POST", "/worker/frobnicate", {})
        assert excinfo.value.status == 404

    def test_results_fault_is_a_500_not_a_retryable_409(
        self, coordinator, monkeypatch
    ):
        """Only state conflicts (running, failed, cancelled) answer 409;
        an assembly that raises anything else is a logged 500."""
        from repro.cluster import service as service_module

        client = _client(coordinator)
        with pytest.raises(ServiceError) as running:
            client.results(coordinator.sweep_id)
        assert running.value.status == 409
        plan = coordinator.plan
        for _ in range(len(plan.jobs)):
            job = plan.lease("w1")
            plan.store.put(job.stage, job.digest, "artifact")
            assert plan.complete("w1", job.job_id)
        assert plan.done

        def broken_assembly(*args, **kwargs):
            raise ValueError("assembly bug")

        monkeypatch.setattr(service_module, "assemble_point", broken_assembly)
        with pytest.raises(ServiceError) as fault:
            client.results(coordinator.sweep_id)
        assert fault.value.status == 500
        assert "ValueError: assembly bug" in str(fault.value)

    def test_status_reports_counts(self, coordinator):
        reply = coordinator.service.fleet()
        assert reply["pending"] == len(coordinator.plan.jobs)
        assert reply["failure"] is None
        # The same view is GET /fleet on the one port workers use.
        fleet = _client(coordinator).http_request("GET", "/fleet")
        assert fleet["pending"] == reply["pending"]


class TestWireCache:
    def test_byte_bounded_lru_eviction(self, monkeypatch):
        from repro.cluster.http_api import ArtifactEndpoint

        monkeypatch.setattr("repro.cluster.http_api.WIRE_CACHE_BYTES", 100)
        endpoint = ArtifactEndpoint(ArtifactStore())
        endpoint._remember(("s", "a"), b"x" * 40)
        endpoint._remember(("s", "b"), b"y" * 40)
        # Served from the cache (the store holds neither); the hit
        # refreshes a, so b becomes the LRU victim.
        assert endpoint.get("s", "a") == (b"x" * 40, None)
        endpoint._remember(("s", "c"), b"z" * 40)  # 120 bytes > budget
        assert endpoint.get("s", "b") is None
        assert endpoint.get("s", "c") == (b"z" * 40, None)
        assert list(endpoint._cache) == [("s", "a"), ("s", "c")]
        assert endpoint.cached_bytes <= 100

    def test_oversized_blob_is_not_cached(self, monkeypatch):
        from repro.cluster.http_api import ArtifactEndpoint

        monkeypatch.setattr("repro.cluster.http_api.WIRE_CACHE_BYTES", 10)
        endpoint = ArtifactEndpoint(ArtifactStore())
        endpoint._remember(("s", "big"), b"x" * 100)
        assert endpoint.get("s", "big") is None
        assert endpoint.cached_bytes == 0


# ----------------------------------------------------------------------
# End to end: distributed == serial.


class TestDistributedSweep:
    def test_records_identical_to_serial_runner(self, serial_sweep):
        import contextlib

        serial_records, _ = serial_sweep
        executor = ClusterExecutor(
            TINY,
            store=ArtifactStore(),
            lease_timeout=10.0,
            wait_timeout=300.0,
        )
        with contextlib.ExitStack() as stack:
            records = executor.run(
                GRID,
                on_ready=lambda address: stack.enter_context(
                    local_worker_threads(address, 2, max_idle_s=60.0)
                ),
            )

        assert records_equivalent(serial_records, records)
        # Training-side fingerprints executed exactly once cluster-wide.
        plan = executor.last_plan
        training_jobs = [
            j for j in plan.jobs.values() if j.stage != "dram-eval"
        ]
        assert len(training_jobs) == 3
        assert all(j.attempts == 1 and j.state == "done" for j in training_jobs)
        # Placement/transfer stats surfaced in the records.
        cluster_keys = [
            key
            for record in records
            for key in record.stage_timings
            if key.startswith("cluster/")
        ]
        assert any(key.endswith(":worker") for key in cluster_keys)
        assert any(key.endswith(":sync_s") for key in cluster_keys)

    def test_fresh_worker_pulls_upstream_artifacts(self, serial_sweep):
        serial_records, serial_store = serial_sweep
        # Prime a store with the training chain only: the dram jobs'
        # upstream artifacts exist on the coordinator but not on the
        # (fresh, empty) worker — it must pull all three.
        store = ArtifactStore()
        for stage in default_stages()[:-1]:
            digest = stage.cache_key(TINY)
            store.put(stage.name, digest, serial_store.get(stage.name, digest))
        import contextlib

        executor = ClusterExecutor(
            TINY, store=store, lease_timeout=10.0, wait_timeout=300.0
        )
        agents = []
        with contextlib.ExitStack() as stack:
            records = executor.run(
                GRID,
                on_ready=lambda address: agents.extend(
                    stack.enter_context(
                        local_worker_threads(address, 1, max_idle_s=60.0)
                    )
                ),
            )
        assert records_equivalent(serial_records, records)
        (agent,) = agents
        assert agent.stats.artifacts_pulled == 3  # baseline, training, tolerance
        assert agent.stats.artifacts_pushed == 2  # the two dram-eval artifacts
        assert [j.stage for j in executor.last_plan.jobs.values()] == [
            "dram-eval",
            "dram-eval",
        ]

    def test_executor_serves_networked_workers_at_address(self, serial_sweep):
        serial_records, _ = serial_sweep
        # Pre-pick a port so workers can be launched before the
        # coordinator binds (they retry until it appears).
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        address = ("127.0.0.1", port)
        with local_worker_threads(address, 2, max_idle_s=60.0):
            executor = ClusterExecutor(
                TINY,
                store=ArtifactStore(),
                address=address,
                lease_timeout=10.0,
                wait_timeout=300.0,
            )
            records = executor.run(GRID)
        assert records_equivalent(serial_records, records)
        assert executor.address == address

    def test_always_failing_job_fails_the_sweep(self, monkeypatch):
        from repro.pipeline import stages as stages_module

        def explode(self, context, artifacts):
            raise RuntimeError("injected training failure")

        monkeypatch.setattr(
            stages_module.TrainBaselineStage, "run", explode
        )
        import contextlib

        executor = ClusterExecutor(
            TINY,
            store=ArtifactStore(),
            lease_timeout=10.0,
            wait_timeout=120.0,
        )
        with contextlib.ExitStack() as stack:
            with pytest.raises(PlanFailed, match="train-baseline"):
                executor.run(
                    GRID,
                    on_ready=lambda address: stack.enter_context(
                        local_worker_threads(address, 2, max_idle_s=60.0)
                    ),
                )

    def test_plan_failure_shuts_workers_down_gracefully(self, monkeypatch):
        """A failed plan must deliver shutdown, not look unreachable."""
        monkeypatch.setattr("repro.cluster.worker.RETRY_S", 0.05)
        with ExperimentService(
            lease_timeout=5.0, max_attempts=1, poll_s=0.05,
            shutdown_when_idle=True,
        ) as service:
            plan = service.submit(TINY, {}).plan
            client = ServiceClient(service.address, timeout=5.0)
            reply = client.http_request(
                "POST", "/worker/lease", {"worker": "crashy"}
            )
            client.http_request("POST", "/worker/fail", {
                "worker": "crashy", "sweep_id": reply["sweep_id"],
                "job_id": reply["job"]["job_id"], "error": "boom",
            })
            assert plan.failed  # retry budget (1) exhausted
            agent = WorkerAgent(
                service.address, max_idle_s=10.0
            )
            started = time.monotonic()
            stats = agent.run_forever()
            # Graceful: one lease round trip, not an unreachability
            # retry loop running out the idle budget.
            assert time.monotonic() - started < 5.0
            assert any("shut the sweep down" in e for e in stats.errors)
            assert not any("unreachable" in e for e in stats.errors)

    def test_worker_gives_up_on_dead_coordinator(self, monkeypatch):
        monkeypatch.setattr("repro.cluster.worker.RETRY_S", 0.05)
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            dead = probe.getsockname()[1]
        agent = WorkerAgent(("127.0.0.1", dead), max_idle_s=0.3)
        started = time.monotonic()
        stats = agent.run_forever()
        assert time.monotonic() - started < 5.0
        assert stats.jobs_done == 0
        assert any("unreachable" in e for e in stats.errors)

    def test_fully_cached_sweep_needs_no_workers(self, serial_sweep):
        serial_records, serial_store = serial_sweep
        executor = ClusterExecutor(
            TINY, store=serial_store, lease_timeout=5.0, wait_timeout=30.0
        )
        records = executor.run(GRID)  # no workers connected at all
        assert records_equivalent(serial_records, records)
        assert executor.last_plan.jobs == {}

    @pytest.mark.parametrize(
        "host, poll_s",
        # Off loopback the service default: min(1 s, lease_timeout / 4).
        [("127.0.0.1", LOCAL_POLL_S), ("localhost", LOCAL_POLL_S), ("0.0.0.0", 1.0)],
    )
    def test_service_poll_follows_bind_host(
        self, serial_sweep, monkeypatch, host, poll_s
    ):
        """Workers of a loopback executor are local and re-poll at
        :data:`LOCAL_POLL_S`; networked ones at the service default."""
        from repro.cluster import executor as executor_module

        polls = []

        class RecordingService(ExperimentService):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                polls.append(self.poll_s)

        monkeypatch.setattr(executor_module, "ExperimentService", RecordingService)
        serial_records, serial_store = serial_sweep
        executor = ClusterExecutor(
            TINY, store=serial_store, address=(host, 0), wait_timeout=30.0
        )
        assert records_equivalent(serial_records, executor.run(GRID))
        assert polls == [poll_s]

    def test_public_worker_bind_keeps_control_plane_on_loopback(
        self, serial_sweep
    ):
        """A public bind serves every route on its one port, control
        routes included (behind the same token, docs/cluster.md); the
        records stay identical to serial."""
        serial_records, serial_store = serial_sweep
        executor = ClusterExecutor(
            TINY, store=serial_store, address=("0.0.0.0", 0), wait_timeout=30.0
        )
        records = executor.run(GRID)
        assert records_equivalent(serial_records, records)
        assert executor.address[0] == "0.0.0.0"


def _cli_env():
    """Subprocess env whose ``PYTHONPATH`` imports this very ``repro``."""
    import os
    from pathlib import Path

    import repro

    env = dict(os.environ)
    package_root = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = package_root + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.pop("REPRO_CLUSTER_TOKEN", None)
    return env


class TestClusterCLI:
    @pytest.mark.slow
    def test_sweep_workers_cli_matches_serial(self, capfd):
        """``repro sweep --workers 2`` with real worker subprocesses:
        valid JSON on stdout, and no per-request access lines on stderr
        from the embedded service or the workers' peer endpoints."""
        import json

        from repro.cli import main
        from repro.pipeline.runner import RunRecord

        exit_code = main([
            "sweep",
            "--neurons", "12", "--train", "40", "--test", "25",
            "--steps", "30", "--bound", "0.5",
            "--voltages", "1.325", "1.025",
            "--workers", "2", "--json",
        ])
        captured = capfd.readouterr()
        payload = json.loads(captured.out)
        assert exit_code == 0
        assert "HTTP/1." not in captured.err
        assert "/worker/" not in captured.err
        assert len(payload) == 2
        cli_records = [RunRecord.from_dict(entry) for entry in payload]
        # Serial reference on the exact config the CLI builds.
        cli_base = SparkXDConfig.small(
            n_neurons=12, n_train=40, n_test=25, n_steps=30,
            accuracy_bound=0.5, seed=42,
        )
        reference = Runner(cli_base, store=ArtifactStore()).run(
            {"voltages": [(1.325,), (1.025,)]}
        )
        assert records_equivalent(reference, cli_records)
        assert [(r.cache_hits, r.cache_misses) for r in cli_records] == [
            (r.cache_hits, r.cache_misses) for r in reference
        ]

    @pytest.mark.slow
    def test_sweep_workers_trace_merges_worker_spans(self, tmp_path):
        """``sweep --workers 2 --trace`` hands the trace to its fleet:
        ``cluster.job`` spans from at least two worker processes land
        in the coordinator's file, under its ``cluster.sweep`` span."""
        import json
        import subprocess
        import sys

        trace = tmp_path / "fleet.jsonl"
        result = subprocess.run(
            [
                sys.executable, "-m", "repro", "sweep",
                "--neurons", "12", "--train", "40", "--test", "25",
                "--steps", "30", "--bound", "0.5",
                "--seeds", "42", "43", "--voltages", "1.325", "1.025",
                "--workers", "2", "--trace", str(trace), "--json",
            ],
            env=_cli_env(), capture_output=True, text=True, timeout=600,
        )
        assert result.returncode == 0, result.stderr
        spans = [json.loads(line) for line in trace.read_text().splitlines()]
        (sweep,) = [s for s in spans if s["name"] == "cluster.sweep"]
        jobs = [s for s in spans if s["name"] == "cluster.job"]
        worker_pids = {job["pid"] for job in jobs}
        assert len(worker_pids) >= 2
        assert sweep["pid"] not in worker_pids
        assert all(job["parent"] == sweep["span"] for job in jobs)


class TestRecordValueHelpers:
    def test_value_dict_drops_execution_fields(self, run_record_factory):
        record = run_record_factory()
        payload = run_record_value_dict(record)
        for key in ("wall_time_s", "cache_hits", "cache_misses", "stage_timings"):
            assert key not in payload
        assert payload["run_id"] == record.run_id

    def test_records_equivalent_ignores_timings(self, run_record_factory):
        a = run_record_factory(wall_time_s=1.0, cache_hits=0)
        b = run_record_factory(wall_time_s=9.0, cache_hits=7)
        assert records_equivalent([a], [b])
        assert not records_equivalent([a], [])
        c = run_record_factory(baseline_accuracy=0.9)
        assert not records_equivalent([a], [c])


# ----------------------------------------------------------------------
# Journal, resume and distribution diagnostics.


@pytest.fixture(scope="module")
def cli_reference():
    """Serial reference records for the exact config the CLI builds."""
    base = SparkXDConfig.small(
        n_neurons=12, n_train=40, n_test=25, n_steps=30,
        accuracy_bound=0.5, seed=42,
    )
    records = Runner(base, store=ArtifactStore()).run(
        {"voltages": [(1.325,), (1.025,)]}
    )
    return base, records


class TestDistributionTimeout:
    def test_no_workers_raises_diagnostic_timeout(self):
        from repro.cluster import DistributionTimeout

        executor = ClusterExecutor(
            TINY, store=ArtifactStore(), wait_timeout=0.3
        )
        with pytest.raises(DistributionTimeout) as info:
            executor.run(GRID)
        error = info.value
        assert isinstance(error, TimeoutError)  # old except clauses still work
        assert error.counts["pending"] == len(executor.last_plan.jobs)
        assert error.worker_ages == {}
        assert "none ever connected" in str(error)

    def test_timeout_reports_last_worker_contact(self):
        from repro.cluster import DistributionTimeout

        executor = ClusterExecutor(
            TINY,
            store=ArtifactStore(),
            wait_timeout=0.8,
            lease_timeout=30.0,
        )

        def poke(address):
            # One worker leases a job and is never heard from again.
            ServiceClient(address, timeout=5.0).http_request(
                "POST", "/worker/lease", {"worker": "ghost"}
            )

        with pytest.raises(DistributionTimeout) as info:
            executor.run(GRID, on_ready=poke)
        error = info.value
        assert "ghost" in error.worker_ages
        assert error.counts["leased"] == 1
        assert "ghost" in str(error) and "seen" in str(error)

    def test_client_wait_timeout_reports_last_worker_contact(self):
        """``ServiceClient.wait`` runs the service's loop: its timeout
        carries the same worker last-contact ages, read from ``/fleet``."""
        from repro.cluster import DistributionTimeout

        with ExperimentService(lease_timeout=30.0) as service:
            sweep_id = service.submit(TINY, GRID).sweep_id
            client = ServiceClient(service.address, timeout=5.0)
            client.http_request("POST", "/worker/lease", {"worker": "ghost"})
            with pytest.raises(DistributionTimeout) as info:
                client.wait(sweep_id, timeout=0.3)
        error = info.value
        assert "ghost" in error.worker_ages
        assert error.counts["leased"] == 1
        assert "ghost" in str(error) and "seen" in str(error)


class TestJournalResume:
    """Coordinator crash -> --resume: identical records, zero re-runs."""

    def test_interrupted_sweep_resumes_without_reexecution(
        self, serial_sweep, tmp_path
    ):
        import contextlib

        serial_records, _ = serial_sweep
        root = tmp_path / "cache"
        journal_path = root / "journal.jsonl"

        # ---- Phase 1: a sweep that dies after 2 of 5 jobs. ----------
        store1 = ArtifactStore(root)
        with ExperimentService(
            store1, lease_timeout=10.0, poll_s=0.05
        ) as service:
            plan1 = service.submit(TINY, GRID, journal_path=journal_path).plan
            n_jobs = len(plan1.jobs)
            agent = WorkerAgent(
                service.address, name="mortal", max_jobs=2,
                max_idle_s=30.0,
            )
            agent.run_forever()  # returns after 2 completed jobs
        # The "crash": service gone, its stop() closed the journal.
        assert agent.stats.jobs_done == 2
        done_phase1 = [j for j in plan1.jobs.values() if j.state == "done"]
        assert len(done_phase1) == 2

        # ---- Phase 2: restart with --resume semantics. --------------
        store2 = ArtifactStore(root)  # fresh instance, same disk
        executor = ClusterExecutor(
            TINY,
            store=store2,
            lease_timeout=10.0,
            wait_timeout=300.0,
            journal=journal_path,
            resume=True,
        )
        with contextlib.ExitStack() as stack:
            records = executor.run(
                GRID,
                on_ready=lambda address: stack.enter_context(
                    local_worker_threads(address, 1, max_idle_s=60.0)
                ),
            )

        # Value-identical to an uninterrupted serial run.
        assert records_equivalent(serial_records, records)
        plan2 = executor.last_plan
        assert len(plan2.jobs) == n_jobs  # the whole sweep is visible
        assert plan2.replayed_done == 2
        for job in done_phase1:
            resumed = plan2.jobs[job.job_id]
            assert resumed.state == "done"
            assert resumed.attempts == 0  # never re-leased
            assert resumed.worker == "mortal"  # attribution survives
        # Zero re-executions of journaled-done fingerprints: the
        # resumed coordinator accepted uploads only for the 3 jobs
        # phase 1 never finished.
        assert store2.stats.puts == n_jobs - 2

    def test_existing_journal_refused_without_resume(self, tmp_path):
        journal_path = tmp_path / "journal.jsonl"
        journal_path.write_text('{"event": "plan"}\n')
        executor = ClusterExecutor(
            TINY, store=ArtifactStore(), journal=journal_path, wait_timeout=5.0
        )
        with pytest.raises(ValueError, match="already exists"):
            executor.run(GRID)

    def test_resumed_fully_done_sweep_needs_no_workers(
        self, serial_sweep, tmp_path
    ):
        import contextlib

        serial_records, _ = serial_sweep
        root = tmp_path / "cache"
        journal_path = root / "journal.jsonl"
        store = ArtifactStore(root)
        executor = ClusterExecutor(
            TINY,
            store=store,
            lease_timeout=10.0,
            wait_timeout=300.0,
            journal=journal_path,
        )
        with contextlib.ExitStack() as stack:
            first = executor.run(
                GRID,
                on_ready=lambda address: stack.enter_context(
                    local_worker_threads(address, 2, max_idle_s=60.0)
                ),
            )
        assert records_equivalent(serial_records, first)

        # Resume after completion: everything replays, nothing runs.
        resumed = ClusterExecutor(
            TINY,
            store=ArtifactStore(root),
            wait_timeout=30.0,
            journal=journal_path,
            resume=True,
        )
        records = resumed.run(GRID)  # no workers connected at all
        assert records_equivalent(serial_records, records)
        plan = resumed.last_plan
        assert all(job.state == "done" for job in plan.jobs.values())
        assert all(job.attempts == 0 for job in plan.jobs.values())
        # The pre-crash placement stats flow into the resumed records.
        cluster_keys = [
            key
            for record in records
            for key in record.stage_timings
            if key.startswith("cluster/")
        ]
        assert any(key.endswith(":sync_bytes") for key in cluster_keys)


class TestKillResumeSubprocess:
    @pytest.mark.slow
    def test_sigkill_mid_sweep_then_resume_matches_serial(
        self, cli_reference, tmp_path
    ):
        """The operational recipe end to end: ``sweep --journal``
        SIGKILLed mid-run, restarted with ``--resume``, records
        value-identical to serial and no fingerprint executed twice."""
        import json
        import signal
        import subprocess
        import sys
        import time as _time

        from repro.pipeline.runner import RunRecord

        base, serial_records = cli_reference
        cache = tmp_path / "cache"
        journal = cache / "journal.jsonl"
        out = tmp_path / "records.json"
        env = _cli_env()
        command = [
            sys.executable, "-m", "repro", "sweep",
            "--neurons", "12", "--train", "40", "--test", "25",
            "--steps", "30", "--bound", "0.5",
            "--voltages", "1.325", "1.025",
            "--workers", "2", "--cache-dir", str(cache), "--journal",
            "--out", str(out),
        ]

        def journal_done_count():
            if not journal.exists():
                return 0
            return sum(
                1 for line in journal.read_text().splitlines()
                if '"event": "done"' in line or '"event":"done"' in line
            )

        proc = subprocess.Popen(
            command, env=env, stdout=subprocess.DEVNULL
        )
        try:
            # SIGKILL the coordinator at ~50% of the 5-job sweep; the
            # poll must be fine next to the ~1 s sweep, or the kill
            # lands after the last job and the resume has nothing to do.
            deadline = _time.monotonic() + 300.0
            while _time.monotonic() < deadline:
                if journal_done_count() >= 2 or proc.poll() is not None:
                    break
                _time.sleep(0.02)
            killed = proc.poll() is None
            if killed:
                proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30.0)
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup path
                proc.kill()
        done_at_kill = journal_done_count()
        assert killed
        assert 0 < done_at_kill < 5  # the resume really has work left

        resumed = subprocess.run(
            command + ["--resume"], env=env,
            stdout=subprocess.DEVNULL, timeout=600.0,
        )
        assert resumed.returncode == 0
        records = [
            RunRecord.from_dict(entry) for entry in json.loads(out.read_text())
        ]
        assert records_equivalent(serial_records, records)
        # No (stage, digest) was executed twice across both lives.
        done = [
            (event["stage"], event["digest"])
            for event in map(json.loads, journal.read_text().splitlines())
            if event.get("event") == "done"
        ]
        assert len(done) == len(set(done))


class TestOrphanedFleet:
    @pytest.mark.slow
    def test_killed_sweep_leaves_no_workers_behind(self, tmp_path):
        """SIGKILL a ``sweep --workers 2 --journal`` mid-sweep: its
        worker subprocesses, orphaned in its process group, exit within
        seconds (the local fleet's idle limit), not the 30 s default."""
        import os
        import signal
        import subprocess
        import sys

        cache = tmp_path / "cache"
        journal = cache / "journal.jsonl"
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "sweep",
                "--neurons", "12", "--train", "40", "--test", "25",
                "--steps", "30", "--bound", "0.5",
                "--voltages", "1.325", "1.025",
                "--workers", "2", "--cache-dir", str(cache), "--journal",
            ],
            env=_cli_env(), stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, start_new_session=True,
        )
        pgid = proc.pid  # a new session's leader leads its own group
        try:
            deadline = time.monotonic() + 300.0
            while time.monotonic() < deadline and proc.poll() is None:
                if journal.exists() and '"event": "done"' in journal.read_text():
                    break
                time.sleep(0.02)
            assert proc.poll() is None  # the kill lands mid-sweep
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30.0)
            killed_at = time.monotonic()
            while time.monotonic() - killed_at < 15.0:
                try:
                    os.killpg(pgid, 0)
                except ProcessLookupError:
                    break
                time.sleep(0.1)
            else:
                pytest.fail("orphaned workers outlived the sweep by 15 s")
        finally:
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                pass


class TestWorkerAffinityE2E:
    def test_workers_report_holdings_and_get_affine_jobs(self, serial_sweep):
        """A single warm worker that already holds the training chain
        and reports it runs every dram-eval job without pulling a
        byte (creation-order grants; the holdings feed peer routing)."""
        import contextlib

        serial_records, serial_store = serial_sweep
        # Warm the coordinator with BOTH training chains so only the
        # dram-eval jobs distribute (they are all ready at once), and
        # pre-seed each worker's local store with one seed's chain.
        store = ArtifactStore()
        for stage in default_stages()[:-1]:
            digest = stage.cache_key(TINY)
            store.put(stage.name, digest, serial_store.get(stage.name, digest))
        worker_store = ArtifactStore()
        for stage in default_stages()[:-1]:
            digest = stage.cache_key(TINY)
            worker_store.put(
                stage.name, digest, serial_store.get(stage.name, digest)
            )

        executor = ClusterExecutor(
            TINY, store=store, lease_timeout=10.0, 
            wait_timeout=300.0,
        )
        agents = []
        with contextlib.ExitStack() as stack:

            def launch(address):
                agent = WorkerAgent(
                    address, name="warm", store=worker_store, max_idle_s=60.0
                )
                # Report what this worker already holds.
                agent._holding.update(
                    (stage.name, stage.cache_key(TINY))
                    for stage in default_stages()[:-1]
                )
                thread = threading.Thread(target=agent.run_forever, daemon=True)
                thread.start()
                agents.append(agent)
                stack.callback(thread.join, 10.0)
                stack.callback(agent.stop)

            records = executor.run(GRID, on_ready=launch)
        assert records_equivalent(serial_records, records)
        (agent,) = agents
        # The warm worker held every upstream artifact: nothing pulled.
        assert agent.stats.artifacts_pulled == 0
        assert agent.stats.bytes_pulled == 0
        assert agent.stats.jobs_done == 2
