"""Experiment-service tests: multi-tenant sweeps, auth, journal isolation.

Three layers:

- **scheduling** (no sockets): tenant registry semantics, deterministic
  sweep ids, cancel, per-tenant journal isolation across a simulated
  SIGKILL + service restart (zero re-executions, no cross-tenant
  done-map bleed);
- **end-to-end** (real sockets, module-scoped): one service, two
  overlapping sweeps, a 2-worker fleet, records value-identical to the
  serial Runner; the control-plane HTTP API against the live service;
- **auth**: unauthenticated/mistokened requests rejected loudly on
  every route, worker peer endpoints included.
"""

import socket
import threading
import time

import pytest

from repro import SparkXDConfig
from repro.analysis.export import records_equivalent
from repro.cluster import (
    ExperimentService,
    ServiceAuthError,
    ServiceClient,
    ServiceError,
    WorkerAgent,
    sweep_identity,
)
from repro.pipeline import ArtifactStore, Runner
from repro.pipeline.runner import RunRecord

TINY = SparkXDConfig.small(
    n_train=40,
    n_test=25,
    n_neurons=12,
    n_steps=30,
    baseline_epochs=1,
    ber_rates=(1e-5, 1e-3),
    accuracy_bound=0.5,
)
GRID_A = {"voltages": [(1.325,), (1.025,)]}
#: Shares TINY's training chain but is a distinct sweep (its own id,
#: plan and journal) — the overlap exercises cross-tenant dedupe.
GRID_B = {"voltages": [(1.125,)]}
TOKEN = "sweep-secret"


def drain(plan, worker="w1", limit=500):
    """Drive a plan to completion without a pipeline (synthetic bytes)."""
    for _ in range(limit):
        job = plan.lease(worker)
        if job is None:
            assert plan.done
            return
        plan.store.put(job.stage, job.digest, f"artifact-{job.job_id}")
        assert plan.complete(worker, job.job_id)
    raise AssertionError("plan did not drain")


# ----------------------------------------------------------------------
class TestTenantRegistry:
    def test_sweep_identity_is_deterministic_and_grid_sensitive(self):
        assert sweep_identity(TINY, GRID_A) == sweep_identity(TINY, GRID_A)
        assert sweep_identity(TINY, GRID_A) != sweep_identity(TINY, GRID_B)
        other = TINY.with_overrides(seed=7)
        assert sweep_identity(TINY, GRID_A) != sweep_identity(other, GRID_A)

    def test_resubmission_reattaches(self):
        service = ExperimentService()
        first = service.submit(TINY, GRID_A)
        second = service.submit(TINY, GRID_A)
        assert first is second
        assert len(service.fleet()["sweeps"]) == 1

    def test_tenants_share_one_store_and_dedupe_training(self):
        service = ExperimentService()
        a = service.submit(TINY, GRID_A)
        drain(a.plan)
        # B's training chain is already cached by A: only the
        # dram-eval job for its own voltage remains.
        b = service.submit(TINY, GRID_B)
        assert [j.stage for j in b.plan.jobs.values()] == ["dram-eval"]

    def test_describe_reports_counts_and_state(self):
        service = ExperimentService()
        managed = service.submit(TINY, GRID_A, name="alpha")
        info = service.describe(managed.sweep_id)
        assert info["name"] == "alpha"
        assert info["state"] == "running"
        assert info["pending"] == len(managed.plan.jobs)
        drain(managed.plan)
        assert service.describe(managed.sweep_id)["state"] == "done"

    def test_submit_logs_at_info_level(self, caplog):
        """``name`` is a reserved ``LogRecord`` attribute: logging it as
        an extra key raised ``KeyError`` from every submit once INFO was
        on (``--log-level INFO``)."""
        import logging

        caplog.set_level(logging.INFO, logger="repro.cluster.service")
        managed = ExperimentService().submit(TINY, GRID_A, name="alpha")
        (record,) = [r for r in caplog.records if r.msg == "sweep submitted"]
        assert record.sweep_id == managed.sweep_id
        assert record.sweep_name == "alpha"

    def test_unknown_sweep_raises_key_error(self):
        service = ExperimentService()
        with pytest.raises(KeyError):
            service.describe("nope")

    def test_cancel_frees_leases_and_stops_grants(self):
        service = ExperimentService()
        managed = service.submit(TINY, GRID_A)
        job = managed.plan.lease("w1")
        assert job is not None
        reply = service.cancel(managed.sweep_id)
        assert reply["state"] == "cancelled"
        assert reply["leases_freed"] == 1
        assert managed.plan.lease("w1") is None
        # results on a cancelled sweep is a client error, not a crash
        with pytest.raises(RuntimeError, match="cancelled"):
            service.results(managed.sweep_id)

    def test_results_before_done_is_an_error(self):
        service = ExperimentService()
        managed = service.submit(TINY, GRID_A)
        with pytest.raises(RuntimeError, match="not complete"):
            service.results(managed.sweep_id)


# ----------------------------------------------------------------------
class TestJournalIsolation:
    def _service(self, tmp_path, store):
        return ExperimentService(
            store=store, journal_dir=tmp_path / "journals"
        )

    def test_per_tenant_journal_files(self, tmp_path):
        service = self._service(tmp_path, ArtifactStore())
        a = service.submit(TINY, GRID_A)
        b = service.submit(TINY, GRID_B)
        assert a.journal.path.name == f"sweep-{a.sweep_id}.jsonl"
        assert b.journal.path.name == f"sweep-{b.sweep_id}.jsonl"
        assert a.journal.path != b.journal.path

    def test_kill_and_restart_replays_both_tenants(self, tmp_path):
        store = ArtifactStore()
        service = self._service(tmp_path, store)
        a = service.submit(TINY, GRID_A)
        b = service.submit(TINY, GRID_B)
        # Interleave the two tenants mid-flight: A fully drains, B
        # completes exactly one job and holds a live lease on another.
        drain(a.plan, worker="w1")
        job1 = b.plan.lease("w2")
        store.put(job1.stage, job1.digest, "artifact-b1")
        assert b.plan.complete("w2", job1.job_id)
        leased = b.plan.lease("w2")
        assert leased is not None
        b_done_before = b.plan.counts()["done"]
        # SIGKILL: the journal flushes per line, so dropping the
        # service without close() leaves exactly what a killed process
        # would have left on disk.
        del service, a

        restarted = self._service(tmp_path, store)
        a2 = restarted.submit(TINY, GRID_A)
        b2 = restarted.submit(TINY, GRID_B)
        # A replays straight to done: zero jobs to re-execute.
        assert a2.plan.done
        assert a2.plan.replayed_done == len(a2.plan.jobs)
        assert a2.plan.counts()["pending"] == 0
        # B replays its completed work; only genuinely unfinished jobs
        # (including the in-flight lease, which journaled no done)
        # come back as pending.
        assert b2.plan.replayed_done == b_done_before
        assert b2.plan.counts()["leased"] == 0
        assert b2.plan.counts()["done"] == b_done_before
        assert (
            b2.plan.counts()["pending"]
            == len(b2.plan.jobs) - b_done_before
        )
        drain(b2.plan, worker="w3")

    def test_no_cross_tenant_done_bleed(self, tmp_path):
        """A's journaled done set never leaks into B's plan (and vice
        versa): each journal replays only fingerprints of its own
        chain."""
        store = ArtifactStore()
        service = self._service(tmp_path, store)
        a = service.submit(TINY, GRID_A)
        b = service.submit(TINY, GRID_B)
        a_ids = set(a.plan.jobs)
        b_ids = set(b.plan.jobs)
        drain(a.plan, worker="w1")
        drain(b.plan, worker="w2")
        del service, a, b

        restarted = self._service(tmp_path, store)
        a2 = restarted.submit(TINY, GRID_A)
        b2 = restarted.submit(TINY, GRID_B)
        assert set(a2.plan.jobs) == a_ids
        assert set(b2.plan.jobs) == b_ids
        assert a2.plan.done and b2.plan.done
        # The shared-chain overlap dedupes through the *store*, not
        # through each other's journals: every replayed-done job id in
        # a tenant's plan belongs to that tenant's own chain.
        assert all(j in a_ids for j in a2.plan.jobs)
        assert all(j in b_ids for j in b2.plan.jobs)

    def test_journal_lag_reported_per_tenant(self, tmp_path):
        service = self._service(tmp_path, ArtifactStore())
        managed = service.submit(TINY, GRID_A, name="lagged")
        drain(managed.plan)
        info = service.describe(managed.sweep_id)
        # plan header + every lease/done transition, no snapshot yet
        assert info["journal"]["lag"] == info["journal"]["events"] > 0
        managed.journal.compact()
        assert service.describe(managed.sweep_id)["journal"]["lag"] == 0
        fleet = service.fleet()
        sweep_view = fleet["sweeps"][managed.sweep_id]
        assert sweep_view["journal"]["lag"] == 0
        assert sweep_view["name"] == "lagged"


# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def serial_records():
    store = ArtifactStore()
    records_a = Runner(TINY, store=store).run(GRID_A)
    records_b = Runner(TINY, store=ArtifactStore()).run(GRID_B)
    return records_a, records_b


@pytest.fixture(scope="module")
def live_service(serial_records):
    """One service, two overlapping sweeps, a real 2-worker fleet."""
    service = ExperimentService(token=TOKEN, shutdown_when_idle=False)
    service.start()
    client = ServiceClient(service.address, token=TOKEN)
    submitted_a = client.submit(TINY, GRID_A, name="alpha")
    submitted_b = client.submit(TINY, GRID_B, name="beta")
    workers = [
        WorkerAgent(service.address, name=f"svc-w{i}", token=TOKEN)
        for i in range(2)
    ]
    threads = [
        threading.Thread(target=w.run_forever, daemon=True) for w in workers
    ]
    for thread in threads:
        thread.start()
    client.wait(submitted_a["sweep_id"], timeout=300)
    client.wait(submitted_b["sweep_id"], timeout=300)
    yield service, client, submitted_a["sweep_id"], submitted_b["sweep_id"]
    service.stop()


class TestServiceEndToEnd:
    def test_both_sweeps_value_identical_to_serial(
        self, live_service, serial_records
    ):
        _, client, sweep_a, sweep_b = live_service
        serial_a, serial_b = serial_records
        records_a = [
            RunRecord.from_dict(e)
            for e in client.results(sweep_a)["records"]
        ]
        records_b = [
            RunRecord.from_dict(e)
            for e in client.results(sweep_b)["records"]
        ]
        assert records_equivalent(records_a, serial_a)
        assert records_equivalent(records_b, serial_b)

    def test_fleet_view_has_both_tenants_and_workers(self, live_service):
        _, client, sweep_a, sweep_b = live_service
        fleet = client.fleet()
        assert fleet["sweeps"][sweep_a]["state"] == "done"
        assert fleet["sweeps"][sweep_b]["state"] == "done"
        assert fleet["sweeps"][sweep_a]["name"] == "alpha"
        assert len(fleet["workers"]) == 2

    def test_http_status_of_unknown_sweep_is_404(self, live_service):
        _, client, *_ = live_service
        with pytest.raises(ServiceError) as excinfo:
            client.status("doesnotexist")
        assert excinfo.value.status == 404

    def test_results_of_running_sweep_is_409(self, live_service):
        service, client, *_ = live_service
        managed = service.submit(TINY, {"seed": [7]}, name="fresh")
        try:
            with pytest.raises(ServiceError) as excinfo:
                client.results(managed.sweep_id)
            assert excinfo.value.status == 409
        finally:
            service.cancel(managed.sweep_id)

    def test_cancel_over_http_frees_leases(self, live_service):
        service, client, *_ = live_service
        managed = service.submit(TINY, {"seed": [11]}, name="doomed")
        job = managed.plan.lease("interloper")
        assert job is not None
        reply = client.cancel(managed.sweep_id)
        assert reply["state"] == "cancelled"
        assert reply["leases_freed"] == 1
        assert managed.plan.lease("interloper") is None

    def test_status_is_served_over_http_only(self, live_service):
        """The fleet view is ``GET /fleet``; there is no worker route
        for it."""
        _, client, sweep_a, _ = live_service
        assert sweep_a in client.fleet()["sweeps"]
        with pytest.raises(ServiceError) as excinfo:
            client.http_request("POST", "/worker/status", {"worker": "w"})
        assert excinfo.value.status == 404

    def test_worker_exits_loudly_on_bad_token(self, live_service):
        service, *_ = live_service
        agent = WorkerAgent(
            service.address, name="intruder", token="wrong-token"
        )
        stats = agent.run_forever()
        assert stats.jobs_done == 0
        assert any("authentication" in e for e in stats.errors)


class TestSubmitResume:
    """``POST /sweeps`` takes ``resume`` as "auto", true or false only."""

    @pytest.fixture
    def restarted(self, tmp_path):
        """A live service restarted over GRID_A's finished journal."""
        store = ArtifactStore()
        first = ExperimentService(store=store, journal_dir=tmp_path)
        drain(first.submit(TINY, GRID_A).plan)
        first.stop()
        service = ExperimentService(store=store, journal_dir=tmp_path)
        service.start()
        yield service, ServiceClient(service.address)
        service.stop()

    @pytest.mark.parametrize("resume", ["no", [], None, 0])
    def test_malformed_resume_is_rejected(self, restarted, resume):
        service, client = restarted
        with pytest.raises(ServiceError) as excinfo:
            client.submit(TINY, GRID_A, resume=resume)
        assert excinfo.value.status == 400
        assert "'resume' must be" in str(excinfo.value)
        # Refused before submit: the journal was neither replayed nor
        # reopened.
        assert service.fleet()["sweeps"] == {}

    @pytest.mark.parametrize("resume", ["auto", True])
    def test_auto_and_true_replay_the_journal(self, restarted, resume):
        _, client = restarted
        reply = client.submit(TINY, GRID_A, resume=resume)
        assert reply["state"] == "done"
        assert reply["replayed_done"] == reply["done"] > 0

    def test_absent_resume_means_auto(self, restarted):
        from repro.cluster.http_api import grid_to_wire

        _, client = restarted
        reply = client.http_request("POST", "/sweeps", {
            "base_config": TINY.to_wire(),
            "grid": grid_to_wire(GRID_A),
        })
        assert reply["replayed_done"] == reply["done"] > 0

    def test_false_refuses_an_existing_journal(self, restarted):
        _, client = restarted
        with pytest.raises(ServiceError) as excinfo:
            client.submit(TINY, GRID_A, resume=False)
        assert excinfo.value.status == 400
        assert "already exists" in str(excinfo.value)


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class TestAuthRejection:
    def test_line_plane_rejects_missing_and_bad_token(self, live_service):
        service, *_ = live_service
        with pytest.raises(ServiceAuthError):
            ServiceClient(service.address).http_request(
                "POST", "/worker/hello", {"worker": "anon"}
            )
        with pytest.raises(ServiceAuthError):
            ServiceClient(service.address, token="bad").http_request(
                "POST", "/worker/lease", {"worker": "anon"}
            )

    def test_every_route_rejects_a_tokenless_request(self, live_service):
        """401 on every row of the route table, before any handler
        runs: nothing is submitted, leased or stored."""
        from repro.cluster.http_api import ROUTES

        service, client, sweep_a, _ = live_service
        before = client.fleet()
        naked = ServiceClient(service.address)
        for method, template, _ in ROUTES:
            path = template.format(sweep_id=sweep_a, stage="s", digest="d")
            if method == "PUT":
                call = lambda: naked.http_request(method, path, blob=b"x")
            else:
                call = lambda: naked.http_request(method, path, {"worker": "anon"})
            with pytest.raises(ServiceAuthError) as excinfo:
                call()
            assert excinfo.value.status == 401, (method, path)
        after = client.fleet()
        assert after["sweeps"].keys() == before["sweeps"].keys()
        assert "anon" not in after["workers"]
        assert ("s", "d") not in service.store

    def test_peer_endpoint_requires_the_fleet_token(self, monkeypatch):
        """A worker's peer endpoint answers 401 to a tokenless download
        and serves the artifact to a peer holding the fleet token."""
        monkeypatch.setattr("repro.cluster.worker.RETRY_S", 0.05)
        import pickle

        store = ArtifactStore()
        store.put("s", "d", {"weights": [1.0]})
        port = _free_port()
        with ExperimentService(token=TOKEN) as service:
            agent = WorkerAgent(
                service.address, store=store, token=TOKEN, peer_port=port,
                max_idle_s=5.0,
            )
            thread = threading.Thread(target=agent.run_forever, daemon=True)
            thread.start()
            try:
                deadline = time.monotonic() + 30.0
                while agent.stats.slot is None:  # hello: the peer is up
                    assert time.monotonic() < deadline
                    time.sleep(0.02)
                peer = ("127.0.0.1", port)
                with pytest.raises(ServiceAuthError) as excinfo:
                    ServiceClient(peer).http_request("GET", "/artifacts/s/d")
                assert excinfo.value.status == 401
                with pytest.raises(ServiceAuthError):
                    ServiceClient(peer, token="bad").http_request(
                        "GET", "/artifacts/s/d"
                    )
                reply = ServiceClient(peer, token=TOKEN).http_request(
                    "GET", "/artifacts/s/d"
                )
                assert pickle.loads(reply["blob"]) == {"weights": [1.0]}
            finally:
                agent.stop()
                thread.join(timeout=10.0)
            assert not thread.is_alive()

    def test_http_plane_rejects_unauthenticated_submit(self, live_service):
        service, *_ = live_service
        naked = ServiceClient(service.address)
        with pytest.raises(ServiceAuthError):
            naked.submit(TINY, GRID_B)
        with pytest.raises(ServiceAuthError):
            ServiceClient(service.address, token="bad").fleet()

    def test_worker_cli_exits_2_on_rejected_token(
        self, live_service, capsys, monkeypatch
    ):
        from repro.cli import main
        from repro.cluster import format_address

        service, *_ = live_service
        monkeypatch.delenv("REPRO_CLUSTER_TOKEN", raising=False)
        exit_code = main([
            "cluster", "worker", "--coordinator",
            format_address(service.address), "--max-idle-s", "5",
        ])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert captured.err.startswith("error:")
        assert "auth" in captured.err
        assert "job(s) done" not in captured.out

    def test_tokenless_service_accepts_anonymous(self):
        service = ExperimentService()  # no token: auth disabled
        service.start()
        try:
            reply = ServiceClient(service.address).fleet()
            assert reply["sweeps"] == {}
        finally:
            service.stop()
