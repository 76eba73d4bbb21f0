"""The worker agent: lease → pull → run → push → complete, forever.

A :class:`WorkerAgent` is one long-running loop against a coordinator
address.  Each granted job names a config (in wire form) and a chain
depth; the worker

1. pulls whichever upstream artifacts its local store is missing
   (:class:`~repro.cluster.sync.ArtifactSync`),
2. runs the chain prefix through the ordinary
   :class:`~repro.pipeline.stages.ExperimentPipeline` against its local
   :class:`~repro.pipeline.store.ArtifactStore` — cluster execution and
   single-host execution are the same code path,
3. pushes every chain artifact the coordinator is missing, and
4. reports completion with its timings (idempotent: a worker whose
   lease expired mid-run still completes harmlessly).

A background thread heartbeats the lease while the job runs.  Job
exceptions are reported with ``fail`` (the coordinator requeues the job
elsewhere); connection errors are retried until ``max_idle_s`` of
continuous unreachability, after which the agent exits — which is how
workers outlive a coordinator restart but don't linger forever after a
sweep ends.  Every request is one HTTP exchange through
:class:`~repro.cluster.http_api.ServiceClient`.

**Peer serving.**  The agent also runs the service's own endpoint
class (:class:`~repro.cluster.http_api.HttpEndpoint`) over its local
store on an ephemeral port — its one listener — and advertises that
port in ``hello``.  The coordinator pairs it with the
hello's client address, which is loopback when the coordinator is: an
agent with a loopback coordinator (every local fleet) listens on
loopback only (:func:`_peer_bind_host`), any other on every interface.
It serves only the artifact download route, under the fleet's bearer
token.  Other workers then pull this worker's artifacts directly
instead of routing every byte through the coordinator — see
:class:`~repro.cluster.sync.ArtifactSync` for the pull policy and
``docs/cluster.md`` for the fabric topology.  The endpoint only ever
*reads* the local store, answers 404 for keys it does not hold (the
puller falls back to the hub), and dies with the agent.  A peer this
agent failed to reach is skipped for the rest of its life.
"""

from __future__ import annotations

import os
import socket
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.cluster.http_api import (
    ArtifactEndpoint,
    HttpEndpoint,
    ServiceAuthError,
    ServiceClient,
    ServiceError,
)
from repro.cluster.protocol import is_loopback_host
from repro.cluster.sync import ArtifactSync
from repro.core.config import SparkXDConfig
from repro.pipeline.stages import ExperimentPipeline, default_stage_classes
from repro.pipeline.store import ArtifactStore
from repro.telemetry import (
    adopt_context,
    get_logger,
    get_metrics,
    span,
    telemetry_snapshot,
)

LOG = get_logger(__name__)

#: Seconds between retries while the coordinator is unreachable, and
#: between lease polls when its reply names no wait.
RETRY_S = 0.5

#: Connect and read timeout of the agent's coordinator requests.
CLIENT_TIMEOUT_S = 30.0


def _peer_bind_host(coordinator_host: str) -> str:
    """The interface a worker's peer endpoint listens on.

    Loopback for a loopback coordinator: the worker then reaches it
    from ``127.0.0.1`` or ``::1``, the address the coordinator
    advertises to peers.  Every interface otherwise.
    """
    if not is_loopback_host(coordinator_host):
        return "0.0.0.0"
    return "::1" if ":" in coordinator_host else "127.0.0.1"


def default_worker_name() -> str:
    """``host-pid-nonce``: unique per agent, stable for its lifetime."""
    return f"{socket.gethostname()}-{os.getpid()}-{uuid.uuid4().hex[:6]}"


@dataclass
class WorkerStats:
    """What one agent did over its lifetime."""

    jobs_done: int = 0
    jobs_failed: int = 0
    #: Stable slot index the coordinator assigned on ``hello`` (None
    #: until registration succeeds; registration is best-effort).
    slot: Optional[int] = None
    artifacts_pulled: int = 0
    artifacts_pushed: int = 0
    bytes_pulled: int = 0
    bytes_pushed: int = 0
    #: Raw pulled bytes split by who served them (peer fabric vs hub),
    #: and the on-the-wire sizes after optional gzip.
    bytes_pulled_peer: int = 0
    bytes_pulled_hub: int = 0
    wire_bytes_pulled: int = 0
    wire_bytes_pushed: int = 0
    #: Pulls that had peer candidates but fell back to the hub, and
    #: hub round trips retried after transient transport errors.
    peer_fallbacks: int = 0
    sync_retries: int = 0
    #: What this worker's own peer endpoint handed out.
    peer_served: int = 0
    peer_served_bytes: int = 0
    sync_s: float = 0.0
    exec_s: float = 0.0
    errors: list = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "slot": self.slot,
            "jobs_done": self.jobs_done,
            "jobs_failed": self.jobs_failed,
            "artifacts_pulled": self.artifacts_pulled,
            "artifacts_pushed": self.artifacts_pushed,
            "bytes_pulled": self.bytes_pulled,
            "bytes_pushed": self.bytes_pushed,
            "bytes_pulled_peer": self.bytes_pulled_peer,
            "bytes_pulled_hub": self.bytes_pulled_hub,
            "wire_bytes_pulled": self.wire_bytes_pulled,
            "wire_bytes_pushed": self.wire_bytes_pushed,
            "peer_fallbacks": self.peer_fallbacks,
            "sync_retries": self.sync_retries,
            "peer_served": self.peer_served,
            "peer_served_bytes": self.peer_served_bytes,
            "sync_s": self.sync_s,
            "exec_s": self.exec_s,
            "errors": list(self.errors),
        }


class _LeaseHeartbeat:
    """Renews one lease from a daemon thread while a job runs."""

    def __init__(
        self,
        client: ServiceClient,
        worker: str,
        job_id: str,
        interval: float,
        sweep_id: Optional[str],
    ):
        self._client = client
        self._worker = worker
        self._job_id = job_id
        self._sweep_id = sweep_id
        self._interval = max(0.05, interval)
        self._stop = threading.Event()
        self.lease_lost = False
        self._thread = threading.Thread(
            target=self._run, name=f"heartbeat-{job_id}", daemon=True
        )

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            request = {
                "worker": self._worker,
                "sweep_id": self._sweep_id,
                "job_id": self._job_id,
                # Periodic beats are the natural piggyback for
                # the cumulative metrics snapshot: the
                # coordinator's fleet view stays fresh while a
                # long job runs, at zero extra round trips.
                "telemetry": telemetry_snapshot(),
            }
            try:
                reply = self._client.http_request("POST", "/worker/heartbeat", request)
                if not reply.get("ok", False):
                    # Lease revoked (expiry raced us).  Keep computing:
                    # completion is idempotent and content-addressed, so
                    # finishing is still useful — but remember it.
                    self.lease_lost = True
            except ServiceAuthError:
                # The main loop will hit the same rejection on its next
                # request and exit loudly; beating again is pointless.
                self.lease_lost = True
                return
            except (OSError, ServiceError):
                pass  # transient; the next beat retries

    def __enter__(self) -> "_LeaseHeartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join(timeout=2.0)


class WorkerAgent:
    """One cluster worker: leases jobs from a coordinator until told to stop.

    Parameters
    ----------
    address:
        Coordinator ``host:port`` (string or tuple).
    name:
        Stable worker identity; defaults to ``host-pid-nonce``.
    store:
        Local artifact store (in-memory by default; pass a disk-backed
        store to survive agent restarts without re-pulling).
    max_idle_s:
        Continuous coordinator-unreachable seconds before the agent
        gives up and returns.  Polling ``wait`` replies does not count —
        only connection failures do.
    max_jobs:
        Optional ceiling on completed jobs, after which the agent
        returns (tests and controlled-drain scenarios; ``None`` =
        unlimited).
    peer_port:
        Fixed port for the peer endpoint (0 = ephemeral, the default).
    token:
        Shared cluster secret: sent as the bearer token of every
        request, and required of every peer pulling from this agent.
        A token-requiring coordinator rejects tokenless workers with a
        :class:`~repro.cluster.http_api.ServiceAuthError`, on which
        this agent exits immediately and loudly (recorded in
        ``stats.errors`` and kept as :attr:`auth_error`, which ``repro
        cluster worker`` turns into exit 2) — an auth mismatch is a
        deployment error, not a transient.
    """

    def __init__(
        self,
        address: Any,
        name: Optional[str] = None,
        store: Optional[ArtifactStore] = None,
        max_idle_s: float = 30.0,
        max_jobs: Optional[int] = None,
        peer_port: int = 0,
        token: Optional[str] = None,
    ):
        self.client = ServiceClient(address, token=token, timeout=CLIENT_TIMEOUT_S)
        self.name = name or default_worker_name()
        self.store = store if store is not None else ArtifactStore()
        self.max_idle_s = float(max_idle_s)
        self.max_jobs = None if max_jobs is None else int(max_jobs)
        self.peer_port = int(peer_port)
        self.stats = WorkerStats()
        self._peer_endpoint: Optional[HttpEndpoint] = None
        self._said_hello = False
        self._stop = threading.Event()
        #: The coordinator's rejection of our token, once it happened.
        self.auth_error: Optional[ServiceAuthError] = None
        #: (stage, digest) keys this agent holds locally — computed or
        #: pulled this session.  Reported on lease requests (only when
        #: changed since the last delivered report — the coordinator
        #: remembers the previous one, so idle wait-polls stay small)
        #: so the peer routing table can send other workers here for
        #: them.
        self._holding: set = set()
        self._holding_reported = False
        #: Peer addresses that failed at the transport level, shared by
        #: every job's :class:`~repro.cluster.sync.ArtifactSync`: an
        #: unreachable peer costs one timeout per agent, not per job.
        self._dead_peers: set = set()

    def stop(self) -> None:
        """Ask the agent loop to exit after the current request."""
        self._stop.set()

    # ------------------------------------------------------------------
    def _register(self) -> None:
        """Send ``hello``: slot and peer registration.

        Best-effort — a coordinator that is still starting up learns
        our name from the first lease instead, and ``_said_hello``
        stays False so the next reconnect retries (a *restarted*
        coordinator must relearn our peer address).
        """
        request: Dict[str, Any] = {
            "worker": self.name,
            "peer_port": self._peer_endpoint.address[1],
            "telemetry": telemetry_snapshot(),
        }
        try:
            reply = self.client.http_request("POST", "/worker/hello", request)
        except ServiceAuthError:
            raise  # deployment error: surface through the run loop
        except (OSError, ServiceError):
            return
        if "slot" in reply:
            self.stats.slot = int(reply["slot"])
        self._said_hello = True

    def run_forever(self) -> WorkerStats:
        """Serve jobs until the coordinator says shutdown (or vanishes)."""
        self._peer_endpoint = HttpEndpoint(
            ArtifactEndpoint(self.store),
            token=self.client.token,
            host=_peer_bind_host(self.client.address[0]),
            port=self.peer_port,
        ).start()
        try:
            return self._run_loop()
        finally:
            served = self._peer_endpoint.artifacts.transfer_stats()
            self.stats.peer_served = served["get_count"]
            self.stats.peer_served_bytes = served["get_bytes"]
            self._peer_endpoint.stop()
            self._peer_endpoint = None

    def _run_loop(self) -> WorkerStats:
        try:
            return self._lease_loop()
        except ServiceAuthError as error:
            # Loud, immediate exit: a token mismatch never heals by
            # retrying, and silently polling through it would look like
            # a healthy-but-idle worker to the operator.
            message = f"authentication rejected by coordinator: {error}"
            self.stats.errors.append(message)
            self.auth_error = error
            get_metrics().counter("worker.auth_rejects").inc()
            LOG.error("worker auth rejected", extra={"worker": self.name})
            return self.stats

    def _lease_loop(self) -> WorkerStats:
        # Register up front so the coordinator assigns the stable slot
        # (and learns our peer address) before any lease, and
        # monitoring sees the worker immediately.
        self._register()
        unreachable_since: Optional[float] = None
        while not self._stop.is_set():
            if self.max_jobs is not None and self.stats.jobs_done >= self.max_jobs:
                break
            if not self._said_hello:
                self._register()
            request: Dict[str, Any] = {
                "worker": self.name,
                "telemetry": telemetry_snapshot(),
            }
            if self._holding and not self._holding_reported:
                request["holding"] = sorted(list(key) for key in self._holding)
            try:
                reply = self.client.http_request("POST", "/worker/lease", request)
            except ServiceAuthError:
                raise  # handled (loudly) one frame up
            except (OSError, ServiceError) as error:
                # The coordinator may be restarting (a killed service
                # rerun on its store): its holdings map and peer
                # registry start empty, so re-hello and re-report ours
                # when it comes back.
                self._holding_reported = False
                self._said_hello = False
                now = time.monotonic()
                if unreachable_since is None:
                    unreachable_since = now
                if now - unreachable_since >= self.max_idle_s:
                    self.stats.errors.append(f"coordinator unreachable: {error}")
                    break
                self._stop.wait(RETRY_S)
                continue
            unreachable_since = None
            if "holding" in request:
                self._holding_reported = True  # delivered; resend on change
            if reply.get("shutdown"):
                if reply.get("reason"):
                    self.stats.errors.append(
                        f"coordinator shut the sweep down: {reply['reason']}"
                    )
                break
            job = reply.get("job")
            if job is None:
                self._stop.wait(float(reply.get("wait", RETRY_S)))
                continue
            self._execute(
                job,
                sources=reply.get("sources"),
                trace=reply.get("trace"),
                sweep_id=reply.get("sweep_id"),
            )
        return self.stats

    # ------------------------------------------------------------------
    def _execute(
        self,
        job: Dict[str, Any],
        sources: Optional[Any],
        trace: Optional[Dict[str, str]],
        sweep_id: Optional[str],
    ) -> None:
        job_id = str(job["job_id"])
        depth = int(job["depth"])
        lease_s = float(job.get("lease_s", 30.0))
        config = SparkXDConfig.from_wire(job["config"])
        chain = tuple(cls() for cls in default_stage_classes()[: depth + 1])
        sync = ArtifactSync(
            self.client,
            self.store,
            sources=sources or (),
            dead_peers=self._dead_peers,
        )
        started = time.perf_counter()
        try:
            # The heartbeat must span the *whole* job — artifact pulls
            # and pushes included: on a slow network a multi-MB sync can
            # outlast the lease, and an unrenewed lease would requeue a
            # job that is making perfectly healthy progress.
            with _LeaseHeartbeat(
                self.client, self.name, job_id, lease_s / 3.0, sweep_id=sweep_id
            ) as heartbeat, adopt_context(trace), span(
                "cluster.job",
                job=str(job.get("display_id", job_id)),
                stage=str(job.get("stage", "")),
                worker=self.name,
                # The tenant dimension: "" in single-sweep mode, the
                # service's sweep_id otherwise, so fleet traces split
                # per tenant (docs/telemetry.md).
                sweep=str(sweep_id or ""),
            ):
                # Upstream artifacts first: everything the chain prefix
                # could restore instead of recompute.  Anything the
                # coordinator is also missing (partial eviction) is
                # simply recomputed here — the pipeline handles it
                # transparently.
                sync.pull_missing(
                    [(stage.name, stage.cache_key(config)) for stage in chain[:-1]]
                )
                pipeline = ExperimentPipeline(config, stages=chain, store=self.store)
                pipeline.run_stages()
                sync.push_missing(
                    [(stage.name, stage.cache_key(config)) for stage in chain]
                )
        except Exception as error:  # report and move on to the next lease
            self.stats.jobs_failed += 1
            get_metrics().counter("worker.jobs_failed").inc()
            message = f"{type(error).__name__}: {error}"
            self.stats.errors.append(f"{job_id}: {message}")
            LOG.warning(
                "job failed",
                extra={"job_id": job_id, "worker": self.name, "reason": message},
            )
            report = {
                "worker": self.name,
                "sweep_id": sweep_id,
                "job_id": job_id,
                "error": message,
            }
            try:
                self.client.http_request("POST", "/worker/fail", report)
            except ServiceAuthError:
                raise  # handled (loudly) one frame up
            except (OSError, ServiceError):
                pass  # lease expiry will requeue it anyway
            return
        wall_s = time.perf_counter() - started
        stats = dict(sync.stats_dict())
        stats.update(
            {
                "worker": self.name,
                "exec_s": dict(pipeline.stage_timings),
                "wall_s": wall_s,
                # True when an expiry raced the computation: the
                # coordinator may have re-leased this job elsewhere,
                # making our (still accepted, idempotent) completion a
                # duplicate.
                "lease_lost": heartbeat.lease_lost,
            }
        )
        # Everything in the chain is now local: report it on the next
        # lease so the routing table can point peers here for it.
        before = len(self._holding)
        self._holding.update(
            (stage.name, stage.cache_key(config)) for stage in chain
        )
        if len(self._holding) != before:
            self._holding_reported = False
        self.stats.jobs_done += 1
        get_metrics().counter("worker.jobs_done").inc()
        self.stats.artifacts_pulled += sync.pulled
        self.stats.artifacts_pushed += sync.pushed
        self.stats.bytes_pulled += sync.pulled_bytes
        self.stats.bytes_pushed += sync.pushed_bytes
        self.stats.bytes_pulled_peer += sync.pulled_bytes_peer
        self.stats.bytes_pulled_hub += sync.pulled_bytes_hub
        self.stats.wire_bytes_pulled += sync.pulled_wire_bytes
        self.stats.wire_bytes_pushed += sync.pushed_wire_bytes
        self.stats.peer_fallbacks += sync.peer_fallbacks
        self.stats.sync_retries += sync.retries
        self.stats.sync_s += sync.seconds
        self.stats.exec_s += sum(pipeline.stage_timings.values())
        completion = {
            "worker": self.name,
            "sweep_id": sweep_id,
            "job_id": job_id,
            "stats": stats,
            "telemetry": telemetry_snapshot(),
        }
        try:
            reply = self.client.http_request("POST", "/worker/complete", completion)
        except ServiceAuthError:
            raise  # handled (loudly) one frame up
        except (OSError, ServiceError) as error:
            # The artifacts are pushed; a lost completion only costs a
            # redundant re-lease of an already-satisfiable job.
            self.stats.errors.append(f"{job_id}: completion not delivered: {error}")
            return
        # The coordinator folds the completed chain into its routing
        # table server-side; when its count for us matches what we hold
        # locally there is nothing to re-report on the next lease.  A
        # mismatch (restarted coordinator, partial knowledge) keeps the
        # full re-report scheduled.
        holding = reply.get("holding")
        if holding is not None and int(holding) == len(self._holding):
            self._holding_reported = True
