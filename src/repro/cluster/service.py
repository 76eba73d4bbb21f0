"""The experiment service: the one coordinator, many sweeps, one port.

:class:`ExperimentService` is the cluster's coordinator.  One stdlib
HTTP server (:class:`~repro.cluster.http_api.HttpEndpoint`) serves
every route of :data:`~repro.cluster.http_api.ROUTES` on one port and
calls the service directly:

- **worker routes** (``/worker/...``, ``/artifacts/...``): workers stay
  generic — one :meth:`~ExperimentService.lease` draws from *any*
  active sweep, and the grant carries a ``sweep_id`` the worker names
  back on heartbeat/complete/fail (:meth:`~ExperimentService.plan`
  routes the report; one naming no live tenant is refused);
- **control routes** (`POST /sweeps`, `GET /sweeps/{id}`,
  `POST /sweeps/{id}/cancel`, `GET /sweeps/{id}/results`,
  `GET /fleet`), through which clients submit and harvest sweeps.

Each tenant (:class:`ManagedSweep`) owns its
:class:`~repro.cluster.plan.SweepPlan`, while every tenant shares ONE
:class:`~repro.pipeline.store.ArtifactStore` (cross-sweep fingerprint
dedupe comes for free: a stage another tenant already computed needs
no job at all) and ONE :class:`~repro.cluster.plan.WorkerRegistry`
(liveness, holdings and the peer routing table describe the whole
fleet).  Lease grants name the live peers holding a job's upstream
keys, so artifact bytes flow worker-to-worker; the store, served
through :attr:`ExperimentService.artifacts`, receives every newly
computed artifact and serves any pull a peer cannot.

Telemetry rides the worker routes: a request's optional ``telemetry``
field (:func:`repro.telemetry.telemetry_snapshot`, cumulative) replaces
that worker's previous one, and the fleet view merges the latest per
worker with the service's own registry.

Sweep identity is deterministic: ``sweep_id`` fingerprints the config ×
grid, so an identical submission reattaches to the registered tenant.
The store is the one resume mechanism: a service restarted on the same
disk store (``cluster serve --cache-dir``) plans a resubmitted sweep
with no job for any artifact it already holds — the restart story is
"resubmit everything, re-execute nothing".  Scheduling state lives in
plans (thread-safe, lock-based), so requests run on the server's
per-connection threads; a separate thread expires the leases of
workers that went quiet.

``shutdown_when_idle=True`` is the single-shot lifecycle (workers get
``shutdown`` once every submitted sweep finished).
:meth:`~repro.cluster.executor.ClusterExecutor.run` — behind
``Runner(max_workers=N)`` and ``repro sweep --workers N`` — is exactly
that: an embedded serve → submit → wait → assemble composition, one
sweep, then the service stops.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.cluster.http_api import ArtifactEndpoint, HttpEndpoint
from repro.cluster.plan import JOB_STATES, PlanFailed, SweepPlan, WorkerRegistry
from repro.cluster.protocol import format_address
from repro.core.config import SparkXDConfig
from repro.pipeline.runner import RunRecord
from repro.pipeline.stages import ExperimentPipeline
from repro.pipeline.store import ArtifactStore, fingerprint
from repro.telemetry import current_context, get_logger, get_metrics, merge_snapshots

LOG = get_logger(__name__)


def sweep_identity(
    base_config: SparkXDConfig, grid: Mapping[str, Sequence[Any]]
) -> str:
    """Deterministic sweep id: fingerprint of the config × grid.

    Stable across processes, restarts, and the JSON round trip of the
    control plane (``canonical_form`` normalises tuples vs. lists), so
    an identical concurrent submission reattaches instead of
    duplicating work.
    """
    return fingerprint(
        {"config": base_config.to_wire(), "grid": dict(grid)}
    )[:12]


class DistributionTimeout(TimeoutError):
    """``wait_timeout`` elapsed with the sweep still incomplete.

    Carries the scheduling diagnostics an operator needs to tell "no
    workers ever connected" apart from "a worker went quiet mid-sweep":
    ``counts`` is the job-state histogram at expiry and ``worker_ages``
    maps each known worker to seconds since its last contact.
    """

    def __init__(
        self,
        message: str,
        counts: Dict[str, int],
        worker_ages: Dict[str, float],
    ):
        super().__init__(message)
        self.counts = dict(counts)
        self.worker_ages = dict(worker_ages)


def wait_for_sweep(
    status: Callable[[], Dict[str, Any]],
    worker_ages: Callable[[], Dict[str, float]],
    address: Tuple[str, int],
    timeout: Optional[float] = None,
    poll_s: float = 0.05,
) -> Dict[str, Any]:
    """Poll ``status()`` until the sweep leaves ``running``.

    The one sweep-wait loop, in process (:meth:`ExperimentService.wait`)
    and over HTTP (:meth:`ServiceClient.wait
    <repro.cluster.http_api.ServiceClient.wait>`).  ``status`` returns
    a ``GET /sweeps/{id}`` body, the final one of which is returned;
    ``worker_ages`` is only asked once ``timeout`` has elapsed.  Raises
    :class:`~repro.cluster.plan.PlanFailed` on a failed sweep and
    :class:`DistributionTimeout` on timeout, whose message tells "no
    worker ever connected" apart from "a worker went quiet".
    """
    deadline = None if timeout is None else time.monotonic() + float(timeout)
    while True:
        body = status()
        state = body.get("state")
        if state == "failed":
            raise PlanFailed(str(body.get("failure") or "sweep failed"))
        if state in ("done", "cancelled"):
            return body
        if deadline is not None and time.monotonic() > deadline:
            counts = {key: int(body.get(key, 0)) for key in JOB_STATES}
            ages = worker_ages()
            contacts = (
                ", ".join(
                    f"{name} seen {age:.1f}s ago"
                    for name, age in sorted(ages.items(), key=lambda kv: kv[1])
                )
                or "none ever connected"
            )
            raise DistributionTimeout(
                f"sweep {body.get('sweep_id')} incomplete after {timeout}s "
                f"(job states: {counts}; workers: {contacts}) — are "
                f"workers connected to {format_address(address)}?",
                counts=counts,
                worker_ages=ages,
            )
        time.sleep(max(0.01, float(poll_s)))


@dataclass
class ManagedSweep:
    """One tenant: its plan and its lifecycle state."""

    sweep_id: str
    plan: SweepPlan
    name: Optional[str] = None
    #: Trace context adopted by lease grants of THIS sweep (the
    #: submitter's active span), so worker job spans join the
    #: submitting client's trace, tenant by tenant.
    trace_context: Optional[Dict[str, str]] = None
    #: Assembled records, cached after the first ``results`` call —
    #: assembly is deterministic, so one pass serves every poller.
    records: Optional[List[RunRecord]] = None

    @property
    def state(self) -> str:
        plan = self.plan
        if plan.failed:
            return "failed"
        if plan.cancelled:
            return "cancelled"
        if plan.done:
            return "done"
        return "running"

    def describe(self) -> Dict[str, Any]:
        """The ``GET /sweeps/{id}`` body: state, job counts, failure."""
        plan = self.plan
        payload: Dict[str, Any] = {
            "sweep_id": self.sweep_id,
            "name": self.name,
            "state": self.state,
            "plan_id": plan.plan_id,
            "grid_points": len(plan.configs),
            "failure": plan.failure,
        }
        payload.update(plan.counts())
        return payload


def assemble_point(
    plan: SweepPlan,
    store: ArtifactStore,
    params: Mapping[str, Any],
    config: SparkXDConfig,
    keys: Sequence[Tuple[str, str]],
    owned: Sequence[Tuple[str, str]],
) -> RunRecord:
    """Assemble one grid point's :class:`RunRecord` from a warmed store.

    Identical in values to one iteration of :meth:`Runner.run`'s
    assembly loop.  ``owned`` are the chain ``keys`` this point computed
    (:meth:`ExperimentService.results` gives each job's key to the first
    grid point that needs it), so the execution fields tell what a
    serial run would: those keys are the misses, the rest are hits,
    only those jobs' ``cluster/…`` placement/transfer entries land in
    ``stage_timings``, and ``wall_time_s`` is their worker ``exec_s`` +
    ``sync_s`` plus this assembly.  Every key must already be in the
    store — :meth:`ExperimentService.results` requires a done plan.
    """
    started = time.perf_counter()
    # A stats view keeps this read out of the shared store's hit/miss
    # counters (the record's counts come from ``owned``).
    result = ExperimentPipeline(config, store=store.stats_view()).run()
    timings: Dict[str, float] = {}
    job_s = 0.0
    for (stage_name, digest) in owned:
        stats = plan.job_for(stage_name, digest).stats
        if not stats:
            continue
        exec_s = stats.get("exec_s") or {}
        job_s += sum(exec_s.values()) + float(stats.get("sync_s", 0.0))
        prefix = f"cluster/{stage_name}"
        if stage_name in exec_s:
            timings[prefix] = float(exec_s[stage_name])
        timings[f"{prefix}:sync_s"] = float(stats.get("sync_s", 0.0))
        timings[f"{prefix}:sync_bytes"] = float(
            stats.get("pulled_bytes", 0)
        ) + float(stats.get("pushed_bytes", 0))
        timings[f"{prefix}:worker"] = float(stats.get("slot", -1))
    return RunRecord.from_result(
        result,
        params=params,
        wall_time_s=job_s + time.perf_counter() - started,
        cache_hits=len(keys) - len(owned),
        cache_misses=len(owned),
        stage_timings=timings,
    )


class ExperimentService:
    """The coordinator: multi-sweep scheduling behind one HTTP port.

    Parameters
    ----------
    store:
        The one shared artifact store (in-memory by default; pass a
        disk-backed store for real deployments).
    host / port:
        Bind address of the one listener that workers and clients
        share (port 0 = ephemeral; read :attr:`address` after
        :meth:`start`).
    token:
        Shared secret required as a bearer token on every route;
        ``None`` disables auth.
    lease_timeout / max_attempts:
        Scheduling semantics, applied to every tenant plan (see
        :class:`~repro.cluster.plan.SweepPlan`).
    poll_s:
        The ``wait`` a lease reply asks an idle worker to sleep.
    shutdown_when_idle:
        ``True`` is the single-shot lifecycle: once every submitted
        sweep is finished (done, failed or cancelled), workers are told
        to shut down.  The default ``False`` never answers
        ``shutdown``: idle workers poll for future submissions.
    """

    def __init__(
        self,
        store: Optional[ArtifactStore] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        token: Optional[str] = None,
        lease_timeout: float = 30.0,
        max_attempts: int = 3,
        poll_s: Optional[float] = None,
        shutdown_when_idle: bool = False,
    ):
        self.store = store if store is not None else ArtifactStore()
        self.bind_host = str(host)
        self.bind_port = int(port)
        self.token = token
        self.lease_timeout = float(lease_timeout)
        self.max_attempts = int(max_attempts)
        self.poll_s = (
            float(poll_s)
            if poll_s is not None
            else min(1.0, self.lease_timeout / 4.0)
        )
        self.shutdown_when_idle = bool(shutdown_when_idle)
        self.registry = WorkerRegistry(
            liveness_window_s=3.0 * self.lease_timeout
        )
        #: The hub's artifact side: what it served (get) and received
        #: (put).  The peer-fabric checks assert served get bytes are 0
        #: when workers pull from each other instead.
        self.artifacts = ArtifactEndpoint(self.store)
        self._lock = threading.Lock()
        self._sweeps: Dict[str, ManagedSweep] = {}
        self._order: List[str] = []  # submission order = lease priority
        #: Latest telemetry snapshot per worker (guarded by its own
        #: lock: snapshot ingest must not contend with tenant lookups).
        self._telemetry_lock = threading.Lock()
        self._telemetry: Dict[str, Dict[str, Any]] = {}
        #: The bound address, set by :meth:`start`.
        self.address: Optional[Tuple[str, int]] = None
        self._endpoint: Optional[HttpEndpoint] = None
        self._stopping = threading.Event()
        self._expiry_thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # Tenant registry.

    def _tenants(self) -> Tuple[ManagedSweep, ...]:
        with self._lock:
            return tuple(self._sweeps[sweep_id] for sweep_id in self._order)

    def submit(
        self,
        base_config: SparkXDConfig,
        grid: Mapping[str, Sequence[Any]],
        *,
        name: Optional[str] = None,
    ) -> ManagedSweep:
        """Register a sweep; idempotent on the deterministic sweep id.

        A running or done tenant with the same id is reattached; a
        cancelled or failed one is replaced by a fresh plan.  A
        fingerprint already in the store gets no job, so a replaced
        tenant, or a sweep resubmitted to a service restarted on the
        same store, executes only what is missing.  Worker job spans
        parent under the caller's current span, so an in-process
        submitter (:class:`~repro.cluster.ClusterExecutor`) sees them
        in its own trace.
        """
        sweep_id = sweep_identity(base_config, grid)
        with self._lock:
            existing = self._sweeps.get(sweep_id)
            if existing is not None and existing.state in ("running", "done"):
                # Reattach: same config × grid is the same sweep.  The
                # done work is shared; the caller polls the same id.
                return existing
            plan = SweepPlan(
                base_config,
                grid,
                self.store,
                lease_timeout=self.lease_timeout,
                max_attempts=self.max_attempts,
                registry=self.registry,
            )
            managed = ManagedSweep(
                sweep_id=sweep_id,
                plan=plan,
                name=name,
                trace_context=current_context(),
            )
            self._sweeps[sweep_id] = managed
            if existing is not None:
                self._order.remove(sweep_id)
            self._order.append(sweep_id)
        get_metrics().counter("service.sweeps_submitted").inc()
        LOG.info(
            "sweep submitted",
            extra={
                "sweep_id": sweep_id,
                "sweep_name": name,
                "jobs": len(plan.jobs),
            },
        )
        return managed

    def _get(self, sweep_id: Any) -> ManagedSweep:
        with self._lock:
            managed = self._sweeps.get(str(sweep_id))
        if managed is None:
            raise KeyError(f"unknown sweep {sweep_id!r}")
        return managed

    def plan(self, sweep_id: Any) -> Optional[SweepPlan]:
        """The plan of the tenant a job report names, if it is known."""
        with self._lock:
            managed = self._sweeps.get(str(sweep_id))
        return None if managed is None else managed.plan

    def describe(self, sweep_id: str) -> Dict[str, Any]:
        """One tenant's ``GET /sweeps/{id}`` body (:meth:`ManagedSweep.describe`)."""
        return self._get(sweep_id).describe()

    def cancel(self, sweep_id: str) -> Dict[str, Any]:
        """Withdraw a tenant: frees its live leases, grants nothing new."""
        managed = self._get(sweep_id)
        freed = managed.plan.cancel()
        get_metrics().counter("service.sweeps_cancelled").inc()
        LOG.info(
            "sweep cancelled",
            extra={"sweep_id": managed.sweep_id, "leases_freed": freed},
        )
        return {
            "sweep_id": managed.sweep_id,
            "state": managed.state,
            "leases_freed": freed,
        }

    def results(self, sweep_id: str) -> List[RunRecord]:
        """Assemble (once) and return a finished sweep's records.

        Raises :class:`KeyError` for unknown ids,
        :class:`~repro.cluster.plan.PlanFailed` for failed sweeps, and
        :class:`RuntimeError` while the sweep is still running or was
        cancelled — the HTTP layer maps those to 404/409.
        """
        managed = self._get(sweep_id)
        if managed.records is not None:
            return list(managed.records)
        plan = managed.plan
        plan.raise_on_failure()
        if plan.cancelled:
            raise RuntimeError(f"sweep {sweep_id} was cancelled")
        if not plan.done:
            counts = plan.counts()
            raise RuntimeError(
                f"sweep {sweep_id} is not complete (job states: {counts})"
            )
        # Each key a job of this sweep produced is owned by the first
        # grid point that needs it.
        owner: Dict[Tuple[str, str], int] = {}
        for index, keys in enumerate(plan.chain_keys):
            for key in keys:
                if plan.job_for(*key) is not None:
                    owner.setdefault(key, index)
        records = [
            assemble_point(
                plan, self.store, params, config, keys,
                [key for key in keys if owner.get(key) == index],
            )
            for index, (params, config, keys) in enumerate(
                zip(plan.param_sets, plan.configs, plan.chain_keys)
            )
        ]
        managed.records = records
        return list(records)

    def wait(self, sweep_id: str, timeout: Optional[float] = None) -> Dict[str, Any]:
        """Block until a sweep leaves ``running``, polling every 0.05 s;
        returns its final ``GET /sweeps/{id}`` body (:func:`wait_for_sweep`)."""
        return wait_for_sweep(
            self._get(sweep_id).describe,
            self.registry.ages,
            self.address,
            timeout=timeout,
            poll_s=0.05,
        )

    def fleet(self) -> Dict[str, Any]:
        """The whole-service view (``GET /fleet``, ``cluster status``):
        job-state totals, the first failure, worker ages, the hub's
        transfer counters, aggregated worker telemetry and every
        tenant's ``GET /sweeps/{id}`` body under ``sweeps``."""
        sweeps = {tenant.sweep_id: tenant.describe() for tenant in self._tenants()}
        payload: Dict[str, Any] = {
            state: sum(entry[state] for entry in sweeps.values())
            for state in JOB_STATES
        }
        payload["failure"] = next(
            (e["failure"] for e in sweeps.values() if e["failure"] is not None),
            None,
        )
        payload["workers"] = {
            name: round(age, 3) for name, age in self.registry.ages().items()
        }
        payload["transfers"] = self.artifacts.transfer_stats()
        payload["telemetry"] = self.telemetry_view()
        payload["sweeps"] = sweeps
        return payload

    # ------------------------------------------------------------------
    # Worker requests.

    def hello(self, worker: str, host: str, peer_port: Any = None) -> Dict[str, Any]:
        """Register ``worker``; a ``peer_port`` at ``host`` joins routing."""
        if peer_port is not None:
            self.registry.register_peer(worker, host, int(peer_port))
        else:
            self.registry.touch(worker)
        return {"ok": True, "slot": self.registry.slot(worker)}

    def lease(self, worker: str, holding: Optional[Any] = None) -> Dict[str, Any]:
        """A grant from *any* active tenant, else ``wait`` or ``shutdown``."""
        if holding is not None:
            self.registry.set_holdings(worker, holding)
        tenants = self._tenants()
        for tenant in tenants:
            plan = tenant.plan
            if plan.failed or plan.cancelled:
                continue
            job = plan.lease(worker)
            if job is None:
                continue
            # The worker names ``sweep_id`` back on every report.
            reply: Dict[str, Any] = {
                "job": job.to_wire(plan.lease_timeout),
                "sweep_id": tenant.sweep_id,
            }
            # Routing hints ride along with the grant: peer addresses
            # for every upstream key some live peer holds, so the
            # worker pulls those inputs peer-first.
            sources = self.registry.locate(job.upstream, exclude=worker)
            if sources:
                reply["sources"] = sources
            if tenant.trace_context:
                # Workers adopt this as the remote parent of their job
                # spans.
                reply["trace"] = dict(tenant.trace_context)
            return reply
        # Nothing grantable right now.  Note "reason", not "error": a
        # graceful plan-failed shutdown must not read as a failed
        # request.
        if self.shutdown_when_idle and tenants and all(
            tenant.state != "running" for tenant in tenants
        ):
            reply = {"shutdown": True}
            reason = next(
                (t.plan.failure for t in tenants if t.plan.failure is not None),
                None,
            )
            if reason is not None:
                reply["reason"] = reason
            return reply
        return {"wait": self.poll_s}

    def ingest_telemetry(self, worker: str, snapshot: Any) -> None:
        """Keep ``worker``'s latest snapshot (a request's ``telemetry``)."""
        if not isinstance(snapshot, dict) or not snapshot:
            return  # absent, or a malformed field from a foreign client
        with self._telemetry_lock:
            self._telemetry[worker] = snapshot

    def telemetry_view(self) -> Dict[str, Any]:
        """Per-worker snapshots plus the merged fleet-wide metrics.

        Each worker's snapshot is cumulative for its process, so the
        fleet view merges the latest one per worker with the service's
        own registry (store/plan counters live here).
        """
        with self._telemetry_lock:
            workers = {name: dict(snap) for name, snap in self._telemetry.items()}
        fleet = merge_snapshots(
            [snap.get("metrics") or {} for snap in workers.values()]
            + [get_metrics().to_dict()]
        )
        return {"workers": workers, "fleet": fleet}

    # ------------------------------------------------------------------
    # Lifecycle.

    def start(self) -> "ExperimentService":
        """Bind the one listener and start the lease-expiry tick."""
        if self._endpoint is not None:
            raise RuntimeError("service already started")
        self._endpoint = HttpEndpoint(
            self.artifacts,
            service=self,
            token=self.token,
            host=self.bind_host,
            port=self.bind_port,
        ).start()
        self.address = self._endpoint.address
        self._stopping.clear()
        self._expiry_thread = threading.Thread(
            target=self._expiry_loop, name="repro-lease-expiry", daemon=True
        )
        self._expiry_thread.start()
        LOG.info(
            "experiment service listening",
            extra={"address": self.address, "auth": self.token is not None},
        )
        return self

    def _expiry_loop(self) -> None:
        """Detect worker death even when nobody polls: expire leases.

        Without this tick a dead worker's lease would only requeue when
        some other worker's lease call happens to run expiry.
        """
        tick = max(0.05, min(1.0, self.lease_timeout / 4.0))
        while not self._stopping.wait(tick):
            for tenant in self._tenants():
                try:
                    tenant.plan.expire_leases()
                except Exception:  # the tick must outlive one tenant's fault
                    LOG.exception(
                        "lease expiry failed", extra={"sweep_id": tenant.sweep_id}
                    )

    def stop(self) -> None:
        """Close the listener and stop the lease-expiry tick."""
        if self._endpoint is not None:
            self._endpoint.stop()
            self._endpoint = None
            self._stopping.set()
            self._expiry_thread.join(timeout=10.0)
            self._expiry_thread = None

    def __enter__(self) -> "ExperimentService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


__all__ = [
    "DistributionTimeout",
    "ExperimentService",
    "ManagedSweep",
    "PlanFailed",
    "assemble_point",
    "sweep_identity",
    "wait_for_sweep",
]
