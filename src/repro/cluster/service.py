"""The always-on experiment service: multi-tenant sweeps on one port.

:class:`ExperimentService` turns the cluster stack from "run a sweep"
into "serve sweep traffic": one stdlib HTTP server
(:class:`~repro.cluster.http_api.HttpEndpoint`) serves every route of
:data:`~repro.cluster.http_api.ROUTES` on one port —

- **worker routes** (``/worker/...``, ``/artifacts/...``) that call
  into :class:`~repro.cluster.coordinator.CoordinatorCore` and the
  tenant plans.  Workers stay generic: one lease call draws from *any*
  active sweep and the grant carries a ``sweep_id`` the worker names
  back on heartbeat/complete/fail;
- **control routes** (`POST /sweeps`, `GET /sweeps/{id}`,
  `POST /sweeps/{id}/cancel`, `GET /sweeps/{id}/results`,
  `GET /fleet`), through which clients submit and harvest sweeps.

Each tenant sweep owns its :class:`~repro.cluster.plan.SweepPlan` and
(optionally) its own :class:`~repro.cluster.journal.SweepJournal` —
journal files are keyed by ``sweep_id`` under ``journal_dir``, so
compaction and replay are strictly per tenant — while every tenant
shares ONE :class:`~repro.pipeline.store.ArtifactStore` (cross-sweep
fingerprint dedupe comes for free: a stage another tenant already
computed needs no job at all) and ONE
:class:`~repro.cluster.plan.WorkerRegistry` (liveness, holdings and
the peer routing table describe the whole fleet).

Sweep identity is deterministic: ``sweep_id`` fingerprints the config ×
grid, so resubmitting after a service crash reattaches to the same
journal and replays it — the restart story is "resubmit everything,
re-execute nothing".  Scheduling state lives in plans (thread-safe,
lock-based), so requests run on the server's per-connection threads; a
separate thread expires the leases of workers that went quiet.

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
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.cluster.coordinator import CoordinatorCore, ManagedSweep
from repro.cluster.http_api import HttpEndpoint
from repro.cluster.journal import SweepJournal
from repro.cluster.plan import PlanFailed, SweepPlan, WorkerRegistry
from repro.cluster.protocol import format_address
from repro.core.config import SparkXDConfig
from repro.pipeline.runner import RunRecord
from repro.pipeline.stages import ExperimentPipeline
from repro.pipeline.store import ArtifactStore, fingerprint
from repro.telemetry import current_context, get_logger, get_metrics

LOG = get_logger(__name__)


def sweep_identity(
    base_config: SparkXDConfig, grid: Mapping[str, Sequence[Any]]
) -> str:
    """Deterministic sweep id: fingerprint of the config × grid.

    Stable across processes, restarts, and the JSON round trip of the
    control plane (``canonical_form`` normalises tuples vs. lists), so
    a resubmitted sweep lands on the same journal file and an identical
    concurrent submission reattaches instead of duplicating work.
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
    """Persistent multi-sweep coordinator behind one HTTP port.

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
    lease_timeout / max_attempts / peer_sync / poll_s:
        Scheduling semantics, applied to every tenant plan (see
        :class:`~repro.cluster.plan.SweepPlan`).
    journal_dir:
        Directory for per-tenant journals (``sweep-<sweep_id>.jsonl``).
        ``None`` disables journaling unless a submit passes an explicit
        path.
    compact_every:
        Per-tenant auto-compaction threshold (journal events).
    shutdown_when_idle:
        ``True`` is the single-shot lifecycle: once every submitted
        sweep is finished, workers are told to shut down.  The default
        ``False`` keeps the fleet polling for future submissions.
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
        peer_sync: bool = True,
        journal_dir: Optional[Union[str, Path]] = None,
        compact_every: Optional[int] = None,
        shutdown_when_idle: bool = False,
        wire_cache_bytes: int = 64 * 1024 * 1024,
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
        self.peer_sync = bool(peer_sync)
        self.journal_dir = Path(journal_dir) if journal_dir is not None else None
        self.compact_every = None if compact_every is None else int(compact_every)
        self.registry = WorkerRegistry(
            liveness_window_s=3.0 * self.lease_timeout
        )
        self._lock = threading.Lock()
        self._sweeps: Dict[str, ManagedSweep] = {}
        self._order: List[str] = []  # submission order = lease priority
        self.core = CoordinatorCore(
            self.store,
            self._tenants,
            self.registry,
            poll_s=self.poll_s,
            wire_cache_bytes=wire_cache_bytes,
            peer_sync=self.peer_sync,
            persistent=not shutdown_when_idle,
        )
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
        journal_path: Optional[Union[str, Path]] = None,
        resume: Any = "auto",
        compact_every: Optional[int] = None,
        trace_context: Optional[Dict[str, str]] = None,
    ) -> ManagedSweep:
        """Register a sweep; idempotent on the deterministic sweep id.

        ``resume`` — ``"auto"`` (default) replays an existing journal
        file and starts fresh otherwise; ``True``/``False`` force the
        :class:`~repro.cluster.journal.SweepJournal` behaviour.
        ``trace_context`` defaults to the caller's current span, so
        in-process submitters (:class:`~repro.cluster.ClusterExecutor`)
        parent worker job spans under their own trace; HTTP submits
        pass ``None``.
        """
        sweep_id = sweep_identity(base_config, grid)
        with self._lock:
            existing = self._sweeps.get(sweep_id)
            if existing is not None:
                # Reattach: same config × grid is the same sweep.  The
                # done work is shared; the caller polls the same id.
                return existing
            path = Path(journal_path) if journal_path is not None else None
            if path is None and self.journal_dir is not None:
                path = self.journal_dir / f"sweep-{sweep_id}.jsonl"
            journal: Optional[SweepJournal] = None
            if path is not None:
                do_resume = (
                    path.exists() and path.stat().st_size > 0
                    if resume == "auto"
                    else bool(resume)
                )
                journal = SweepJournal(
                    path,
                    resume=do_resume,
                    compact_every=(
                        self.compact_every
                        if compact_every is None
                        else int(compact_every)
                    ),
                )
            try:
                plan = SweepPlan(
                    base_config,
                    grid,
                    self.store,
                    lease_timeout=self.lease_timeout,
                    max_attempts=self.max_attempts,
                    journal=journal,
                    peer_sync=self.peer_sync,
                    registry=self.registry,
                )
            except Exception:
                if journal is not None:
                    journal.close()
                raise
            managed = ManagedSweep(
                sweep_id=sweep_id,
                plan=plan,
                journal=journal,
                name=name,
                trace_context=(
                    trace_context
                    if trace_context is not None
                    else current_context()
                ),
            )
            self._sweeps[sweep_id] = managed
            self._order.append(sweep_id)
        get_metrics().counter("service.sweeps_submitted").inc()
        LOG.info(
            "sweep submitted",
            extra={
                "sweep_id": sweep_id,
                "sweep_name": name,
                "jobs": len(plan.jobs),
                "replayed_done": plan.replayed_done,
                "journal": str(path) if path is not None else None,
            },
        )
        return managed

    def _get(self, sweep_id: str) -> ManagedSweep:
        with self._lock:
            managed = self._sweeps.get(str(sweep_id))
        if managed is None:
            raise KeyError(f"unknown sweep {sweep_id!r}")
        return managed

    def describe(self, sweep_id: str) -> Dict[str, Any]:
        """One tenant's status: state, counts, failure, journal lag."""
        managed = self._get(sweep_id)
        payload: Dict[str, Any] = {
            "sweep_id": managed.sweep_id,
            "name": managed.name,
            "state": managed.state,
            "plan_id": managed.plan.plan_id,
            "grid_points": len(managed.plan.configs),
            "replayed_done": managed.plan.replayed_done,
            "failure": managed.plan.failure,
        }
        payload.update(managed.plan.counts())
        journal = managed.plan.journal_status()
        if journal is not None:
            payload["journal"] = journal
        return payload

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
        # Each key a job of this sweep produced (journal replays
        # included) is owned by the first grid point that needs it.
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

    def fleet(self) -> Dict[str, Any]:
        """The whole-service view (``GET /fleet``, ``cluster status``)."""
        return self.core.status_view()

    def wait(
        self,
        sweep_id: str,
        timeout: Optional[float] = None,
        poll_s: float = 0.05,
    ) -> str:
        """Block until a sweep leaves ``running``; returns final state.

        In-process half of :meth:`ClusterExecutor.run
        <repro.cluster.executor.ClusterExecutor.run>` and tests; remote
        clients poll :meth:`~repro.cluster.http_api.ServiceClient.wait`
        instead.  Raises :class:`~repro.cluster.plan.PlanFailed` on
        failure and :class:`DistributionTimeout` on ``timeout``, whose
        message tells "no worker ever connected" apart from "a worker
        went quiet".
        """
        managed = self._get(sweep_id)
        plan = managed.plan
        deadline = (
            None if timeout is None else time.monotonic() + float(timeout)
        )
        while True:
            plan.expire_leases()
            plan.raise_on_failure()
            state = managed.state
            if state in ("done", "cancelled"):
                return state
            if deadline is not None and time.monotonic() > deadline:
                counts = plan.counts()
                ages = plan.worker_ages()
                contacts = (
                    ", ".join(
                        f"{name} seen {age:.1f}s ago"
                        for name, age in sorted(ages.items(), key=lambda kv: kv[1])
                    )
                    or "none ever connected"
                )
                raise DistributionTimeout(
                    f"sweep {sweep_id} incomplete after {timeout}s "
                    f"(job states: {counts}; workers: {contacts}) — are "
                    f"workers connected to "
                    f"{format_address(self.address)}?",
                    counts=counts,
                    worker_ages=ages,
                )
            time.sleep(max(0.01, float(poll_s)))

    # ------------------------------------------------------------------
    # Lifecycle.

    def start(self) -> "ExperimentService":
        """Bind the one listener and start the lease-expiry tick."""
        if self._endpoint is not None:
            raise RuntimeError("service already started")
        self._endpoint = HttpEndpoint(
            self.core.artifacts,
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
        some other worker's lease call (or an in-process :meth:`wait`)
        happens to run expiry.
        """
        tick = max(0.05, min(1.0, self.lease_timeout / 4.0))
        while not self._stopping.wait(tick):
            for tenant in self._tenants():
                try:
                    tenant.plan.expire_leases()
                except Exception:  # journaling I/O error must not kill the tick
                    LOG.exception(
                        "lease expiry failed", extra={"sweep_id": tenant.sweep_id}
                    )

    def stop(self) -> None:
        """Close the listener, stop the tick, close tenant journals."""
        if self._endpoint is not None:
            self._endpoint.stop()
            self._endpoint = None
            self._stopping.set()
            self._expiry_thread.join(timeout=10.0)
            self._expiry_thread = None
        with self._lock:
            managed_sweeps = list(self._sweeps.values())
        for managed in managed_sweeps:
            if managed.journal is not None:
                managed.journal.close()

    def __enter__(self) -> "ExperimentService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


__all__ = [
    "DistributionTimeout",
    "ExperimentService",
    "PlanFailed",
    "assemble_point",
    "sweep_identity",
]
