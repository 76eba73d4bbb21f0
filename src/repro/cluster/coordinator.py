"""Coordinator state: tenants, leases, holdings and fleet telemetry.

:class:`CoordinatorCore` holds what the worker routes of
:mod:`repro.cluster.http_api` act on, behind the
:class:`~repro.cluster.service.ExperimentService`, which serves *many*
tenant sweeps — each a :class:`ManagedSweep` owning its own
:class:`~repro.cluster.plan.SweepPlan` — through one core over one
shared :class:`~repro.pipeline.store.ArtifactStore` (wrapped by one
:class:`~repro.cluster.http_api.ArtifactEndpoint`) and one
:class:`~repro.cluster.plan.WorkerRegistry`.  A single-shot sweep
(:class:`~repro.cluster.executor.ClusterExecutor`, behind ``repro
sweep --workers N``) is that same service with one tenant, told to
shut its workers down once the tenant finishes.

Route handlers call the core (:meth:`CoordinatorCore.hello`,
:meth:`~CoordinatorCore.lease`, :meth:`~CoordinatorCore.plan`) and the
plans directly.  A lease grant names the ``sweep_id`` of its tenant,
and every job report must name it back: :meth:`CoordinatorCore.plan`
routes the report to that tenant's plan, and a report naming no live
tenant is refused (``{"ok": false}``).

Telemetry rides the worker routes instead of adding new ones:
hello/lease/heartbeat/complete bodies may carry a ``telemetry`` field
(the worker's cumulative metrics snapshot plus its slowest open spans,
:func:`repro.telemetry.telemetry_snapshot`).  The coordinator keeps the
*latest* snapshot per worker — snapshots are cumulative, so the fleet
view is simply the merge of latest-per-worker plus the coordinator's
own registry.  A worker that sends no snapshot simply does not appear
in the telemetry view.

The artifact side is content-addressed and therefore *resumable by
retry*: an interrupted upload leaves no partial state, and a
reconnecting worker first asks ``has`` so already-synced fingerprints
are never re-sent.  With peer sync enabled the coordinator degrades to
a *metadata service*: artifact bytes flow worker-to-worker (each
worker's peer endpoint serves the same download route) and only the
final push of each newly computed artifact still lands here.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.cluster.http_api import ArtifactEndpoint
from repro.cluster.journal import SweepJournal
from repro.cluster.plan import SweepPlan, WorkerRegistry
from repro.pipeline.runner import RunRecord
from repro.pipeline.store import ArtifactStore
from repro.telemetry import get_metrics, merge_snapshots


@dataclass
class ManagedSweep:
    """One tenant: its plan, its journal, its lifecycle state."""

    sweep_id: str
    plan: SweepPlan
    journal: Optional[SweepJournal] = None
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


class CoordinatorCore:
    """Transport-free coordinator state (no sockets, no threads).

    Parameters
    ----------
    store:
        The shared artifact store all tenants publish into, served
        through :attr:`artifacts`.
    sweeps:
        A callable returning the current tenants in submission order —
        a live view of the service's registry, so newly submitted
        sweeps become leasable without any rebind.
    registry:
        The :class:`~repro.cluster.plan.WorkerRegistry` every tenant
        plan shares.
    poll_s:
        The ``wait`` a lease reply asks an idle worker to sleep.
    wire_cache_bytes:
        Byte budget of :attr:`artifacts`' pickle cache.
    peer_sync:
        ``False`` keeps peers out of the routing table: hello ignores
        ``peer_port`` and ``locate`` answers nothing.
    persistent:
        ``True`` (the always-on service) never answers ``shutdown`` —
        idle workers poll forever, ready for the next submitted sweep.
        ``False`` is the single-shot lifecycle: once every known sweep
        is finished (done, failed, or cancelled) workers are told to
        shut down.
    """

    def __init__(
        self,
        store: ArtifactStore,
        sweeps: Callable[[], Sequence[ManagedSweep]],
        registry: WorkerRegistry,
        *,
        poll_s: float = 1.0,
        wire_cache_bytes: int = 64 * 1024 * 1024,
        peer_sync: bool = True,
        persistent: bool = False,
    ):
        self.sweeps = sweeps
        self.registry = registry
        self.poll_s = float(poll_s)
        self.peer_sync = bool(peer_sync)
        self.persistent = bool(persistent)
        #: The hub's artifact side: what it served (get) and received
        #: (put).  The peer-fabric benchmark asserts served get bytes
        #: are 0 when workers pull from each other instead.
        self.artifacts = ArtifactEndpoint(store, wire_cache_bytes)
        #: Latest telemetry snapshot per worker (guarded by its own
        #: lock: snapshot ingest must not contend with blob traffic).
        self._telemetry_lock = threading.Lock()
        self._telemetry: Dict[str, Dict[str, Any]] = {}

    # ------------------------------------------------------------------
    # Worker requests.

    def hello(self, worker: str, host: str, peer_port: Any = None) -> Dict[str, Any]:
        """Register ``worker``; a ``peer_port`` at ``host`` joins routing."""
        if peer_port is not None and self.peer_sync:
            self.registry.register_peer(worker, host, int(peer_port))
        else:
            self.registry.touch(worker)
        return {"ok": True, "slot": self.registry.slot(worker)}

    def plan(self, sweep_id: Any) -> Optional[SweepPlan]:
        """The plan of the tenant a job report names, if it is known."""
        for tenant in self.sweeps():
            if tenant.sweep_id == sweep_id:
                return tenant.plan
        return None

    def lease(self, worker: str, holding: Optional[Any] = None) -> Dict[str, Any]:
        """A grant from *any* active tenant, else ``wait`` or ``shutdown``."""
        if holding is not None:
            self.registry.set_holdings(worker, holding)
        tenants = self.sweeps()
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
            # worker can pull missing inputs without a separate
            # ``locate`` round trip.
            sources = plan.locate(job.upstream, exclude=worker)
            if sources:
                reply["sources"] = sources
            if tenant.trace_context:
                # Workers adopt this as the remote parent of their job
                # spans.
                reply["trace"] = dict(tenant.trace_context)
            return reply
        # Nothing grantable right now.  A persistent core waits for the
        # next submission; a single-shot core shuts workers down once
        # every sweep it ever knew is finished.  Note "reason", not
        # "error": a graceful plan-failed shutdown must not read as a
        # failed request.
        if not self.persistent and tenants and all(
            t.plan.done or t.plan.failed or t.plan.cancelled for t in tenants
        ):
            reason = next(
                (t.plan.failure for t in tenants if t.plan.failure is not None),
                None,
            )
            reply = {"shutdown": True}
            if reason is not None:
                reply["reason"] = reason
            return reply
        return {"wait": self.poll_s}

    # ------------------------------------------------------------------
    # Worker telemetry aggregation.

    def ingest_telemetry(self, worker: str, snapshot: Any) -> None:
        if not isinstance(snapshot, dict) or not snapshot:
            return  # absent, or a malformed field from a foreign client
        with self._telemetry_lock:
            self._telemetry[worker] = snapshot

    def telemetry_view(self) -> Dict[str, Any]:
        """Per-worker snapshots plus the merged fleet-wide metrics.

        Each worker's snapshot is cumulative for its process, so the
        fleet view merges the latest one per worker with the
        coordinator's own registry (store/plan counters live here).
        """
        with self._telemetry_lock:
            workers = {name: dict(snap) for name, snap in self._telemetry.items()}
        fleet = merge_snapshots(
            [snap.get("metrics") or {} for snap in workers.values()]
            + [get_metrics().to_dict()]
        )
        return {"workers": workers, "fleet": fleet}

    # ------------------------------------------------------------------
    def status_view(self) -> Dict[str, Any]:
        """The fleet view behind HTTP ``GET /fleet``: job-state totals,
        worker ages, transfer counters, aggregated worker telemetry and
        a per-sweep breakdown (state, counts, failure, journal lag)."""
        totals = {"pending": 0, "leased": 0, "done": 0, "failed": 0}
        failure: Optional[str] = None
        sweeps: Dict[str, Any] = {}
        for tenant in self.sweeps():
            counts = tenant.plan.counts()
            for state in totals:
                totals[state] += counts.get(state, 0)
            if failure is None:
                failure = tenant.plan.failure
            entry: Dict[str, Any] = dict(counts)
            entry["state"] = tenant.state
            entry["failure"] = tenant.plan.failure
            if tenant.name:
                entry["name"] = tenant.name
            journal = tenant.plan.journal_status()
            if journal is not None:
                entry["journal"] = journal
            sweeps[tenant.sweep_id] = entry
        payload: Dict[str, Any] = dict(totals)
        payload["failure"] = failure
        payload["workers"] = {
            name: round(age, 3) for name, age in self.registry.ages().items()
        }
        payload["transfers"] = self.transfer_stats()
        payload["telemetry"] = self.telemetry_view()
        payload["sweeps"] = sweeps
        return payload

    def transfer_stats(self) -> Dict[str, int]:
        """Artifact bytes this hub served (get) and received (put)."""
        return self.artifacts.transfer_stats()


__all__ = [
    "CoordinatorCore",
    "ManagedSweep",
]
