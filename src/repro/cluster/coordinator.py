"""Coordinator request handling: lease jobs and sync artifacts.

The handler logic lives in :class:`CoordinatorCore`, a transport-free
dispatcher behind the asyncio
:class:`~repro.cluster.service.ExperimentService`, which serves *many*
tenant sweeps — each a :class:`ManagedSweep` owning its own
:class:`~repro.cluster.plan.SweepPlan` — through one core over one
shared :class:`~repro.pipeline.store.ArtifactStore` and one
:class:`~repro.cluster.plan.WorkerRegistry`.  A single-shot sweep
(:class:`~repro.cluster.executor.ClusterExecutor`, behind ``repro
sweep --workers N``) is that same service with one tenant, told to
shut its workers down once the tenant finishes.

Operations (one JSON request line → one JSON reply line, blobs framed
by ``blob_bytes``):

===========  ==========================================================
``hello``    register a worker; replies with its stable slot index and
             the coordinator's wire capabilities; a ``peer_port``
             registers the worker's artifact server in the routing
             table (its host is taken from the TCP source address)
``lease``    request a job from *any* active sweep; replies ``{"job":
             …, "sweep_id": …}`` (plus ``sources``: peer addresses for
             the job's upstream keys), ``{"wait": s}`` or
             ``{"shutdown": true}`` once a non-persistent core's sweeps
             all finish
``heartbeat``  renew a lease; ``{"ok": false}`` means the lease is lost
``complete``   report a finished job (idempotent); the reply's
             ``holding`` count lets the worker skip redundant holdings
             re-reports
``fail``     report a job exception (requeues with exclusion)
``has``      filter a list of ``[stage, digest]`` keys to those present
``locate``   answer "who holds these keys" with live peer addresses
``get``      download one artifact blob by fingerprint
``put``      upload one artifact blob by fingerprint (idempotent: an
             already-present fingerprint is acknowledged, not rewritten)
===========  ==========================================================

Monitoring is not a line op: :meth:`CoordinatorCore.status_view` is
served over HTTP only (``GET /fleet``, ``repro cluster status``).

Multi-tenant routing: a ``heartbeat``/``complete``/``fail`` may carry
the ``sweep_id`` its lease grant named; requests without one (older
workers) are routed by looking the ``job_id`` up across active plans —
job ids embed the full stage fingerprint, so a cross-sweep collision
means the *same* artifact and either owner may take the completion.

Authentication: a core constructed with a shared ``token`` requires it
on **every** request (workers send it from ``hello`` onward).  A
mismatch is answered with ``{"error": …, "code": "auth"}``, which
:class:`~repro.cluster.protocol.ClusterClient` raises as
:class:`~repro.cluster.protocol.AuthError` even on ``check=False``
paths — mixed fleets fail loud, not silent, the same degradation
contract as the gzip capability handshake.

Telemetry rides the existing ops instead of adding new ones:
``hello``/``lease``/``heartbeat``/``complete`` requests may carry an
optional ``telemetry`` field (the worker's cumulative metrics snapshot
plus its slowest open spans, :func:`repro.telemetry.telemetry_snapshot`).
The coordinator keeps the *latest* snapshot per worker — snapshots are
cumulative, so the fleet view is simply the merge of latest-per-worker
plus the coordinator's own registry.  Workers that never send the field
(older builds) just don't appear, and coordinators that ignore it
(older builds) drop an unknown key: both directions interoperate (see
docs/telemetry.md).

The artifact sync layer is content-addressed and therefore *resumable
by retry*: an interrupted upload leaves no partial state server-side,
and a reconnecting worker first asks ``has`` so already-synced
fingerprints are never re-sent.  With peer sync enabled the
coordinator degrades to a *metadata service*: artifact bytes flow
worker-to-worker (``peer_get`` against :class:`~repro.cluster.worker`
serving sockets) and only the final push of each newly computed
artifact still lands here.
"""

from __future__ import annotations

import hmac
import pickle
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.cluster.journal import SweepJournal
from repro.cluster.plan import SweepPlan, WorkerRegistry
from repro.cluster.protocol import PROTOCOL_CAPS, encode_blob
from repro.pipeline.runner import RunRecord
from repro.pipeline.store import MISS, ArtifactStore
from repro.telemetry import get_metrics, merge_snapshots


class _WireCache:
    """Byte-bounded LRU of raw artifact pickles, keyed like the store.

    Serving downloads from the exact uploaded bytes keeps round trips
    byte-identical and avoids re-pickling per pull, while the byte
    budget keeps coordinator memory from doubling on large sweeps of
    heavyweight artifacts (an evicted entry is simply re-pickled from
    the store on demand; a blob bigger than the whole budget is served
    but never cached).  The internal lock covers only dict bookkeeping
    — never pickling or store I/O — so artifact traffic from many
    workers stays concurrent.
    """

    def __init__(self, max_bytes: int = 64 * 1024 * 1024):
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Tuple[str, str], bytes]" = OrderedDict()
        self.max_bytes = int(max_bytes)
        self.total_bytes = 0

    def get(self, key: Tuple[str, str]) -> Optional[bytes]:
        with self._lock:
            blob = self._entries.get(key)
            if blob is not None:
                self._entries.move_to_end(key)
            return blob

    def put(self, key: Tuple[str, str], blob: bytes) -> None:
        if len(blob) > self.max_bytes:
            return
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self.total_bytes -= len(old)
            self._entries[key] = blob
            self.total_bytes += len(blob)
            while self.total_bytes > self.max_bytes and len(self._entries) > 1:
                _, evicted = self._entries.popitem(last=False)
                self.total_bytes -= len(evicted)


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
    """Transport-agnostic coordinator dispatch (no sockets, no loop).

    Parameters
    ----------
    store:
        The shared artifact store all tenants publish into.
    sweeps:
        A callable returning the current tenants in submission order —
        a live view of the service's registry, so newly submitted
        sweeps become leasable without any rebind.
    registry:
        The :class:`~repro.cluster.plan.WorkerRegistry` every tenant
        plan shares.
    token:
        Optional shared secret; when set, every request must carry it.
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
        token: Optional[str] = None,
        poll_s: float = 1.0,
        wire_cache_bytes: int = 64 * 1024 * 1024,
        peer_sync: bool = True,
        persistent: bool = False,
    ):
        self.store = store
        self.sweeps = sweeps
        self.registry = registry
        self.token = token
        self.poll_s = float(poll_s)
        self.peer_sync = bool(peer_sync)
        self.persistent = bool(persistent)
        self._wire_cache = _WireCache(wire_cache_bytes)
        #: Transfer accounting (guarded by _stats_lock): how many
        #: artifact bytes this hub actually served/received.  The
        #: peer-fabric benchmark asserts served get bytes ≈ 0 when
        #: workers pull from each other instead.
        self._stats_lock = threading.Lock()
        self._get_count = 0
        self._get_bytes = 0
        self._get_wire_bytes = 0
        self._put_count = 0
        self._put_bytes = 0
        #: Latest telemetry snapshot per worker (guarded by its own
        #: lock: snapshot ingest must not contend with blob traffic).
        self._telemetry_lock = threading.Lock()
        self._telemetry: Dict[str, Dict[str, Any]] = {}

    # ------------------------------------------------------------------
    # Request dispatch.

    def dispatch(
        self,
        payload: Dict[str, Any],
        blob: Optional[bytes],
        client_host: str = "127.0.0.1",
    ) -> Tuple[Dict[str, Any], Optional[bytes], Optional[str]]:
        op = payload.get("op")
        worker = str(payload.get("worker", "anonymous"))
        if not self._authorized(payload):
            get_metrics().counter("cluster.auth_rejects").inc()
            return {
                "error": "authentication required: bad or missing token",
                "code": "auth",
            }, None, None
        if op in ("hello", "lease", "heartbeat", "complete"):
            snapshot = payload.get("telemetry")
            if snapshot:
                self._ingest_telemetry(worker, snapshot)
        if op == "hello":
            peer_port = payload.get("peer_port")
            if peer_port is not None and self.peer_sync:
                # The worker advertises only its serving *port*; its
                # reachable host is whatever address this very request
                # arrived from, which works across NAT-free clusters
                # without the worker guessing its own interface.
                self.registry.register_peer(worker, client_host, int(peer_port))
            else:
                self.registry.touch(worker)
            return {
                "ok": True,
                "slot": self.registry.slot(worker),
                "caps": list(PROTOCOL_CAPS),
            }, None, None
        if op == "lease":
            return self._op_lease(worker, payload.get("holding")), None, None
        if op == "heartbeat":
            plan = self._resolve_plan(payload)
            ok = plan is not None and plan.heartbeat(
                worker, str(payload.get("job_id"))
            )
            return {"ok": ok}, None, None
        if op == "complete":
            plan = self._resolve_plan(payload)
            ok = plan is not None and plan.complete(
                worker, str(payload.get("job_id")), payload.get("stats") or {}
            )
            # ``holding``: how many keys the routing table now credits
            # to this worker.  A worker whose local count matches can
            # skip re-reporting holdings on its next lease; a mismatch
            # (coordinator restart) triggers a full re-report.
            return {
                "ok": ok,
                "holding": self.registry.holding_count(worker),
            }, None, None
        if op == "fail":
            plan = self._resolve_plan(payload)
            if plan is not None:
                plan.fail(
                    worker, str(payload.get("job_id")), str(payload.get("error", ""))
                )
            return {"ok": True}, None, None
        if op == "has":
            keys = [(str(s), str(d)) for s, d in payload.get("keys", [])]
            present = [list(key) for key in keys if key in self.store]
            return {"present": present}, None, None
        if op == "locate":
            keys = [(str(s), str(d)) for s, d in payload.get("keys", [])]
            sources = (
                self.registry.locate(keys, exclude=worker) if self.peer_sync else []
            )
            return {"sources": sources}, None, None
        if op == "get":
            return self._op_get(
                str(payload.get("stage")),
                str(payload.get("digest")),
                payload.get("accept") or (),
            )
        if op == "put":
            if blob is None:
                return {"error": "put requires a blob"}, None, None
            return (
                self._op_put(
                    str(payload.get("stage")), str(payload.get("digest")), blob
                ),
                None,
                None,
            )
        return {"error": f"unknown op {op!r}"}, None, None

    def _authorized(self, payload: Dict[str, Any]) -> bool:
        if self.token is None:
            return True
        supplied = payload.get("token")
        return isinstance(supplied, str) and hmac.compare_digest(
            supplied, self.token
        )

    def _resolve_plan(self, payload: Dict[str, Any]) -> Optional[SweepPlan]:
        """Route a job report to its tenant plan.

        Grants carry ``sweep_id`` and workers echo it back; reports
        without one (older workers) fall back to a ``job_id`` lookup —
        job ids embed the full stage fingerprint, so whichever plan
        knows the id owns (an identical copy of) the artifact.
        """
        tenants = self.sweeps()
        sweep_id = payload.get("sweep_id")
        if sweep_id is not None:
            for tenant in tenants:
                if tenant.sweep_id == sweep_id:
                    return tenant.plan
            return None
        job_id = payload.get("job_id")
        if job_id is not None:
            for tenant in tenants:
                if str(job_id) in tenant.plan.jobs:
                    return tenant.plan
        return None

    # ------------------------------------------------------------------
    # Worker telemetry aggregation.

    def _ingest_telemetry(self, worker: str, snapshot: Any) -> None:
        if not isinstance(snapshot, dict):
            return  # malformed field from a foreign client; ignore
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
    def _op_lease(self, worker: str, holding: Optional[Any] = None) -> Dict[str, Any]:
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
            # Workers echo ``sweep_id`` back on heartbeat/complete/fail
            # so reports route straight to the owning tenant; old
            # workers ignore it and fall back to job-id routing.
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
            trace = tenant.trace_context
            if trace:
                # Workers adopt this as the remote parent of their job
                # spans; old workers simply ignore the unknown key.
                reply["trace"] = dict(trace)
            return reply
        # Nothing grantable right now.  A persistent core waits for the
        # next submission; a single-shot core shuts workers down once
        # every sweep it ever knew is finished.  Note "reason", not
        # "error": the client treats an "error" key as a protocol
        # failure and raises, which would turn the graceful plan-failed
        # shutdown into apparent unreachability.
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

    def _op_get(
        self, stage: str, digest: str, accept: Any = ()
    ) -> Tuple[Dict[str, Any], Optional[bytes], Optional[str]]:
        key = (stage, digest)
        blob = self._wire_cache.get(key)
        if blob is None:
            artifact = self.store.get(stage, digest)
            if artifact is MISS:
                return {"found": False}, None, None
            blob = pickle.dumps(artifact, protocol=pickle.HIGHEST_PROTOCOL)
            self._wire_cache.put(key, blob)
        wire_blob, encoding = encode_blob(blob, [str(c) for c in accept])
        with self._stats_lock:
            self._get_count += 1
            self._get_bytes += len(blob)
            self._get_wire_bytes += len(wire_blob)
        return {"found": True}, wire_blob, encoding

    def _op_put(self, stage: str, digest: str, blob: bytes) -> Dict[str, Any]:
        key = (stage, digest)
        with self._stats_lock:
            self._put_count += 1
            self._put_bytes += len(blob)
        if key in self.store:
            # Idempotent upload: the fingerprint already resolves, a
            # duplicate (double completion, resumed worker) is a hit.
            return {"ok": True, "stored": False}
        # No server-wide lock here: the store publish is atomic and
        # treats a lost race as a hit, so concurrent uploads (even of
        # the same key) are safe and stay parallel.  put_bytes never
        # unpickles on disk-backed stores — uploads stream to disk and
        # load lazily if the assembly actually reads them, keeping a
        # long-running coordinator's memory bounded.
        self.store.put_bytes(stage, digest, blob)
        self._wire_cache.put(key, blob)
        return {"ok": True, "stored": True}

    def transfer_stats(self) -> Dict[str, int]:
        """Artifact bytes this hub served (get) and received (put)."""
        with self._stats_lock:
            return {
                "get_count": self._get_count,
                "get_bytes": self._get_bytes,
                "get_wire_bytes": self._get_wire_bytes,
                "put_count": self._put_count,
                "put_bytes": self._put_bytes,
            }


__all__ = [
    "CoordinatorCore",
    "ManagedSweep",
]
