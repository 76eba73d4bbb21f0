"""Sweep planning and lease-based job scheduling for the cluster.

A :class:`SweepPlan` expands a parameter grid into a deduplicated DAG of
stage-aligned jobs — one job per *unique missing* stage fingerprint —
expressed as leasable units the
:class:`~repro.cluster.service.ExperimentService` hands to workers,
networked or the localhost fleet behind
:class:`repro.pipeline.runner.Runner`'s ``max_workers``:

- **dedupe** — two grid points agreeing on a stage's fingerprint share
  one job, so each training-side fingerprint is executed exactly once
  cluster-wide;
- **dependencies** — a job becomes *ready* when the jobs producing its
  upstream artifacts are done (artifacts already cached in the
  coordinator's store need no job at all);
- **leases** — a worker holds a job for ``lease_timeout`` seconds,
  renewable by heartbeat; a lease that expires (worker death, network
  partition) requeues the job with that worker excluded, so a healthy
  peer picks it up.  Exclusion is advisory when it would deadlock: a
  worker may take a job it is excluded from iff no other live worker
  could;
- **bounded retries** — a job leased ``max_attempts`` times without a
  completion fails the whole plan with a diagnostic;
- **grant order** — a leasing worker gets the first ready job in
  creation order (grid-major, depth-minor); what it reports holding
  only feeds the peer routing table, never the grant;
- **journal** — with a :class:`~repro.cluster.journal.SweepJournal`
  attached, every transition is appended to disk and a reconstructed
  plan replays ``done`` events (validated against the store), so a
  coordinator crash never re-leases a finished fingerprint.

The plan is deliberately socket-free (all methods are plain calls under
an internal lock, time is injectable) so the scheduling semantics are
unit-testable without networking.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.config import SparkXDConfig
from repro.cluster.journal import SweepJournal
from repro.pipeline.runner import sweep_grid
from repro.pipeline.stages import default_stages
from repro.pipeline.store import ArtifactStore, fingerprint
from repro.telemetry import get_logger, get_metrics

LOG = get_logger(__name__)

#: Every state a :class:`Job` can be in: the keys of
#: :meth:`SweepPlan.counts` and of the job counts in status bodies.
JOB_STATES = ("pending", "leased", "done", "failed")


@dataclass
class Job:
    """One leasable unit: run the stage chain up to ``depth`` for ``config``.

    The target artifact is ``(stage, digest)``; upstream artifacts the
    worker is missing are pulled from the coordinator, and everything
    newly computed is pushed back (see docs/cluster.md).
    """

    job_id: str
    stage: str
    depth: int
    digest: str
    config: SparkXDConfig
    deps: Set[str] = field(default_factory=set)
    #: Every upstream ``(stage, digest)`` key of the chain prefix —
    #: exactly what the executing worker must hold (pull or recompute)
    #: before running; lease grants carry their peer sources.
    upstream: Tuple[Tuple[str, str], ...] = ()
    state: str = "pending"  # pending | leased | done | failed
    attempts: int = 0
    excluded: Set[str] = field(default_factory=set)
    worker: Optional[str] = None
    deadline: Optional[float] = None
    #: Placement/transfer stats of the completing worker (exec_s per
    #: stage, sync_s/sync bytes, worker slot) — merged into the
    #: assembled records' ``stage_timings``.
    stats: Dict[str, Any] = field(default_factory=dict)
    error: Optional[str] = None

    @property
    def short_id(self) -> str:
        """Abbreviated display form (job identity is the *full* digest)."""
        return f"{self.stage}:{self.digest[:16]}"

    def to_wire(self, lease_timeout: float) -> Dict[str, Any]:
        return {
            "job_id": self.job_id,
            "display_id": self.short_id,
            "stage": self.stage,
            "depth": self.depth,
            "digest": self.digest,
            "config": self.config.to_wire(),
            "lease_s": lease_timeout,
        }


class PlanFailed(RuntimeError):
    """The plan cannot complete (a job exhausted its retry budget)."""


class WorkerRegistry:
    """Fleet state shared across plans: liveness, slots, holdings, peers.

    In single-sweep mode each :class:`SweepPlan` creates its own
    registry, reproducing the pre-service behaviour exactly.  The
    experiment service instead passes ONE registry to every tenant
    plan, so worker liveness, stable slot numbers, holdings and the
    peer routing table describe the whole fleet no matter which
    sweep a worker last touched — a worker that went silent is dead for
    *every* tenant, and an artifact it holds is locatable from *every*
    tenant.

    Thread-safe under its own lock; plans may call into it while
    holding their plan lock (the registry never calls back into a
    plan, so the ``plan lock -> registry lock`` order is acyclic).
    """

    def __init__(
        self,
        *,
        clock: Callable[[], float] = time.monotonic,
        liveness_window_s: float = 90.0,
    ):
        if liveness_window_s <= 0:
            raise ValueError(
                f"liveness_window_s must be > 0, got {liveness_window_s}"
            )
        self.clock = clock
        self.liveness_window_s = float(liveness_window_s)
        self._lock = threading.Lock()
        #: worker name -> last contact (monotonic seconds)
        self._workers: Dict[str, float] = {}
        #: worker name -> stable integer slot (first-contact order)
        self._slots: Dict[str, int] = {}
        #: worker name -> (stage, digest) keys it reported holding
        self._holdings: Dict[str, Set[Tuple[str, str]]] = {}
        #: worker name -> (host, port) of its peer endpoint
        self._peers: Dict[str, Tuple[str, int]] = {}

    def touch(self, worker: str) -> None:
        with self._lock:
            self._touch_locked(worker)

    def _touch_locked(self, worker: str) -> None:
        self._workers[worker] = self.clock()
        self._slot_locked(worker)

    def slot(self, worker: str) -> int:
        with self._lock:
            return self._slot_locked(worker)

    def _slot_locked(self, worker: str) -> int:
        if worker not in self._slots:
            self._slots[worker] = len(self._slots)
        return self._slots[worker]

    def ages(self) -> Dict[str, float]:
        """Seconds since each known worker was last heard from."""
        now = self.clock()
        with self._lock:
            return {name: now - seen for name, seen in self._workers.items()}

    def live_names(self) -> List[str]:
        """Workers heard from within the liveness window."""
        now = self.clock()
        with self._lock:
            return [
                name
                for name, seen in self._workers.items()
                if now - seen <= self.liveness_window_s
            ]

    def _live_locked(self, worker: str, now: float) -> bool:
        seen = self._workers.get(worker)
        return seen is not None and now - seen <= self.liveness_window_s

    def set_holdings(self, worker: str, keys: Iterable[Sequence[str]]) -> None:
        """Replace ``worker``'s reported holdings (from a lease report)."""
        with self._lock:
            self._touch_locked(worker)
            self._holdings[worker] = {
                (str(stage), str(digest)) for stage, digest in keys
            }

    def add_holdings(self, worker: str, keys: Iterable[Tuple[str, str]]) -> None:
        """Fold additional keys into ``worker``'s holdings (completion)."""
        with self._lock:
            held = self._holdings.setdefault(worker, set())
            held.update((str(stage), str(digest)) for stage, digest in keys)

    def holding_count(self, worker: str) -> int:
        with self._lock:
            return len(self._holdings.get(worker, ()))

    def register_peer(self, worker: str, host: str, port: int) -> None:
        with self._lock:
            self._touch_locked(worker)
            self._peers[worker] = (str(host), int(port))

    def locate(
        self,
        keys: Iterable[Sequence[str]],
        exclude: Optional[str] = None,
    ) -> List[List[Any]]:
        """``[[stage, digest, [address, …]], …]`` for keys a live peer holds.

        The addresses are peer endpoints (``host:port`` strings) of
        workers that reported holding the key, registered a peer
        endpoint, and were heard from within the liveness window lease
        exclusion uses.  Keys no peer holds are omitted: the caller
        falls back to the hub for those.  ``exclude`` drops one worker
        (the requester) from every answer.
        """
        from repro.cluster.protocol import format_address

        now = self.clock()
        located: List[List[Any]] = []
        with self._lock:
            serving = [
                (name, self._holdings.get(name, ()))
                for name, address in self._peers.items()
                if name != exclude and self._live_locked(name, now)
            ]
            for stage, digest in keys:
                key = (str(stage), str(digest))
                holders = [
                    format_address(self._peers[name])
                    for name, held in serving
                    if key in held
                ]
                if holders:
                    located.append([key[0], key[1], holders])
        return located


class SweepPlan:
    """Deduplicated, dependency-ordered job queue for one sweep.

    Parameters
    ----------
    base_config / grid:
        Same meaning as in :class:`repro.pipeline.runner.Runner`.
    store:
        The coordinator's artifact store.  Fingerprints already present
        get no job; completions are validated against it.
    lease_timeout:
        Seconds a worker may hold a job between heartbeats.
    max_attempts:
        Lease grants per job before the plan fails.
    clock:
        Injectable monotonic time source (tests).
    journal:
        Optional :class:`~repro.cluster.journal.SweepJournal`.  Job
        transitions are appended to it, and ``done`` events already on
        disk are replayed at construction: a journaled-done fingerprint
        whose artifact is still in the store comes back as a done job
        (original worker attribution and stats intact) and is never
        re-leased.
    registry:
        Optional shared :class:`WorkerRegistry`.  ``None`` (the
        default) creates a private one whose liveness window is the
        classic ``3 × lease_timeout``; the experiment service passes
        one registry to every tenant plan so the fleet view is global.
    """

    def __init__(
        self,
        base_config: SparkXDConfig,
        grid: Mapping[str, Sequence[Any]],
        store: ArtifactStore,
        *,
        lease_timeout: float = 30.0,
        max_attempts: int = 3,
        clock: Callable[[], float] = time.monotonic,
        journal: Optional[SweepJournal] = None,
        registry: Optional[WorkerRegistry] = None,
    ):
        if lease_timeout <= 0:
            raise ValueError(f"lease_timeout must be > 0, got {lease_timeout}")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.store = store
        self.lease_timeout = float(lease_timeout)
        self.max_attempts = int(max_attempts)
        self.clock = clock
        self.journal = journal
        self._lock = threading.Lock()
        self.param_sets = sweep_grid(grid)
        self.configs = [base_config.with_overrides(**p) for p in self.param_sets]
        self.chain = default_stages()
        #: Full (stage, digest) chain per config, in chain order —
        #: shared by job construction, the plan identity below, and the
        #: executor's per-grid-point readiness checks.
        self.chain_keys: List[List[Tuple[str, str]]] = [
            [(stage.name, stage.cache_key(config)) for stage in self.chain]
            for config in self.configs
        ]
        #: Stable identity of this sweep: the full config × stage digest
        #: matrix.  Independent of store warmth, so a resumed plan gets
        #: the same id and journal replay can verify it is reading the
        #: journal of *this* sweep.
        self.plan_id = fingerprint([list(map(list, keys)) for keys in self.chain_keys])
        self.jobs: Dict[str, Job] = {}
        self._order: List[str] = []  # creation order: grid-major, depth-minor
        self.failure: Optional[str] = None
        self._cancelled = False
        self.registry = registry if registry is not None else WorkerRegistry(
            clock=clock, liveness_window_s=3.0 * self.lease_timeout
        )
        replayed = (
            journal.done_events(plan_id=self.plan_id) if journal is not None else {}
        )
        self._build_jobs(replayed)
        self.replayed_done = sum(
            1 for job in self.jobs.values() if job.state == "done"
        )
        self._journal_event({
            "event": "plan",
            "plan_id": self.plan_id,
            "jobs": len(self.jobs),
            "replayed_done": self.replayed_done,
            "grid_points": len(self.configs),
        })
        LOG.info(
            "sweep plan built",
            extra={
                "plan_id": self.plan_id[:16],
                "jobs": len(self.jobs),
                "replayed_done": self.replayed_done,
                "grid_points": len(self.configs),
            },
        )

    # ------------------------------------------------------------------
    # Construction.

    def _build_jobs(self, replayed: Mapping[Tuple[str, str], Dict[str, Any]]) -> None:
        for config, keys in zip(self.configs, self.chain_keys):
            last_job_id: Optional[str] = None
            upstream: List[Tuple[str, str]] = []
            for depth, stage in enumerate(self.chain):
                digest = keys[depth][1]
                # Jobs are keyed by the FULL digest: a 16-hex-char
                # prefix (~64 bits) silently aliased distinct
                # fingerprints onto one job, losing the second config's
                # artifact entirely.  Display forms may abbreviate
                # (Job.short_id); identity never does.
                job_id = f"{stage.name}:{digest}"
                key = (stage.name, digest)
                existing = self.jobs.get(job_id)
                if existing is not None:
                    last_job_id = job_id
                    upstream.append(key)
                    continue
                in_store = key in self.store
                replay_event = replayed.get(key)
                if in_store and replay_event is None:
                    # Cached on the coordinator before this sweep ever
                    # ran: no job.  The dependency chain continues from
                    # the last job this config did create (if any) so
                    # downstream jobs still wait for every artifact
                    # they must pull.
                    upstream.append(key)
                    continue
                job = Job(
                    job_id=job_id,
                    stage=stage.name,
                    depth=depth,
                    digest=digest,
                    config=config,
                    deps=set() if last_job_id is None else {last_job_id},
                    upstream=tuple(upstream),
                )
                if in_store and replay_event is not None:
                    # Journaled done AND the artifact survived: replay
                    # as a finished job so the resumed plan's counts,
                    # stats and dependency graph cover the whole sweep
                    # — without a single re-lease or re-execution.  A
                    # journaled done whose artifact vanished (pruned
                    # store) is NOT replayed: bytes win over history,
                    # the job simply runs again.
                    job.state = "done"
                    job.worker = replay_event.get("worker")
                    job.stats = dict(replay_event.get("stats") or {})
                self.jobs[job_id] = job
                self._order.append(job_id)
                last_job_id = job_id
                upstream.append(key)

    def _journal_event(self, event: Dict[str, Any]) -> None:
        if self.journal is not None:
            self.journal.append(event)

    # ------------------------------------------------------------------
    # State inspection.

    @property
    def done(self) -> bool:
        with self._lock:
            return self.failure is None and all(
                job.state == "done" for job in self.jobs.values()
            )

    @property
    def failed(self) -> bool:
        with self._lock:
            return self.failure is not None

    def counts(self) -> Dict[str, int]:
        with self._lock:
            counts = dict.fromkeys(JOB_STATES, 0)
            for job in self.jobs.values():
                counts[job.state] += 1
            return counts

    # ------------------------------------------------------------------
    # Scheduling.

    def _touch_locked(self, worker: str) -> None:
        # Registry after plan lock is the one sanctioned nesting order.
        self.registry.touch(worker)

    def _ready(self, job: Job) -> bool:
        return job.state == "pending" and all(
            self.jobs[dep].state == "done" for dep in job.deps
        )

    def _eligible(self, job: Job, worker: str) -> bool:
        """Exclusion check, relaxed when honouring it would deadlock."""
        if worker not in job.excluded:
            return True
        live_others = [
            name
            for name in self.registry.live_names()
            if name != worker and name not in job.excluded
        ]
        return not live_others

    def _requeue_locked(self, job: Job, worker: Optional[str], reason: str) -> None:
        if job.state != "leased":
            return
        if worker is not None:
            job.excluded.add(worker)
        job.worker = None
        job.deadline = None
        job.error = reason
        if job.attempts >= self.max_attempts:
            job.state = "failed"
            self.failure = (
                f"job {job.job_id} failed after {job.attempts} attempt(s): {reason}"
            )
            self._journal_event({
                "event": "plan-failed",
                "job": job.job_id,
                "failure": self.failure,
            })
            get_metrics().counter("plan.failures").inc()
            LOG.error(
                "plan failed",
                extra={"job": job.short_id, "reason": reason},
            )
        else:
            job.state = "pending"
            self._journal_event({
                "event": "requeue",
                "job": job.job_id,
                "worker": worker,
                "reason": reason,
            })
            get_metrics().counter("plan.requeues").inc()
            LOG.warning(
                "job requeued",
                extra={"job": job.short_id, "worker": worker, "reason": reason},
            )

    def expire_leases(self) -> List[str]:
        """Requeue every lease past its deadline; returns the job ids."""
        now = self.clock()
        expired = []
        with self._lock:
            for job in self.jobs.values():
                if job.state == "leased" and job.deadline is not None and now > job.deadline:
                    holder = job.worker
                    self._requeue_locked(
                        job, holder, f"lease expired on worker {holder!r}"
                    )
                    expired.append(job.job_id)
        return expired

    def lease(self, worker: str) -> Optional[Job]:
        """Grant the first ready, eligible job in creation order (or ``None``)."""
        self.expire_leases()
        with self._lock:
            self._touch_locked(worker)
            if self.failure is not None or self._cancelled:
                return None
            for job_id in self._order:
                job = self.jobs[job_id]
                if self._ready(job) and self._eligible(job, worker):
                    break
            else:
                return None
            job.state = "leased"
            job.worker = worker
            job.attempts += 1
            job.deadline = self.clock() + self.lease_timeout
            self._journal_event({
                "event": "lease",
                "job": job.job_id,
                "worker": worker,
                "attempt": job.attempts,
            })
            get_metrics().counter("plan.leases").inc()
            return job

    def heartbeat(self, worker: str, job_id: str) -> bool:
        """Extend the lease; False means the lease is no longer held."""
        with self._lock:
            self._touch_locked(worker)
            job = self.jobs.get(job_id)
            if job is None or job.state != "leased" or job.worker != worker:
                return False
            job.deadline = self.clock() + self.lease_timeout
            return True

    def complete(
        self,
        worker: str,
        job_id: str,
        stats: Optional[Mapping[str, Any]] = None,
    ) -> bool:
        """Mark ``job_id`` done; idempotent and holder-agnostic.

        The target artifact is content-addressed, so a completion from a
        worker whose lease already expired (it finished anyway) is as
        good as one from the current holder — and completing an
        already-done job is a no-op success.  The only rejection is a
        completion whose target artifact never reached the store.
        """
        with self._lock:
            self._touch_locked(worker)
            job = self.jobs.get(job_id)
            if job is None:
                return False
            if job.state == "done":
                return True
            if (job.stage, job.digest) not in self.store:
                if job.state == "leased" and job.worker != worker:
                    # A stale ex-holder's artifact-less completion must
                    # not revoke the current holder's live lease (same
                    # guard as fail()).
                    return False
                # The worker claims completion but never pushed the
                # artifact: treat as a failed attempt of that worker.
                self._requeue_locked(
                    job, worker, f"completion without artifact from {worker!r}"
                )
                return False
            job.state = "done"
            job.worker = worker
            job.deadline = None
            job.error = None
            # The completing worker now demonstrably holds the whole
            # chain prefix (it pulled or computed every upstream key
            # plus the target), so fold it into the routing table
            # immediately — peers can pull from it before its next
            # lease re-reports holdings.
            self.registry.add_holdings(
                worker, list(job.upstream) + [(job.stage, job.digest)]
            )
            if not job.stats:
                job.stats = dict(stats or {})
                job.stats.setdefault("worker", worker)
                job.stats.setdefault("slot", self.registry.slot(worker))
            self._journal_event({
                "event": "done",
                "job": job.job_id,
                "stage": job.stage,
                "digest": job.digest,
                "worker": worker,
                "stats": job.stats,
            })
            get_metrics().counter("plan.completions").inc()
            return True

    def fail(self, worker: str, job_id: str, error: str) -> None:
        """A worker reported a job exception: requeue with exclusion."""
        with self._lock:
            self._touch_locked(worker)
            job = self.jobs.get(job_id)
            if job is None or job.state in ("done", "failed"):
                return
            if job.state == "leased" and job.worker != worker:
                return  # stale report from a previous holder
            self._requeue_locked(job, worker, error)

    def raise_on_failure(self) -> None:
        with self._lock:
            if self.failure is not None:
                raise PlanFailed(self.failure)

    # ------------------------------------------------------------------
    # Cancellation (service tenants can be withdrawn mid-flight).

    @property
    def cancelled(self) -> bool:
        with self._lock:
            return self._cancelled

    def cancel(self) -> int:
        """Withdraw the sweep: no further grants, live leases freed.

        Returns the number of leases released.  Freed jobs go back to
        ``pending`` with their worker and deadline cleared (no exclusion
        — the workers did nothing wrong), but :meth:`lease` grants
        nothing once cancelled, so the fleet immediately drains onto
        other tenants.  A completion that still arrives for a freed job
        is accepted as usual (content-addressed artifacts make it
        idempotent).  Cancellation is in-memory only: resubmitting the
        same sweep later resumes from the journal as if never cancelled.
        """
        with self._lock:
            if self._cancelled:
                return 0
            self._cancelled = True
            freed = 0
            for job in self.jobs.values():
                if job.state == "leased":
                    job.worker = None
                    job.deadline = None
                    job.state = "pending"
                    freed += 1
            self._journal_event({
                "event": "cancelled",
                "plan_id": self.plan_id,
                "leases_freed": freed,
            })
            get_metrics().counter("plan.cancellations").inc()
            LOG.info(
                "plan cancelled",
                extra={"plan_id": self.plan_id[:16], "leases_freed": freed},
            )
            return freed

    def journal_status(self) -> Optional[Dict[str, Any]]:
        """The attached journal's lag/size view (``None`` without one)."""
        if self.journal is None:
            return None
        return self.journal.status()

    # ------------------------------------------------------------------
    def job_for(self, stage_name: str, digest: str) -> Optional[Job]:
        """The job that produced ``(stage_name, digest)``, if one ran."""
        return self.jobs.get(f"{stage_name}:{digest}")
