"""Distributed sweep execution: single-shot sweeps + local fleets.

:class:`ClusterExecutor` is the cluster twin of
:class:`repro.pipeline.runner.Runner`: it expands the same grids,
reuses the same content-addressed store, and returns the same
:class:`~repro.pipeline.runner.RunRecord` list in the same grid order —
but the unique missing stage fingerprints are computed by networked
:class:`~repro.cluster.worker.WorkerAgent` processes instead of a local
process pool.  Result values are identical to serial execution on
every grid; only the execution-dependent record fields differ, and each
record additionally carries per-job placement/transfer stats under
``cluster/…`` keys in ``stage_timings``.

:meth:`ClusterExecutor.run` is the one single-shot composition: it
starts an embedded :class:`~repro.cluster.service.ExperimentService`
that shuts its workers down once idle, submits the grid as the
service's only tenant, waits for the plan to drain, and assembles the
records in grid order.  ``Runner(coordinator=...)``, ``repro cluster
sweep`` and ``repro cluster coordinator`` all run through it, so
existing sweep call sites scale out by adding one argument.

With ``journal=...`` the tenant keeps a disk journal of every job
transition next to the store; ``resume=True`` replays it so a
coordinator killed mid-sweep restarts without re-leasing a single
journaled-done fingerprint (see docs/cluster.md, "Journal and
resume").
"""

from __future__ import annotations

import contextlib
import os
import subprocess
import sys
import threading
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from repro.cluster.plan import PlanFailed, SweepPlan
from repro.cluster.protocol import format_address, parse_address
from repro.cluster.service import ExperimentService
from repro.cluster.worker import WorkerAgent
from repro.core.config import SparkXDConfig
from repro.pipeline.runner import RunRecord
from repro.pipeline.store import ArtifactStore
from repro.telemetry import get_logger, span

LOG = get_logger(__name__)


class ClusterExecutor:
    """Run sweeps by fanning jobs out to workers over the line protocol.

    Parameters
    ----------
    base_config / store:
        As in :class:`~repro.pipeline.runner.Runner`.
    address:
        ``(host, port)`` or ``"host:port"`` the embedded service's
        worker plane binds — this is the address workers connect to.
        Port ``0`` picks an ephemeral port; read :attr:`address` once
        running.  The service's HTTP control plane, which a single-shot
        sweep never uses, always binds an ephemeral loopback port.
    lease_timeout / max_attempts:
        Lease semantics (see :mod:`repro.cluster.plan`).
    wait_timeout:
        Optional ceiling in seconds on one sweep's distribution phase;
        ``None`` waits for workers indefinitely.  On expiry a
        :class:`~repro.cluster.service.DistributionTimeout` is raised
        carrying the job-state counts and each worker's last-contact
        age.
    journal:
        Optional path to the coordinator journal (JSONL of job
        transitions, conventionally next to the store).  An existing
        journal is refused unless ``resume=True``.
    resume:
        Replay an existing journal before distributing: jobs whose
        ``done`` events are journaled and whose artifacts are still in
        the store are never re-leased.
    affinity:
        Enable worker-affinity scheduling (default).  ``False``
        restores plain creation-order grants — kept for comparison
        benchmarks (see benchmarks/perf_cluster.py).
    peer_sync:
        Enable the peer-to-peer artifact fabric (default): the
        coordinator answers ``locate`` with live peer addresses and
        workers pull artifacts from each other.  ``False`` turns the
        routing table off — every byte routes through the hub, exactly
        the pre-fabric topology.
    compact_every:
        Auto-compact the journal after this many appended events (see
        :class:`~repro.cluster.journal.SweepJournal`); ``None`` never
        compacts automatically.
    service:
        Optional control-plane address (``host:port`` or
        ``http://host:port``) of a running
        :class:`~repro.cluster.service.ExperimentService`.  When set,
        :meth:`run` does not start an embedded service at all — it
        *submits* the sweep over HTTP, polls until completion, and
        rebuilds the records the service assembled, so many executors
        (and many tenants) share one fleet and one store.  The
        journal/resume/affinity/peer_sync knobs are the service's to
        decide in this mode.
    token:
        Shared cluster secret: stamped onto control-plane requests
        (service mode) or required of workers by the embedded
        service.
    """

    def __init__(
        self,
        base_config: Optional[SparkXDConfig] = None,
        store: Optional[ArtifactStore] = None,
        address: Any = ("127.0.0.1", 0),
        *,
        lease_timeout: float = 30.0,
        max_attempts: int = 3,
        poll_s: Optional[float] = None,
        wait_timeout: Optional[float] = None,
        journal: Optional[Union[str, Path]] = None,
        resume: bool = False,
        affinity: bool = True,
        peer_sync: bool = True,
        compact_every: Optional[int] = None,
        service: Optional[Any] = None,
        token: Optional[str] = None,
    ):
        self.base_config = base_config or SparkXDConfig()
        self.store = store if store is not None else ArtifactStore()
        self.service = service
        self.token = token
        self.bind_address: Tuple[str, int] = parse_address(address)
        self.lease_timeout = float(lease_timeout)
        self.max_attempts = int(max_attempts)
        self.poll_s = poll_s
        self.wait_timeout = wait_timeout
        self.journal_path = Path(journal) if journal is not None else None
        self.resume = bool(resume)
        self.affinity = bool(affinity)
        self.peer_sync = bool(peer_sync)
        self.compact_every = None if compact_every is None else int(compact_every)
        #: Actual bound address of the most recent (or current) run.
        self.address: Optional[Tuple[str, int]] = None
        #: The plan of the most recent run (inspection/tests).
        self.last_plan: Optional[SweepPlan] = None
        #: Hub transfer counters of the most recent run (get/put
        #: counts and bytes) — what the peer fabric exists to shrink.
        self.last_transfer_stats: Optional[Dict[str, int]] = None

    # ------------------------------------------------------------------
    def run(
        self,
        grid: Mapping[str, Sequence[Any]],
        on_ready=None,
    ) -> List[RunRecord]:
        """Distribute ``grid`` and assemble records deterministically.

        ``on_ready(address)`` — if given — is called once the grid is
        submitted, with the worker plane's bound ``(host, port)``;
        convenient for launching a worker fleet against an ephemeral
        port (see :func:`local_worker_processes`).  Workers that connect
        earlier are told to wait, never to shut down.

        In service mode (``service=...``) there is no embedded service:
        the grid is submitted to the running one and ``on_ready`` is not
        called (the fleet already exists).
        """
        if self.service is not None:
            return self._run_via_service(grid)
        host, port = self.bind_address
        service = ExperimentService(
            store=self.store,
            host=host,
            port=port,
            http_host="127.0.0.1",
            token=self.token,
            lease_timeout=self.lease_timeout,
            max_attempts=self.max_attempts,
            poll_s=self.poll_s,
            affinity=self.affinity,
            peer_sync=self.peer_sync,
            shutdown_when_idle=True,
        )
        # The sweep span opens before submit: the tenant adopts it as
        # the trace context its lease grants carry, so worker job spans
        # land in this trace (no-op when tracing is off).
        with service, span("cluster.sweep") as sweep_span:
            managed = service.submit(
                self.base_config,
                grid,
                journal_path=self.journal_path,
                resume=self.resume,
                compact_every=self.compact_every,
            )
            plan = managed.plan
            self.last_plan = plan
            self.address = service.worker_address
            sweep_span.set(
                plan_id=plan.plan_id[:16],
                jobs=len(plan.jobs),
                grid_points=len(plan.configs),
            )
            if on_ready is not None:
                on_ready(self.address)
            service.wait(managed.sweep_id, timeout=self.wait_timeout)
            # Assembled while the service still answers, so late
            # pollers get their shutdown reply, not a connection error.
            records = service.results(managed.sweep_id)
            self.last_transfer_stats = service.core.transfer_stats()
        return records

    def _run_via_service(
        self, grid: Mapping[str, Sequence[Any]]
    ) -> List[RunRecord]:
        """Submit to a running service, poll, and rebuild its records.

        The records come back through ``RunRecord.to_dict`` /
        ``from_dict`` — value-identical to local assembly by
        construction (``records_equivalent`` compares exactly these
        dicts), minus only the in-memory ``result`` object.
        """
        from repro.cluster.http_api import ServiceClient

        client = ServiceClient(self.service, token=self.token)
        submitted = client.submit(self.base_config, grid)
        sweep_id = str(submitted["sweep_id"])
        LOG.info(
            "sweep submitted to service",
            extra={"sweep_id": sweep_id, "state": submitted.get("state")},
        )
        final = client.wait(sweep_id, timeout=self.wait_timeout)
        if final.get("state") == "cancelled":
            raise PlanFailed(f"sweep {sweep_id} was cancelled on the service")
        payload = client.results(sweep_id)
        return [
            RunRecord.from_dict(entry) for entry in payload.get("records", [])
        ]


# ----------------------------------------------------------------------
# Localhost worker fleets.


@contextlib.contextmanager
def local_worker_threads(
    address: Any, n_workers: int, **agent_kwargs
) -> Iterator[List[WorkerAgent]]:
    """``n_workers`` in-process agents against ``address`` (tests, demos).

    Threads share the GIL and BLAS, so this is about protocol-level
    concurrency, not compute throughput — use
    :func:`local_worker_processes` for real parallelism.
    """
    agents = [
        WorkerAgent(address, name=f"thread-worker-{i}", **agent_kwargs)
        for i in range(n_workers)
    ]
    threads = [
        threading.Thread(target=agent.run_forever, daemon=True) for agent in agents
    ]
    for thread in threads:
        thread.start()
    try:
        yield agents
    finally:
        for agent in agents:
            agent.stop()
        for thread in threads:
            thread.join(timeout=10.0)


def _worker_env(threads_per_worker: Optional[int]) -> dict:
    """Child env whose ``PYTHONPATH`` can import this very ``repro``.

    With a thread cap, the ``OMP_NUM_THREADS``-family variables are
    pinned exactly like the process-pool Runner's workers — the cap
    must be in the environment before the child first loads numpy/BLAS,
    which is why it is set here and not inside the worker CLI.
    """
    from repro.pipeline.runner import THREAD_ENV_VARS

    env = dict(os.environ)
    package_root = str(Path(__file__).resolve().parents[2])
    existing = env.get("PYTHONPATH", "")
    if package_root not in existing.split(os.pathsep):
        env["PYTHONPATH"] = (
            package_root + (os.pathsep + existing if existing else "")
        )
    if threads_per_worker is not None:
        for var in THREAD_ENV_VARS:
            env[var] = str(int(threads_per_worker))
    return env


@contextlib.contextmanager
def local_worker_processes(
    address: Any,
    n_workers: int,
    cache_dir: Optional[str] = None,
    max_idle_s: float = 30.0,
    threads_per_worker: Optional[int] = 1,
    peer: bool = True,
    trace: Optional[str] = None,
    log_level: Optional[str] = None,
    token: Optional[str] = None,
) -> Iterator[List[subprocess.Popen]]:
    """``n_workers`` subprocess agents (``python -m repro cluster worker``).

    Each worker is a fresh interpreter, so BLAS parallelism and memory
    are genuinely per-worker — the localhost stand-in for real hosts.
    ``threads_per_worker`` caps each agent's BLAS/OpenMP threads like
    :class:`repro.pipeline.runner.Runner` does for its process pool
    (``None`` leaves the runtimes at their defaults).  ``peer=False``
    starts the agents with ``--no-peer-sync`` (pure hub topology).
    ``trace`` forwards ``--trace PATH`` so every agent appends spans to
    the same JSONL file as the coordinator (line-atomic appends; the
    exporter separates processes by pid) — this is how a single
    ``repro cluster sweep --trace`` yields one merged fleet trace.
    """
    target = format_address(parse_address(address))
    command = [
        sys.executable,
        "-m",
        "repro",
        "cluster",
        "worker",
        "--coordinator",
        target,
        "--max-idle-s",
        str(max_idle_s),
    ]
    if cache_dir:
        command += ["--cache-dir", str(cache_dir)]
    if not peer:
        command.append("--no-peer-sync")
    if trace:
        command += ["--trace", str(trace)]
    if log_level:
        command += ["--log-level", str(log_level)]
    env = _worker_env(threads_per_worker)
    if token:
        # The secret travels by environment, not argv: process listings
        # are world-readable on shared hosts.
        env["REPRO_CLUSTER_TOKEN"] = str(token)
    # stdout is silenced (the agent prints a summary line that would
    # corrupt --json output); stderr is inherited so a worker that dies
    # on startup — import error, bad PYTHONPATH — shows its traceback
    # immediately instead of leaving the coordinator waiting blind.
    workers = [
        subprocess.Popen(command, env=env, stdout=subprocess.DEVNULL)
        for _ in range(n_workers)
    ]
    try:
        yield workers
    finally:
        crashed = [
            proc for proc in workers if proc.poll() not in (None, 0)
        ]
        for proc in workers:
            if proc.poll() is None:
                proc.terminate()
        for proc in workers:
            try:
                proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=5.0)
        if crashed:
            # WARNING-level records reach stderr even unconfigured
            # (logging's last-resort handler), so this diagnostic stays
            # visible without a print() that --json callers would see.
            LOG.warning(
                "%d/%d cluster worker subprocess(es) exited abnormally "
                "(codes %s) before teardown — see their stderr above",
                len(crashed),
                len(workers),
                [p.returncode for p in crashed],
            )


__all__ = [
    "ClusterExecutor",
    "PlanFailed",
    "local_worker_processes",
    "local_worker_threads",
]
