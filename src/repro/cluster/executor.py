"""Distributed sweep execution: single-shot sweeps + local fleets.

:class:`ClusterExecutor` is the cluster twin of
:class:`repro.pipeline.runner.Runner`: it expands the same grids,
reuses the same content-addressed store, and returns the same
:class:`~repro.pipeline.runner.RunRecord` list in the same grid order —
but the unique missing stage fingerprints are computed by
:class:`~repro.cluster.worker.WorkerAgent` processes.  Result values are
identical to serial execution on every grid; only the
execution-dependent record fields differ, and each record additionally
carries per-job placement/transfer stats under ``cluster/…`` keys in
``stage_timings``.

:meth:`ClusterExecutor.run` is the one single-shot composition: it
starts an embedded :class:`~repro.cluster.service.ExperimentService`
that shuts its workers down once idle, submits the grid as the
service's only tenant, waits for the plan to drain, and assembles the
records in grid order; networked ``repro cluster worker`` agents
compute, reaching the service on its one port.
:meth:`ClusterExecutor.run_local` adds N localhost worker subprocesses
instead, for ``Runner(max_workers=N)`` and ``repro sweep --workers
N``.

With ``journal=...`` the tenant keeps a disk journal of every job
transition next to the store; ``resume=True`` replays it so a
coordinator killed mid-sweep restarts without re-leasing a single
journaled-done fingerprint (see docs/cluster.md, "Journal and
resume").
"""

from __future__ import annotations

import contextlib
import os
import secrets
import subprocess
import sys
import threading
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from repro.cluster.plan import PlanFailed, SweepPlan
from repro.cluster.protocol import format_address, is_loopback_host, parse_address
from repro.cluster.service import ExperimentService
from repro.core.config import SparkXDConfig
from repro.pipeline.runner import RunRecord
from repro.pipeline.store import ArtifactStore
from repro.telemetry import get_logger, span, telemetry_log_level, trace_writer

LOG = get_logger(__name__)

#: Lease re-poll interval of the workers of an executor that binds a
#: loopback host: they are local, and a worker waiting on an upstream
#: chain should pick it up at once.
LOCAL_POLL_S = 0.05

#: Idle limit (``--max-idle-s``) of a local fleet's workers: their
#: coordinator is on loopback, so a few seconds without it means the
#: sweep's process is gone, and an orphan should not outlive it long.
LOCAL_MAX_IDLE_S = 5.0


class ClusterExecutor:
    """Run sweeps by fanning jobs out to workers over HTTP.

    Parameters
    ----------
    base_config / store:
        As in :class:`~repro.pipeline.runner.Runner`.
    address:
        ``(host, port)`` or ``"host:port"`` the embedded service binds —
        this is the address workers connect to.  Port ``0`` picks an
        ephemeral port; read :attr:`address` once running.  The service
        serves its control routes on the same port, so a public bind
        exposes them too (behind the same ``token``).  Idle workers of
        a loopback service re-poll every :data:`LOCAL_POLL_S`, others
        at the service's default.
    lease_timeout:
        Lease semantics (see :mod:`repro.cluster.plan`); a job gets
        three attempts.
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
    compact_every:
        Auto-compact the journal after this many appended events (see
        :class:`~repro.cluster.journal.SweepJournal`); ``None`` never
        compacts automatically.
    token:
        Shared cluster secret the embedded service requires on every
        route.  :meth:`run_local` hands it to its fleet, and makes up a
        fresh one when there is none.
    """

    def __init__(
        self,
        base_config: Optional[SparkXDConfig] = None,
        store: Optional[ArtifactStore] = None,
        address: Any = ("127.0.0.1", 0),
        *,
        lease_timeout: float = 30.0,
        wait_timeout: Optional[float] = None,
        journal: Optional[Union[str, Path]] = None,
        resume: bool = False,
        compact_every: Optional[int] = None,
        token: Optional[str] = None,
    ):
        self.base_config = base_config or SparkXDConfig()
        self.store = store if store is not None else ArtifactStore()
        self.token = token
        self.bind_address: Tuple[str, int] = parse_address(address)
        self.lease_timeout = float(lease_timeout)
        self.wait_timeout = wait_timeout
        self.journal_path = Path(journal) if journal is not None else None
        self.resume = bool(resume)
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
        submitted (:attr:`last_plan` is set by then), with the
        service's bound ``(host, port)``; convenient for launching a
        worker fleet against an ephemeral port (see :meth:`run_local`).
        Workers that connect earlier are told to wait, never to shut
        down.
        """
        return self._serve(grid, on_ready, self.token)

    def _serve(self, grid, on_ready, token: Optional[str]) -> List[RunRecord]:
        host, port = self.bind_address
        service = ExperimentService(
            store=self.store,
            host=host,
            port=port,
            token=token,
            lease_timeout=self.lease_timeout,
            poll_s=LOCAL_POLL_S if is_loopback_host(host) else None,
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
            self.address = service.address
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
            self.last_transfer_stats = service.artifacts.transfer_stats()
        return records

    def run_local(
        self,
        grid: Mapping[str, Sequence[Any]],
        n_workers: int,
        threads_per_worker: Optional[int] = 1,
    ) -> List[RunRecord]:
        """:meth:`run` ``grid`` on ``n_workers`` localhost worker subprocesses.

        Fleet sizes are validated before the service starts; a grid
        whose artifacts are all cached (or journaled done) launches no
        worker; a fleet whose workers all exited with work left raises
        :class:`PlanFailed` naming their exit codes.
        ``threads_per_worker`` goes to :func:`local_worker_processes`,
        with the executor's token or, if it has none, a fresh one: no
        other local process can then upload an artifact the sweep
        would unpickle or serve as a cached stage.
        """
        if n_workers < 1:
            raise ValueError(f"workers must be >= 1, got {n_workers}")
        if threads_per_worker is not None and threads_per_worker < 1:
            raise ValueError(
                f"threads_per_worker must be >= 1 or None, got {threads_per_worker}"
            )
        exit_codes: List[int] = []
        token = self.token or secrets.token_urlsafe(32)
        with contextlib.ExitStack() as fleet:

            def on_ready(address: Tuple[str, int]) -> None:
                plan = self.last_plan
                if plan.done:
                    return
                workers = fleet.enter_context(local_worker_processes(
                    address,
                    n_workers,
                    threads_per_worker=threads_per_worker,
                    token=token,
                ))
                fleet.enter_context(
                    _cancel_when_all_exit(plan, workers, exit_codes)
                )

            try:
                return self._serve(grid, on_ready, token)
            except RuntimeError as error:
                if not exit_codes:
                    raise
                raise PlanFailed(
                    f"all {len(exit_codes)} local worker subprocess(es) "
                    f"exited (codes {exit_codes}) before the sweep finished "
                    "— see their stderr above"
                ) from error


@contextlib.contextmanager
def _cancel_when_all_exit(
    plan: SweepPlan, workers: Sequence[subprocess.Popen], exit_codes: List[int]
) -> Iterator[None]:
    """Cancel ``plan`` (ending the executor's wait) if every worker
    exited before it finished — a single-shot fleet only exits on the
    ``shutdown`` sent after it — and record their ``exit_codes``."""
    stop = threading.Event()

    def watch() -> None:
        while not stop.wait(0.1):
            codes = [proc.poll() for proc in workers]
            if None in codes:
                continue
            if not (plan.done or plan.failed):
                exit_codes.extend(codes)
                plan.cancel()
            return

    watcher = threading.Thread(target=watch, name="local-fleet-watch", daemon=True)
    watcher.start()
    try:
        yield
    finally:
        stop.set()
        watcher.join()


# ----------------------------------------------------------------------
# Localhost worker fleets.
#
# Workers spend most of their time in large `spikes @ weights` matmuls,
# and BLAS/OpenMP runtimes default to one thread *per core* — N workers
# x C BLAS threads oversubscribes the machine C-fold.  These variables
# cap every common runtime; they must be in a worker's environment
# *before* it first loads numpy/BLAS, which is why they are set on the
# subprocess environment and not inside the worker CLI.

THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)


def _worker_env(threads_per_worker: Optional[int]) -> dict:
    """Child env whose ``PYTHONPATH`` can import this very ``repro``.

    An integer ``threads_per_worker`` pins every :data:`THREAD_ENV_VARS`
    entry; ``None`` leaves the parent's values alone.
    """
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
    threads_per_worker: Optional[int] = 1,
    token: Optional[str] = None,
) -> Iterator[List[subprocess.Popen]]:
    """``n_workers`` subprocess agents (``python -m repro cluster worker``).

    Each worker is a fresh interpreter, so BLAS parallelism and memory
    are genuinely per-worker — the localhost stand-in for real hosts.
    ``threads_per_worker`` caps each agent's BLAS/OpenMP threads
    (``None`` leaves the runtimes at their defaults).  The agents
    inherit this process's telemetry: with a trace writer installed
    they append spans to the same JSONL file (line-atomic appends; the
    exporter separates processes by pid) — this is how ``repro sweep
    --workers N --trace`` yields one merged fleet trace — and they log
    at the level :func:`~repro.telemetry.configure_telemetry` set.
    Each agent exits once its coordinator has been unreachable for
    :data:`LOCAL_MAX_IDLE_S`, so the fleet of a killed sweep does not
    linger.
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
        str(LOCAL_MAX_IDLE_S),
    ]
    writer = trace_writer()
    if writer is not None:
        command += ["--trace", writer.path]
    log_level = telemetry_log_level()
    if log_level is not None:
        command += ["--log-level", log_level]
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
]
