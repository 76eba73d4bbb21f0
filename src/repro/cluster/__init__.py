"""Multi-host distributed sweep execution with artifact sync.

The cluster subsystem turns the single-host sweep engine
(:mod:`repro.pipeline`) into a horizontally scalable service, using
nothing beyond the standard library (``http.server``, ``http.client``,
``json``):

- the **coordinator** is the experiment service
  (:class:`ExperimentService`): the one coordinator runtime, many
  named sweeps (each a :class:`ManagedSweep` with its own
  :class:`SweepPlan`) multiplexed over one shared store and one worker
  fleet.  Each plan expands its grid, dedupes jobs by stage fingerprint
  and hands them out in creation order with leases, heartbeats,
  requeue-with-exclusion and bounded retries;
- **worker agents** (:class:`WorkerAgent`) lease jobs, run them through
  the ordinary :class:`~repro.pipeline.stages.ExperimentPipeline`
  against a local store, and sync artifacts by fingerprint
  (:class:`ArtifactSync` — peer-first with hub fallback, idempotent,
  resumable by retry);
- the **executor** (:class:`ClusterExecutor`) drives one sweep end to
  end on an embedded, single-shot :class:`ExperimentService` and
  assembles :class:`~repro.pipeline.runner.RunRecord` lists whose
  values are identical to the serial
  :class:`~repro.pipeline.runner.Runner`.

The content-addressed store is the one resume mechanism: a plan gives
no job to a fingerprint already stored, so a sweep killed mid-run is
resumed by running the same command again on the same ``--cache-dir``
(or resubmitting it to a service restarted on the same store).

One wire: every client, worker and peer request is one HTTP request
through :class:`ServiceClient`, dispatched by one route table
(:mod:`repro.cluster.http_api`) — the service serves every route on
one port, and each worker serves artifact downloads to its peers with
the same endpoint class, all behind one shared bearer token.

One entry point per concept: a local parallel sweep is ``repro sweep
--workers N`` (``Runner(max_workers=N)``); networked sweeps go to one
always-on service, watched with ``repro cluster status``::

    # service host
    python -m repro cluster serve --bind 0.0.0.0:8752

    # each worker host
    python -m repro cluster worker --coordinator service-host:8752

    # any client
    python -m repro cluster submit --service service-host:8752 --seeds 1 2 3 --wait

or, from a script, one single-shot sweep for networked workers::

    records = ClusterExecutor(config, store=store, address="0.0.0.0:8752").run(grid)

See ``docs/cluster.md`` for the route table, lease semantics and the
artifact sync contract.
"""

from repro.cluster.executor import ClusterExecutor, local_worker_processes
from repro.cluster.http_api import ServiceAuthError, ServiceClient, ServiceError
from repro.cluster.plan import Job, PlanFailed, SweepPlan, WorkerRegistry
from repro.cluster.protocol import (
    DEFAULT_PORT,
    encode_blob,
    format_address,
    parse_address,
)
from repro.cluster.service import (
    DistributionTimeout,
    ExperimentService,
    ManagedSweep,
    sweep_identity,
)
from repro.cluster.sync import ArtifactSync
from repro.cluster.worker import WorkerAgent, WorkerStats, default_worker_name

__all__ = [
    "ArtifactSync",
    "ClusterExecutor",
    "DEFAULT_PORT",
    "DistributionTimeout",
    "ExperimentService",
    "Job",
    "ManagedSweep",
    "PlanFailed",
    "ServiceAuthError",
    "ServiceClient",
    "ServiceError",
    "SweepPlan",
    "WorkerAgent",
    "WorkerRegistry",
    "WorkerStats",
    "default_worker_name",
    "encode_blob",
    "format_address",
    "local_worker_processes",
    "parse_address",
    "sweep_identity",
]
