"""Grid sweeps over configs with artifact reuse and local parallelism.

A sweep is a cartesian grid of :class:`~repro.core.config.SparkXDConfig`
field overrides::

    runner = Runner(SparkXDConfig.small())
    records = runner.run({
        "voltages": [(1.325,), (1.175,), (1.025,)],
        "mapping_policy": ["sparkxd", "baseline"],
    })

Every grid point runs through the staged pipeline against one shared
:class:`~repro.pipeline.store.ArtifactStore`, so points that agree on
the training-side fields share the trained model: the voltage × BER ×
mapping-policy sweep above trains the SNN exactly once and only re-runs
the cheap DRAM evaluation per point.

With ``max_workers > 1`` the grid runs on the cluster stack's local
fleet (:meth:`repro.cluster.ClusterExecutor.run_local`): an embedded
single-shot experiment service on a loopback port plus ``max_workers``
localhost worker subprocesses, which compute one job per *unique
missing* stage fingerprint and push every artifact into this runner's
store before the records are assembled (deterministically, in grid
order) from it.  All result values are identical to serial execution,
and so are the per-record ``cache_hits`` / ``cache_misses``: a stage
the fleet computed is a miss of the first grid point that needs it.
Only ``wall_time_s`` (that point's own jobs' worker time plus its
assembly) and ``stage_timings`` (placement under ``cluster/…`` keys)
vary with worker count.

Each grid point yields a structured :class:`RunRecord` that serialises
to JSON/CSV via :mod:`repro.analysis.export`.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.config import SparkXDConfig
from repro.core.results import SparkXDResult
from repro.pipeline.stages import DRAM_FIELDS, ExperimentPipeline
from repro.pipeline.store import ArtifactStore, canonical_form, config_fingerprint
from repro.telemetry import span


def sweep_grid(axes: Mapping[str, Sequence[Any]]) -> List[Dict[str, Any]]:
    """Expand ``{field: values}`` axes into the cartesian list of points.

    Axis order follows the mapping's insertion order; the last axis
    varies fastest (like nested for-loops).
    """
    if not axes:
        return [{}]
    names = list(axes)
    for name in names:
        if not axes[name]:
            raise ValueError(f"sweep axis {name!r} has no values")
    return [
        dict(zip(names, combo))
        for combo in itertools.product(*(axes[name] for name in names))
    ]


@dataclass(frozen=True)
class VoltagePoint:
    """One per-voltage outcome of a run, in plain-scalar form."""

    v_supply: float
    device_ber: float
    feasible: bool
    mapping_policy: str
    energy_saving: float
    speedup: float
    energy_mj: Optional[float]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "v_supply": self.v_supply,
            "device_ber": self.device_ber,
            "feasible": self.feasible,
            "mapping_policy": self.mapping_policy,
            "energy_saving": self.energy_saving,
            "speedup": self.speedup,
            "energy_mj": self.energy_mj,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "VoltagePoint":
        return cls(
            v_supply=float(data["v_supply"]),
            device_ber=float(data["device_ber"]),
            feasible=bool(data["feasible"]),
            mapping_policy=str(data["mapping_policy"]),
            energy_saving=float(data["energy_saving"]),
            speedup=float(data["speedup"]),
            energy_mj=None if data["energy_mj"] is None else float(data["energy_mj"]),
        )


@dataclass
class RunRecord:
    """Structured summary of one grid point's full pipeline run."""

    run_id: str
    params: Dict[str, Any]
    dataset: str
    n_neurons: int
    seed: int
    representation: str
    mapping_policy: str
    baseline_accuracy: float
    improved_accuracy: float
    ber_threshold: Optional[float]
    mean_energy_saving: float
    voltages: Tuple[VoltagePoint, ...]
    wall_time_s: float
    cache_hits: int
    cache_misses: int
    #: Training engine knobs of the run (fingerprint-relevant — see
    #: docs/training.md); defaulted for pre-PR-3 payloads.
    train_batch_size: int = 1
    compute_dtype: str = "float64"
    #: Wall-clock seconds per pipeline stage *executed* for this record
    #: (stages restored from cache are absent).
    stage_timings: Dict[str, float] = field(default_factory=dict)
    #: The full result object; present on freshly-computed records, not
    #: restored by deserialisation (it is not part of the record schema).
    result: Optional[SparkXDResult] = field(default=None, repr=False, compare=False)

    # ------------------------------------------------------------------
    @classmethod
    def from_result(
        cls,
        result: SparkXDResult,
        params: Optional[Mapping[str, Any]] = None,
        wall_time_s: float = 0.0,
        cache_hits: int = 0,
        cache_misses: int = 0,
        stage_timings: Optional[Mapping[str, float]] = None,
    ) -> "RunRecord":
        """Summarise a :class:`SparkXDResult` into a record."""
        cfg = result.config
        points = tuple(
            VoltagePoint(
                v_supply=o.v_supply,
                device_ber=o.device_ber,
                feasible=o.feasible,
                mapping_policy=o.mapping_policy,
                energy_saving=o.energy_saving,
                speedup=o.speedup,
                energy_mj=o.result.energy.total_mj if o.result else None,
            )
            for _, o in sorted(result.outcomes.items(), reverse=True)
        )
        return cls(
            run_id=config_fingerprint(cfg, DRAM_FIELDS)[:12],
            params=dict(params or {}),
            dataset=cfg.dataset,
            n_neurons=cfg.n_neurons,
            seed=cfg.seed,
            representation=cfg.representation,
            mapping_policy=cfg.mapping_policy,
            baseline_accuracy=result.baseline_model.accuracy,
            improved_accuracy=result.improved_model.accuracy,
            ber_threshold=result.ber_threshold,
            mean_energy_saving=result.mean_energy_saving(),
            voltages=points,
            wall_time_s=wall_time_s,
            cache_hits=cache_hits,
            cache_misses=cache_misses,
            train_batch_size=cfg.train_batch_size,
            compute_dtype=cfg.compute_dtype,
            stage_timings=dict(stage_timings or {}),
            result=result,
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict form (drops the heavyweight ``result``)."""
        return {
            "run_id": self.run_id,
            "params": canonical_form(self.params),
            "dataset": self.dataset,
            "n_neurons": self.n_neurons,
            "seed": self.seed,
            "representation": self.representation,
            "mapping_policy": self.mapping_policy,
            "train_batch_size": self.train_batch_size,
            "compute_dtype": self.compute_dtype,
            "baseline_accuracy": self.baseline_accuracy,
            "improved_accuracy": self.improved_accuracy,
            "ber_threshold": self.ber_threshold,
            "mean_energy_saving": self.mean_energy_saving,
            "voltages": [p.to_dict() for p in self.voltages],
            "wall_time_s": self.wall_time_s,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "stage_timings": {
                name: float(seconds)
                for name, seconds in sorted(self.stage_timings.items())
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunRecord":
        return cls(
            run_id=str(data["run_id"]),
            params=dict(data["params"]),
            dataset=str(data["dataset"]),
            n_neurons=int(data["n_neurons"]),
            seed=int(data["seed"]),
            representation=str(data["representation"]),
            mapping_policy=str(data["mapping_policy"]),
            baseline_accuracy=float(data["baseline_accuracy"]),
            improved_accuracy=float(data["improved_accuracy"]),
            ber_threshold=(
                None if data["ber_threshold"] is None else float(data["ber_threshold"])
            ),
            mean_energy_saving=float(data["mean_energy_saving"]),
            voltages=tuple(VoltagePoint.from_dict(p) for p in data["voltages"]),
            wall_time_s=float(data["wall_time_s"]),
            cache_hits=int(data["cache_hits"]),
            cache_misses=int(data["cache_misses"]),
            train_batch_size=int(data.get("train_batch_size", 1)),
            compute_dtype=str(data.get("compute_dtype", "float64")),
            stage_timings={
                str(name): float(seconds)
                for name, seconds in dict(data.get("stage_timings", {})).items()
            },
        )


class Runner:
    """Execute a grid of experiments with shared caching.

    Parameters
    ----------
    base_config:
        The config every grid point starts from (overridden per point).
    store:
        Shared artifact store; defaults to a fresh in-memory store.
        Pass a disk-backed store to reuse artifacts across sweeps.
    max_workers:
        ``1`` (default) runs serially in-process; larger values run a
        multi-point grid on that many localhost worker subprocesses
        (see the module docstring).  Result values and cache
        statistics are identical either way (the timing record fields
        are execution-dependent).
    threads_per_worker:
        BLAS/OpenMP threads each worker subprocess may use (default 1 —
        one core per worker, no oversubscription from the workers'
        large matmuls): the ``OMP_NUM_THREADS``-family variables are
        pinned in each worker's environment.  Pass ``None`` to leave
        the runtimes at their own defaults.

    Networked workers are :class:`repro.cluster.ClusterExecutor`'s job
    (``ClusterExecutor(address=...).run(grid)``, docs/cluster.md).
    """

    def __init__(
        self,
        base_config: SparkXDConfig | None = None,
        store: Optional[ArtifactStore] = None,
        max_workers: int = 1,
        threads_per_worker: Optional[int] = 1,
    ):
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        if threads_per_worker is not None and threads_per_worker < 1:
            raise ValueError(
                f"threads_per_worker must be >= 1 or None, got {threads_per_worker}"
            )
        self.base_config = base_config or SparkXDConfig()
        self.store = store if store is not None else ArtifactStore()
        self.max_workers = max_workers
        self.threads_per_worker = threads_per_worker

    # ------------------------------------------------------------------
    def run(self, grid: Mapping[str, Sequence[Any]]) -> List[RunRecord]:
        """Run every grid point; return records in grid order."""
        param_sets = sweep_grid(grid)
        if self.max_workers > 1 and len(param_sets) > 1:
            # Imported here, so the pipeline layer (and a serial sweep)
            # never loads the cluster subsystem.
            from repro.cluster import ClusterExecutor

            return ClusterExecutor(self.base_config, store=self.store).run_local(
                grid, self.max_workers, threads_per_worker=self.threads_per_worker
            )
        configs = [self.base_config.with_overrides(**p) for p in param_sets]
        records: List[RunRecord] = []
        for params, config in zip(param_sets, configs):
            started = time.perf_counter()
            before = self.store.stats.snapshot()
            pipeline = ExperimentPipeline(config, store=self.store)
            with span("sweep.point", params=dict(params)):
                result = pipeline.run()
            after = self.store.stats
            records.append(
                RunRecord.from_result(
                    result,
                    params=params,
                    wall_time_s=time.perf_counter() - started,
                    cache_hits=after.hits - before.hits,
                    cache_misses=after.misses - before.misses,
                    stage_timings=pipeline.stage_timings,
                )
            )
        return records
