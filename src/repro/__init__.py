"""SparkXD reproduction.

A full reimplementation of *SparkXD: A Framework for Resilient and
Energy-Efficient Spiking Neural Network Inference using Approximate DRAM*
(Putra, Hanif, Shafique — DAC 2021), including every substrate the paper
depends on:

- a vectorised numpy SNN simulator (:mod:`repro.snn`),
- a command-level DRAM model with voltage-dependent timing and energy
  (:mod:`repro.dram`),
- approximate-DRAM probabilistic error models and bit-level error
  injection (:mod:`repro.errors`),
- synthetic MNIST / Fashion-MNIST workloads (:mod:`repro.datasets`),
- SNN-inference-to-DRAM-trace generation (:mod:`repro.trace`),
- the SparkXD framework itself (:mod:`repro.core`): fault-aware
  training, error-tolerance analysis, and fault/energy-aware DRAM
  mapping,
- a staged experiment pipeline (:mod:`repro.pipeline`): the Fig. 7
  flow as composable stages with content-addressed artifact caching and
  a parallel grid-sweep runner,
- a batched vectorized evaluation engine (:mod:`repro.engine`):
  one simulation pass scores a whole evaluation set under a stack of
  corrupted-weight realizations, bit-identical to the sequential
  per-sample loop (see ``docs/engine.md``),
- and a distributed sweep service (:mod:`repro.cluster`): a
  coordinator/worker fleet speaking stdlib HTTP on one port, with
  fingerprint-deduplicated jobs, lease-based fault tolerance and
  content-addressed artifact sync — records identical to single-host
  runs (see ``docs/cluster.md``).

Quickstart — one run, then a cached sweep::

    from repro import SparkXDConfig
    from repro.pipeline import ArtifactStore, ExperimentPipeline, Runner

    store = ArtifactStore()          # ArtifactStore("cache/") persists to disk
    config = SparkXDConfig.small()
    result = ExperimentPipeline(config, store=store).run()   # trains once

    records = Runner(config, store=store, max_workers=4).run({   # 4 local workers
        "voltages": [(1.325,), (1.175,), (1.025,)],          # BER rises as V drops
        "mapping_policy": ["sparkxd", "baseline"],
    })                               # 6 points, zero retraining: cache hits
    for record in records:
        print(record.run_id, record.mean_energy_saving)

New scenarios plug in by name, without core edits: register workloads in
``repro.datasets.DATASETS``, error models in
``repro.errors.ERROR_MODELS``, weight-mapping policies in
``repro.core.mapping_policy.MAPPING_POLICIES`` and devices in
``repro.dram.specs.DRAM_SPECS``.  See ``docs/pipeline.md`` for the full
tour, and ``python -m repro stages`` for a live inventory.
"""

from repro.core.config import SparkXDConfig
from repro.core.results import SparkXDResult, VoltageOutcome

__all__ = ["SparkXDConfig", "SparkXDResult", "VoltageOutcome"]
__version__ = "1.1.0"
