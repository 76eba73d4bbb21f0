#!/usr/bin/env python
"""Staged pipeline + artifact cache + sweep runner, end to end.

The staged experiment API splits the Fig. 7 flow into four composable
stages (train-baseline → fault-aware-train → tolerance-analysis →
dram-eval) whose artifacts are cached content-addressed by config
fingerprint.  This example:

1. runs one staged pipeline into a shared :class:`ArtifactStore`;
2. sweeps a voltage × mapping-policy grid through the
   :class:`Runner` — every grid point reuses the trained SNN from
   step 1, so the sweep only pays for the cheap DRAM evaluations;
3. exports the structured :class:`RunRecord` list to CSV and JSON.

Usage::

    python examples/staged_sweep.py [--workers N] [--out-dir DIR]
"""

import argparse

from repro import SparkXDConfig
from repro.analysis.export import export_run_records, write_run_records_json
from repro.pipeline import ArtifactStore, ExperimentPipeline, Runner


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, default=1,
                        help="localhost worker subprocesses for the sweep "
                             "(1 = serial, in-process)")
    parser.add_argument("--out-dir", default="results",
                        help="directory for the CSV/JSON records")
    args = parser.parse_args()

    config = SparkXDConfig.small()
    store = ArtifactStore()

    print("Stage run 1/2: full staged pipeline (trains the SNN)...")
    result = ExperimentPipeline(config, store=store).run()
    print(result.summary())
    print(f"store after first run: {store.stats}")

    print()
    print("Stage run 2/2: voltage x mapping-policy sweep (no retraining)...")
    runner = Runner(config, store=store, max_workers=args.workers)
    records = runner.run({
        "voltages": [(1.325,), (1.175,), (1.025,)],
        "mapping_policy": ["sparkxd", "baseline"],
    })
    for record in records:
        (point,) = record.voltages
        feasible = "ok" if point.feasible else "infeasible"
        print(f"  {point.v_supply:.3f} V / {record.mapping_policy:<8}: "
              f"saving {record.mean_energy_saving:6.1%}  [{feasible}, "
              f"{record.cache_hits} cache hits]")
    print(f"store after sweep: {store.stats}")

    csv_path = export_run_records(f"{args.out_dir}/staged_sweep.csv", records)
    json_path = write_run_records_json(f"{args.out_dir}/staged_sweep.json", records)
    print(f"records written to {csv_path} and {json_path}")


if __name__ == "__main__":
    main()
