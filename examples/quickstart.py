#!/usr/bin/env python
"""Quickstart: the whole SparkXD framework in one call.

Runs the full Fig. 7 pipeline on a sub-minute configuration:

1. train a baseline SNN on the synthetic MNIST workload;
2. fault-aware-train it against progressively increasing DRAM bit
   error rates (Algorithm 1);
3. find the maximum tolerable BER for the accuracy target
   (Section IV-C);
4. map the weights to safe DRAM subarrays with Algorithm 2 and measure
   the DRAM energy at every reduced supply voltage (Section IV-D).

:class:`~repro.pipeline.ExperimentPipeline` runs the four steps as
stages; see ``examples/staged_sweep.py`` for running them with artifact
caching and sweeping grids without retraining.

Usage::

    python examples/quickstart.py
"""

from repro import SparkXDConfig
from repro.pipeline import ExperimentPipeline


def main() -> None:
    config = SparkXDConfig.small()
    print(f"Running SparkXD: dataset={config.dataset}, "
          f"N{config.n_neurons}, BER schedule {config.ber_rates}")
    result = ExperimentPipeline(config).run()
    print()
    print(result.summary())
    print()
    print("Per-stage fault-aware training accuracy:")
    for rate, accuracy in result.training.accuracy_per_rate.items():
        print(f"  trained through BER {rate:.0e}: {accuracy:.1%}")
    print()
    print("Error-tolerance curve (Section IV-C):")
    for ber, accuracy in result.tolerance.curve:
        marker = " <= BER_th" if result.tolerance.meets_target(ber) else ""
        print(f"  BER {ber:.0e}: {accuracy:.1%}{marker}")


if __name__ == "__main__":
    main()
