#!/usr/bin/env python
"""Training throughput benchmark: sequential vs minibatch vs fused STDP.

Measures how many training-sample presentations per second the
sequential (``batch_size=1``), minibatch-reference (the unfused loop
of ``tests/snn_oracle.py``, swapped in for
``DiehlCookNetwork.run_batch_stdp``) and fused (the library's
minibatch loop) training engines sustain on two network sizes at both
compute precisions.  Timing is steady-state: each engine column reuses
one trainer (so workspaces, minibatch machinery and the drive operator
cache are warm) and reports its best epoch.  Two bitwise gates guard
the numbers: ``batch_size=1`` must reproduce the historical sequential
loop (``reference_run_sample``) and raise some threshold, so it spiked,
and the fused kernel must reproduce the minibatch-reference loop —
weight for weight, threshold for threshold, down to the final
membrane potentials and excitatory conductances.  An injection section
times one fault-aware DRAM read (``ErrorInjector.inject_uniform``) for
Model-0 and EDEN against the historical per-bit path of
``tests/errors_oracle.py``, and gates on reproducing it byte for byte —
corrupted weights and random-stream end state.  Results go to
``BENCH_training.json`` — the training half of the repo's performance
trajectory artifacts (see ``BENCH_engine.json`` for evaluation).

Usage::

    PYTHONPATH=src python benchmarks/perf_training.py           # full run
    PYTHONPATH=src python benchmarks/perf_training.py --quick   # CI smoke

The workload mirrors one fault-aware training stage (Algorithm 1):
Poisson-encoded samples presented with STDP, a DRAM read through the
error injector per presentation, deltas credited back to the stored
clean tensor.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from repro.engine.trainer import BatchedTrainer
from repro.errors.injection import ErrorInjector
from repro.errors.models import make_error_model
from repro.snn.network import DiehlCookNetwork, NetworkParameters
from repro.snn.quantization import Float32Representation

# The reference loops live with the tests they serve as oracles for.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from errors_oracle import OracleInjector  # noqa: E402
from snn_oracle import (  # noqa: E402
    reference_run_batch_stdp,
    reference_sequential_train,
)

# N400 runs batch 32: the dense-step cutoff in the accumulate makes
# larger minibatches profitable there (with the purely column-restricted
# accumulate, 32 lanes' bigger spiking-column unions made B=32 *slower*
# than B=16).
FULL_SCENARIOS = (
    {"n_neurons": 100, "n_train": 32, "n_steps": 100, "dtype": "float64",
     "batch_size": 16},
    {"n_neurons": 400, "n_train": 32, "n_steps": 100, "dtype": "float64",
     "batch_size": 32},
    {"n_neurons": 100, "n_train": 32, "n_steps": 100, "dtype": "float32",
     "batch_size": 16},
    {"n_neurons": 400, "n_train": 32, "n_steps": 100, "dtype": "float32",
     "batch_size": 32},
)
QUICK_SCENARIOS = (
    {"n_neurons": 60, "n_train": 12, "n_steps": 30, "dtype": "float64",
     "batch_size": 6},
    {"n_neurons": 100, "n_train": 12, "n_steps": 30, "dtype": "float32",
     "batch_size": 6},
)


#: Injection section: (network size, error model) per-read timings at
#: one BER of the fault-aware schedule.
FULL_INJECTION = tuple((n, m) for n in (100, 400) for m in ("model0", "eden"))
QUICK_INJECTION = ((100, "model0"), (100, "eden"))
INJECTION_BER = 1e-4


def _images(scenario: dict, n_input: int = 784) -> np.ndarray:
    rng = np.random.default_rng(1234)
    # MNIST-like sparse images: most pixels dark, a bright blob.
    return np.clip(
        rng.random((scenario["n_train"], n_input)) - 0.55, 0.0, 0.45
    ) * 2


def _network(scenario: dict, n_input: int = 784) -> DiehlCookNetwork:
    params = NetworkParameters(n_input=n_input, n_neurons=scenario["n_neurons"])
    return DiehlCookNetwork(
        params, rng=np.random.default_rng(7), dtype=np.dtype(scenario["dtype"])
    )


def _corrupter(network: DiehlCookNetwork, seed: int = 5):
    """The pipeline's fault-aware read: FP32 storage saturating into
    ``[0, w_max]``, Model-0 errors at BER 1e-5."""
    injector = ErrorInjector(
        Float32Representation(clip_range=(0.0, network.w_max)), seed=seed
    )
    return lambda weights: injector.inject_uniform(weights, 1e-5)[0]


@contextmanager
def _reference_minibatch_loop():
    """Run minibatches through the unfused oracle loop, restored afterwards."""
    fused = DiehlCookNetwork.run_batch_stdp
    DiehlCookNetwork.run_batch_stdp = reference_run_batch_stdp
    try:
        yield
    finally:
        DiehlCookNetwork.run_batch_stdp = fused


def _time_trainer(scenario, batch_size, repeats):
    """Best steady-state epoch seconds of one engine configuration.

    One trainer serves warmup + all timed epochs, the way the training
    engine runs in a fault-aware sweep (many epochs x BER stages per
    trainer): the minibatch machinery, fused workspaces and first-touch
    costs are paid once, outside the timed region.
    """
    images = _images(scenario)
    network = _network(scenario)
    trainer = BatchedTrainer(
        network,
        batch_size=batch_size,
        corrupt_weights=_corrupter(network),
    )
    rng = np.random.default_rng(99)
    trainer.train(images, n_steps=scenario["n_steps"], epochs=1, rng=rng)
    best = np.inf
    for _ in range(repeats):
        started = time.perf_counter()
        trainer.train(
            images, n_steps=scenario["n_steps"], epochs=1, rng=rng
        )
        best = min(best, time.perf_counter() - started)
    return best


def _trained_network(scenario, batch_size):
    """One fresh-trainer epoch at a fixed seed (for the identity gates)."""
    network = _network(scenario)
    trainer = BatchedTrainer(
        network,
        batch_size=batch_size,
        corrupt_weights=_corrupter(network),
    )
    trainer.train(
        _images(scenario), n_steps=scenario["n_steps"], epochs=1,
        rng=np.random.default_rng(99),
    )
    return network


def _same_state(a, b) -> bool:
    """Weights, thresholds and the last presentation's ``v`` and ``g_e``.

    The final potentials and conductances show a drive refresh that a
    short run's weights and thresholds can miss.
    """
    return bool(
        np.array_equal(a.weights, b.weights)
        and np.array_equal(a.neurons.theta, b.neurons.theta)
        and np.array_equal(a.neurons.v, b.neurons.v)
        and np.array_equal(a.g_excitatory.g, b.g_excitatory.g)
    )


def _spiked(network, scenario) -> bool:
    """Whether training raised a threshold above its initial value.

    Only a spike raises theta (homeostasis decays it otherwise), so two
    networks that never spiked cannot pass a gate that requires this.
    """
    return bool((network.neurons.theta > _network(scenario).neurons.theta).any())


def _injection_row(n_neurons: int, model: str, reads: int) -> dict:
    """Per-read seconds of the injector and of its oracle on the same
    weights, and whether the two agree byte for byte."""
    weights = _network({"n_neurons": n_neurons, "dtype": "float64"}).weights
    row = {"n_neurons": n_neurons, "error_model": model, "ber": INJECTION_BER}
    outputs = {}
    for key, cls in (("", ErrorInjector), ("oracle_", OracleInjector)):
        injector = cls(
            Float32Representation(clip_range=(0.0, 1.0)),
            model=make_error_model(model),
        )
        rng = np.random.default_rng(11)
        injector.inject_uniform(weights, INJECTION_BER, rng=rng)  # warm-up
        started = time.perf_counter()
        corrupted = [
            injector.inject_uniform(weights, INJECTION_BER, rng=rng)[0].tobytes()
            for _ in range(reads)
        ]
        row[f"{key}ms_per_read"] = (time.perf_counter() - started) / reads * 1e3
        outputs[key] = (corrupted, rng.bit_generator.state)
    row["speedup"] = row["oracle_ms_per_read"] / row["ms_per_read"]
    row["matches_oracle"] = outputs[""] == outputs["oracle_"]
    print(
        f"inject N{n_neurons:<4} {model:<7} BER {INJECTION_BER:g} | "
        f"{row['ms_per_read']:7.2f} ms/read | oracle "
        f"{row['oracle_ms_per_read']:7.2f} ms/read ({row['speedup']:5.1f}x) | "
        f"identical={row['matches_oracle']}"
    )
    return row


def run_benchmark(quick: bool, repeats: int) -> dict:
    scenarios = QUICK_SCENARIOS if quick else FULL_SCENARIOS
    results = []
    for scenario in scenarios:
        n_train = scenario["n_train"]
        batch = scenario["batch_size"]
        row = dict(scenario, n_input=784)

        # Bit-identity gates: batch_size=1 must equal the historical
        # loop (and have spiked, so the comparison is not vacuous); the
        # fused kernel must equal the minibatch reference.
        ref_net = _network(scenario)
        reference_sequential_train(
            ref_net, _images(scenario), scenario["n_steps"], 1,
            np.random.default_rng(99), _corrupter(ref_net),
        )
        seq_net = _trained_network(scenario, 1)
        row["sequential_matches_reference"] = _same_state(
            ref_net, seq_net
        ) and _spiked(seq_net, scenario)
        with _reference_minibatch_loop():
            batched_net = _trained_network(scenario, batch)
        row["fused_matches_batched"] = _same_state(
            batched_net, _trained_network(scenario, batch)
        )

        seq_seconds = _time_trainer(scenario, 1, repeats)
        with _reference_minibatch_loop():
            batch_seconds = _time_trainer(scenario, batch, repeats)
        fused_seconds = _time_trainer(scenario, batch, repeats)

        row["sequential_seconds"] = seq_seconds
        row["sequential_samples_per_sec"] = n_train / seq_seconds
        row["batched_seconds"] = batch_seconds
        row["batched_samples_per_sec"] = n_train / batch_seconds
        row["speedup"] = seq_seconds / batch_seconds
        row["fused_seconds"] = fused_seconds
        row["fused_samples_per_sec"] = n_train / fused_seconds
        row["fused_speedup"] = seq_seconds / fused_seconds
        results.append(row)
        print(
            f"N{scenario['n_neurons']:<4} {scenario['dtype']:<8} "
            f"B={batch:<3} {n_train:>3} samples | "
            f"sequential {row['sequential_samples_per_sec']:7.1f}/s | "
            f"batched {row['batched_samples_per_sec']:7.1f}/s "
            f"({row['speedup']:5.2f}x) | "
            f"fused {row['fused_samples_per_sec']:7.1f}/s "
            f"({row['fused_speedup']:5.2f}x) | "
            f"seq-identical={row['sequential_matches_reference']} "
            f"fused-identical={row['fused_matches_batched']}"
        )
    injection = [
        _injection_row(n_neurons, model, reads=2 if quick else 5 * repeats)
        for n_neurons, model in (QUICK_INJECTION if quick else FULL_INJECTION)
    ]
    return {
        "benchmark": "repro.engine.trainer sequential-vs-minibatch throughput",
        "injection": injection,
        "quick": quick,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "scenarios": results,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small scenarios for CI smoke runs")
    parser.add_argument("--repeats", type=int, default=5,
                        help="timed epochs per engine; the best is reported")
    parser.add_argument("--out", default="BENCH_training.json", metavar="PATH",
                        help="output JSON path (default: ./BENCH_training.json)")
    args = parser.parse_args(argv)
    if args.repeats <= 0:
        parser.error("--repeats must be > 0")

    payload = run_benchmark(args.quick, args.repeats)
    out = Path(args.out)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"results written to {out}")

    failed = False
    if not all(r["sequential_matches_reference"] for r in payload["scenarios"]):
        print("ERROR: batch_size=1 diverged from the reference sequential loop "
              "or never spiked", file=sys.stderr)
        failed = True
    if not all(r["fused_matches_batched"] for r in payload["scenarios"]):
        print("ERROR: fused kernel diverged from the minibatch reference",
              file=sys.stderr)
        failed = True
    if not all(r["matches_oracle"] for r in payload["injection"]):
        print("ERROR: error injection diverged from the per-bit oracle "
              "(tests/errors_oracle.py)", file=sys.stderr)
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
