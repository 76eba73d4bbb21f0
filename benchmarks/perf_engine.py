#!/usr/bin/env python
"""Engine throughput benchmark: sequential vs batched samples/sec.

Measures how many (sample x error-realization) evaluations per second
the batched evaluator and the per-sample reference loop
(``tests/snn_oracle.py``) sustain on two network sizes, double-checks
that both produced identical spike counts, and writes the results to
``BENCH_engine.json`` — the repo's performance trajectory artifact.

Also guards the telemetry contract: the batched evaluator path is
timed with span tracing off and on (interleaved min-of-N pairs), and
the run fails if tracing costs more than ``TELEMETRY_GATE_PCT`` —
instrumentation must stay effectively free on the hot path.

And the memory model: one untimed batched pass per scenario runs under
``tracemalloc``; its traced peak (``batched_peak_traced_mb``) must stay
within the :class:`~repro.engine.ChunkPolicy` estimate
(``batched_peak_estimate_mb``: ``bytes_per_sample`` times the chunk,
plus the policy's fixed drive-block term and the installed weight
copy), or the run fails.

Usage::

    PYTHONPATH=src python benchmarks/perf_engine.py           # full run
    PYTHONPATH=src python benchmarks/perf_engine.py --quick   # CI smoke

The workload mirrors the paper's evaluation loop (Fig. 8 / Fig. 11):
one trained-like network, a stack of E bit-error-corrupted weight
copies, B evaluation images, n_steps of Poisson-coded simulation.
Each row records ``parts``, the number of parts the batched pass split
its samples into on this host (one per CPU, at most two, at least 64
samples each and per chunk; ``docs/engine.md``): the last scenario of
each set is large enough to split on a multi-core host, so the
identity and memory gates cover a split pass.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

from repro.engine import BatchedEvaluator, ChunkPolicy
from repro.engine.evaluator import _split
from repro.errors.injection import ErrorInjector
from repro.snn.network import DiehlCookNetwork, NetworkParameters
from repro.snn.quantization import Float32Representation

# The reference loops live with the tests they serve as oracles for.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from snn_oracle import sequential_spike_counts  # noqa: E402

#: Spike-count function per timed path; both take
#: ``(evaluator, images, n_steps, rng, weights)``.
ENGINES = {
    "sequential": sequential_spike_counts,
    "batched": BatchedEvaluator.spike_counts,
}

FULL_SCENARIOS = (
    {"n_neurons": 100, "n_samples": 40, "n_realizations": 4, "n_steps": 100,
     "dtype": "float64"},
    {"n_neurons": 400, "n_samples": 40, "n_realizations": 4, "n_steps": 100,
     "dtype": "float64"},
    {"n_neurons": 400, "n_samples": 20, "n_realizations": 8, "n_steps": 100,
     "dtype": "float32"},
    {"n_neurons": 400, "n_samples": 160, "n_realizations": 2, "n_steps": 100,
     "dtype": "float64"},
)
QUICK_SCENARIOS = (
    {"n_neurons": 60, "n_samples": 8, "n_realizations": 2, "n_steps": 30,
     "dtype": "float64"},
    {"n_neurons": 100, "n_samples": 8, "n_realizations": 2, "n_steps": 30,
     "dtype": "float32"},
    # Large enough that the drives stream in blocks, a whole-chunk
    # drive tensor would break the memory estimate, and the pass splits
    # into two parts on a multi-core host.
    {"n_neurons": 400, "n_samples": 128, "n_realizations": 2, "n_steps": 100,
     "dtype": "float64"},
)

#: Maximum tolerated slowdown of the batched evaluator with tracing on.
TELEMETRY_GATE_PCT = 3.0


def _build_workload(scenario: dict, n_input: int = 784):
    """A trained-like network, corrupted weight stack and image batch."""
    rng = np.random.default_rng(1234)
    params = NetworkParameters(n_input=n_input, n_neurons=scenario["n_neurons"])
    network = DiehlCookNetwork(params, rng=rng)
    network.theta = rng.uniform(0.0, 2.0, params.n_neurons)
    injector = ErrorInjector(Float32Representation(clip_range=(0, 1)), seed=7)
    stack, _ = injector.inject_stack(
        network.weights, 1e-3, n_realizations=scenario["n_realizations"], rng=rng
    )
    # MNIST-like sparse images: most pixels dark, a bright blob.
    images = np.clip(rng.random((scenario["n_samples"], n_input)) - 0.55, 0.0, 0.45) * 2
    return network, stack, images


def _time_engine(network, stack, images, n_steps, engine, dtype, repeats):
    best = np.inf
    counts = None
    for _ in range(repeats):
        evaluator = BatchedEvaluator.for_network(network, dtype=np.dtype(dtype))
        started = time.perf_counter()
        counts = ENGINES[engine](
            evaluator, images, n_steps, np.random.default_rng(99), stack
        )
        best = min(best, time.perf_counter() - started)
    return best, counts


def _traced_peak(network, stack, images, n_steps, dtype):
    """Traced peak bytes of one batched pass, and the policy's estimate."""
    evaluator = BatchedEvaluator.for_network(network, dtype=np.dtype(dtype))
    stack = np.asarray(stack, dtype=evaluator.dtype)
    tracemalloc.start()
    try:
        evaluator.spike_counts(images, n_steps, np.random.default_rng(99), stack)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    policy = evaluator.chunk_policy
    dims = (stack.shape[0], n_steps, network.n_input, network.n_neurons)
    chunk = min(len(images), policy.samples_per_chunk(*dims))
    estimate = (
        policy.bytes_per_sample(*dims) * chunk + policy.fixed_bytes() + stack.nbytes
    )
    return peak, estimate


def run_benchmark(quick: bool, repeats: int) -> dict:
    scenarios = QUICK_SCENARIOS if quick else FULL_SCENARIOS
    results = []
    for scenario in scenarios:
        network, stack, images = _build_workload(scenario)
        evaluations = stack.shape[0] * images.shape[0]
        chunk = ChunkPolicy().samples_per_chunk(
            stack.shape[0], scenario["n_steps"], network.n_input, network.n_neurons
        )
        row = dict(
            scenario,
            n_input=network.n_input,
            evaluations=evaluations,
            parts=len(_split(len(images), chunk, np.random.default_rng(99))),
        )
        reference = {}
        for engine in ENGINES:
            seconds, counts = _time_engine(
                network, stack, images, scenario["n_steps"], engine,
                scenario["dtype"], repeats,
            )
            row[f"{engine}_seconds"] = seconds
            row[f"{engine}_samples_per_sec"] = evaluations / seconds
            reference[engine] = counts
        row["speedup"] = (
            row["batched_samples_per_sec"] / row["sequential_samples_per_sec"]
        )
        row["identical_counts"] = bool(
            np.array_equal(reference["sequential"], reference["batched"])
        )
        peak, estimate = _traced_peak(
            network, stack, images, scenario["n_steps"], scenario["dtype"]
        )
        row["batched_peak_traced_mb"] = peak / 2**20
        row["batched_peak_estimate_mb"] = estimate / 2**20
        results.append(row)
        print(
            f"N{scenario['n_neurons']:<4} {scenario['dtype']:<8} "
            f"{evaluations:>4} evaluations, {row['parts']} part(s) | "
            f"sequential {row['sequential_samples_per_sec']:8.1f}/s | "
            f"batched {row['batched_samples_per_sec']:8.1f}/s | "
            f"speedup {row['speedup']:5.2f}x | "
            f"identical={row['identical_counts']} | "
            f"peak {row['batched_peak_traced_mb']:.1f}/"
            f"{row['batched_peak_estimate_mb']:.1f} MB"
        )
    return {
        "benchmark": "repro.engine sequential-vs-batched throughput",
        "quick": quick,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "scenarios": results,
    }


def measure_telemetry_overhead(pairs: int = 15) -> dict:
    """Telemetry-on vs -off timing of the batched evaluator hot path.

    Off/on runs are interleaved so machine drift (thermal, noisy CI
    neighbours) hits both arms equally, and each arm keeps its best
    time.  "On" means a live trace writer — per-chunk ``eval.chunk``
    spans actually record; metrics counters run in both arms because
    they are never switched off.

    ``--quick`` times the same N100 scenario as the full run (about
    46 ms an evaluation): against the quick N60 one (about 4.5 ms) a
    span's fixed record cost alone reads about +4%, so the gate failed
    on the scenario's size, not on tracing cost.
    """
    from tempfile import TemporaryDirectory

    from repro.telemetry import configure_tracing, shutdown_tracing

    scenario = FULL_SCENARIOS[0]
    network, stack, images = _build_workload(scenario)

    def once() -> float:
        evaluator = BatchedEvaluator.for_network(
            network, dtype=np.dtype(scenario["dtype"])
        )
        started = time.perf_counter()
        evaluator.spike_counts(
            images, scenario["n_steps"], np.random.default_rng(99), weights=stack
        )
        return time.perf_counter() - started

    once()  # warm caches/allocator before either arm is timed
    off_best = on_best = np.inf
    with TemporaryDirectory() as tmp:
        trace_path = str(Path(tmp) / "overhead_trace.jsonl")
        for _ in range(pairs):
            shutdown_tracing()
            off_best = min(off_best, once())
            configure_tracing(trace_path)
            on_best = min(on_best, once())
        shutdown_tracing()
    overhead_pct = (on_best / off_best - 1.0) * 100.0
    return {
        "path": "BatchedEvaluator.spike_counts (batched engine)",
        "pairs": pairs,
        "off_s": off_best,
        "on_s": on_best,
        "overhead_pct": overhead_pct,
        "gate_pct": TELEMETRY_GATE_PCT,
        "ok": overhead_pct <= TELEMETRY_GATE_PCT,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small scenarios for CI smoke runs")
    parser.add_argument("--repeats", type=int, default=2,
                        help="timing repeats; the best run is reported")
    parser.add_argument("--out", default="BENCH_engine.json", metavar="PATH",
                        help="output JSON path (default: ./BENCH_engine.json)")
    args = parser.parse_args(argv)
    if args.repeats <= 0:
        parser.error("--repeats must be > 0")

    payload = run_benchmark(args.quick, args.repeats)
    overhead = measure_telemetry_overhead()
    payload["telemetry_overhead"] = overhead
    print(
        f"telemetry overhead: off {overhead['off_s']:.4f}s | "
        f"on {overhead['on_s']:.4f}s | "
        f"{overhead['overhead_pct']:+.2f}% "
        f"(gate {overhead['gate_pct']:.1f}%)"
    )
    out = Path(args.out)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"results written to {out}")

    if not all(row["identical_counts"] for row in payload["scenarios"]):
        print("ERROR: engines disagreed on spike counts", file=sys.stderr)
        return 1
    over = [
        row for row in payload["scenarios"]
        if row["batched_peak_traced_mb"] > row["batched_peak_estimate_mb"]
    ]
    for row in over:
        print(
            f"ERROR: N{row['n_neurons']} {row['dtype']} batched pass peaked at "
            f"{row['batched_peak_traced_mb']:.1f} MB, over its "
            f"{row['batched_peak_estimate_mb']:.1f} MB ChunkPolicy estimate",
            file=sys.stderr,
        )
    if over:
        return 1
    if not overhead["ok"]:
        print(
            f"ERROR: telemetry overhead {overhead['overhead_pct']:.2f}% "
            f"exceeds the {overhead['gate_pct']:.1f}% gate on the batched "
            "evaluator path",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
