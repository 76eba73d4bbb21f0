"""Ablation: safe-subarray mapping (Algorithm 2) vs naive sequential.

On a device with non-uniform subarray error rates, Algorithm 2 places
the weights only in subarrays whose rate is at or below BER_th, while
the naive baseline streams into whatever comes next.  The ablation
measures both the bit-flip exposure and the accuracy effect at the same
operating voltage.
"""

import numpy as np

from benchmarks.conftest import N_STEPS, get_baseline
from repro.analysis.reporting import format_table
from repro.core.mapping_policy import baseline_mapping, sparkxd_mapping
from repro.dram.organization import DramOrganization
from repro.dram.specs import LPDDR3_1600_4GB
from repro.engine import BatchedEvaluator
from repro.errors.injection import ErrorInjector
from repro.errors.weak_cells import WeakCellMap
from repro.snn.network import DiehlCookNetwork, NetworkParameters
from repro.snn.quantization import Float32Representation

N_NEURONS = 50
V_SUPPLY = 1.025
BER_THRESHOLD = 1e-3


def test_ablation_mapping_accuracy_effect(benchmark, datasets):
    dataset = datasets["mnist"]
    model = get_baseline(datasets, "mnist", N_NEURONS)
    # A scaled device whose subarrays are small enough that the weight
    # tensor spans dozens of them - on the full 4Gb part this tensor
    # occupies 2% of a single subarray and both mappings see the same
    # cells, hiding the policy difference the ablation measures.
    spec = LPDDR3_1600_4GB.scaled(rows_per_subarray=32, columns_per_row=64)
    org = DramOrganization(spec)
    # strong spatial variation: some subarrays are much worse than others
    profile = WeakCellMap(org, sigma=1.5, seed=4).profile_at(V_SUPPLY)
    n_weights = model.weights.size

    base_map = baseline_mapping(org, n_weights, 32)
    xd_map = sparkxd_mapping(org, n_weights, 32, profile, BER_THRESHOLD)
    injector = ErrorInjector(Float32Representation(clip_range=(0, 1)), seed=3)

    def run():
        rng = np.random.default_rng(6)
        results = {}
        for label, mapping in (("baseline", base_map), ("sparkxd", xd_map)):
            accuracies = []
            flips = []
            for _ in range(3):
                corrupted, report = injector.inject_by_region(
                    model.weights, mapping.subarray_of_weight(), profile.rates,
                    rng=rng,
                )
                # The network's initial draws stay part of this random
                # stream; the evaluator takes the model's thresholds.
                net = DiehlCookNetwork(
                    NetworkParameters(n_neurons=N_NEURONS), rng=rng
                )
                model.install_into(net)
                accuracies.append(
                    BatchedEvaluator.for_network(net).accuracies(
                        dataset.test_images, dataset.test_labels,
                        model.assignments, N_STEPS, rng, weights=corrupted,
                    )
                )
                flips.append(report.flipped_bits)
            results[label] = (float(np.mean(accuracies)), float(np.mean(flips)))
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    print("\n" + format_table(
        ["mapping", "accuracy", "mean flipped bits"],
        [
            [label, f"{acc:.1%}", f"{flips:.0f}"]
            for label, (acc, flips) in results.items()
        ],
        title=f"ABLATION - mapping policy at {V_SUPPLY}V "
        f"(device mean BER {profile.device_ber:.0e}, BER_th {BER_THRESHOLD:.0e})",
    ))

    base_acc, base_flips = results["baseline"]
    xd_acc, xd_flips = results["sparkxd"]
    # Algorithm 2 strictly reduces the weights' bit-flip exposure...
    assert xd_flips < base_flips
    # ...and therefore cannot hurt accuracy (allowing evaluation noise).
    assert xd_acc >= base_acc - 0.03
