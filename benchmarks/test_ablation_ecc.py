"""Ablation: SparkXD (fault-aware model) vs SEC-DED ECC protection.

The conventional way to survive approximate DRAM is ECC.  Hamming(72,64)
corrects any single flip per 64-bit word but costs +12.5% storage,
bandwidth and access energy, and breaks down once multiple errors land
in one word.  SparkXD instead makes the *model* tolerant and pays no
storage overhead.  This ablation compares:

- accuracy at several BERs: plain model vs ECC-protected model;
- the effective DRAM traffic (stored bits) of each approach.
"""

import numpy as np

from benchmarks.conftest import N_STEPS, get_baseline
from repro.analysis.reporting import format_table
from repro.analysis.sweeps import accuracy_vs_ber_sweep
from repro.errors.ecc import ECC_OVERHEAD, EccProtectedRepresentation
from repro.errors.injection import ErrorInjector
from repro.snn.quantization import Float32Representation

N_NEURONS = 50
RATES = (1e-5, 1e-3, 1e-2)


def test_ablation_ecc_vs_fault_tolerance(benchmark, datasets):
    dataset = datasets["mnist"]
    model = get_baseline(datasets, "mnist", N_NEURONS)

    plain_rep = Float32Representation(clip_range=(0.0, 1.0))
    ecc_rep = EccProtectedRepresentation(Float32Representation(clip_range=(0.0, 1.0)))

    def run():
        rng = np.random.default_rng(17)
        plain = accuracy_vs_ber_sweep(
            model, dataset, ErrorInjector(plain_rep, seed=5), RATES,
            N_STEPS, rng, trials=2,
        )
        ecc = accuracy_vs_ber_sweep(
            model, dataset, ErrorInjector(ecc_rep, seed=5), RATES,
            N_STEPS, rng, trials=2,
        )
        return plain, ecc

    plain, ecc = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = [
        [f"{p.ber:.0e}", f"{p.accuracy:.1%}", f"{e.accuracy:.1%}"]
        for p, e in zip(plain, ecc)
    ]
    rows.append(["storage", "32 b/weight", f"{32 * (1 + ECC_OVERHEAD):.0f} b/weight"])
    print("\n" + format_table(
        ["BER", "no ECC (SparkXD substrate)", "SEC-DED ECC"],
        rows,
        title="ABLATION - ECC protection vs error-exposed storage "
        f"(error-free reference: {model.accuracy:.1%})",
    ))

    by_rate_plain = {p.ber: p.accuracy for p in plain}
    by_rate_ecc = {p.ber: p.accuracy for p in ecc}
    # At moderate BER (<= ~1e-4 per 72-bit word means <1 expected flip
    # per word) ECC fully shields accuracy...
    assert by_rate_ecc[1e-5] >= model.accuracy - 0.05
    assert by_rate_ecc[1e-3] >= by_rate_plain[1e-3] - 0.03
    # ...but it always pays the 12.5% storage/bandwidth overhead.
    assert ecc_rep.bits_per_weight == 36
    assert plain_rep.bits_per_weight == 32
