"""Ablation: progressive BER schedule vs training directly at max BER.

Section IV-B Step-3 raises the BER geometrically after each fault-aware
training stage (the progressive schedule), a design choice.  This
ablation trains one model through the full ascending schedule and one
directly at the maximum BER, then evaluates both under errors at the
maximum rate.
"""

import numpy as np

from benchmarks.conftest import N_STEPS, get_baseline, make_injector
from repro.analysis.reporting import format_table
from repro.analysis.sweeps import accuracy_vs_ber_sweep
from repro.core.fault_aware_training import improve_error_tolerance

MAX_BER = 1e-3
SCHEDULE = (1e-7, 1e-5, 1e-3)
N_NEURONS = 50


def test_ablation_progressive_vs_direct_schedule(benchmark, datasets):
    dataset = datasets["mnist"]
    baseline = get_baseline(datasets, "mnist", N_NEURONS)

    def run():
        progressive = improve_error_tolerance(
            baseline, dataset, make_injector(7), rates=SCHEDULE,
            epochs_per_rate=1, n_steps=N_STEPS, accuracy_bound=0.05,
            rng=np.random.default_rng(1),
        )
        direct = improve_error_tolerance(
            baseline, dataset, make_injector(7), rates=(MAX_BER,),
            epochs_per_rate=len(SCHEDULE), n_steps=N_STEPS, accuracy_bound=0.05,
            rng=np.random.default_rng(1),
        )
        rng = np.random.default_rng(2)
        acc_progressive = accuracy_vs_ber_sweep(
            progressive.model, dataset, make_injector(8), (MAX_BER,),
            N_STEPS, rng, trials=3,
        )[0].accuracy
        acc_direct = accuracy_vs_ber_sweep(
            direct.model, dataset, make_injector(8), (MAX_BER,),
            N_STEPS, rng, trials=3,
        )[0].accuracy
        return acc_progressive, acc_direct

    acc_progressive, acc_direct = benchmark.pedantic(run, rounds=1, iterations=1)

    print("\n" + format_table(
        ["schedule", f"accuracy @ BER {MAX_BER:.0e}"],
        [
            ["progressive (paper)", f"{acc_progressive:.1%}"],
            ["direct at max", f"{acc_direct:.1%}"],
            ["baseline accurate", f"{baseline.accuracy:.1%}"],
        ],
        title="ABLATION - progressive vs direct BER schedule",
    ))

    # the progressive schedule must not be worse than jumping straight
    # to the maximum rate (it is the paper's design choice)
    assert acc_progressive >= acc_direct - 0.05
    assert acc_progressive > 0.3


def test_ablation_equal_compute_budget(benchmark, datasets):
    """Both schedules above consume the same number of training epochs."""

    def run():
        return len(SCHEDULE) * 1, 1 * len(SCHEDULE)

    progressive_epochs, direct_epochs = benchmark(run)
    assert progressive_epochs == direct_epochs
