"""Fig. 11 label-2: MSB flips drive the accuracy damage.

The paper observes that flips in the most significant bits of the FP32
weights change values by orders of magnitude and can collapse accuracy,
while flips in low mantissa bits are harmless.  This benchmark probes
stored bit positions one at a time (sign=31, exponent 30..23, mantissa
below) and reports the per-position weight perturbation and accuracy.
"""

from benchmarks.conftest import N_STEPS, get_baseline
from repro.analysis.reporting import format_table
from repro.analysis.sensitivity import accuracy_by_bit
from repro.snn.quantization import Float32Representation

N_NEURONS = 50
#: probe sign, two exponent bits, and three mantissa depths.
PROBED_BITS = (31, 30, 26, 22, 12, 0)


def test_sensitivity_bit_positions(benchmark, datasets):
    dataset = datasets["mnist"]
    model = get_baseline(datasets, "mnist", N_NEURONS)
    representation = Float32Representation(clip_range=(0.0, 1.0))

    def run():
        return accuracy_by_bit(
            model, dataset, representation, PROBED_BITS,
            flip_fraction=0.05, n_steps=N_STEPS, seed=3,
        )

    points = benchmark.pedantic(run, rounds=1, iterations=1)

    def describe(bit):
        if bit == 31:
            return "sign"
        if bit >= 23:
            return f"exponent[{bit - 23}]"
        return f"mantissa[{bit}]"

    rows = [
        [bit, describe(bit), f"{p.mean_weight_change:.2e}", f"{p.accuracy:.1%}"]
        for bit, p in zip(PROBED_BITS, points)
    ]
    print("\n" + format_table(
        ["bit", "field", "mean |dW| per flip", "accuracy"],
        rows,
        title="FIG 11 label-2 - bit-position sensitivity (5% of weights flipped; "
        f"error-free reference {model.accuracy:.1%})",
    ))

    by_bit = {p.bit_position: p for p in points}
    # low mantissa flips are harmless to the stored value...
    assert by_bit[0].mean_weight_change < 1e-6
    # ...exponent-MSB flips move weights by orders of magnitude more...
    assert by_bit[30].mean_weight_change > 1e3 * max(by_bit[0].mean_weight_change, 1e-12)
    # ...and only the significant bits hurt accuracy.
    assert by_bit[0].accuracy >= model.accuracy - 0.05
    assert by_bit[30].accuracy <= by_bit[0].accuracy + 0.02
