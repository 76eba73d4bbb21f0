"""Tests of the accuracy-energy frontier exploration."""

import pytest

from repro.analysis.pareto import tolerance_frontier
from repro.core.tolerance_analysis import TolerancePoint, ToleranceReport
from repro.dram.specs import LPDDR3_1600_4GB


def make_report(curve):
    points = tuple(TolerancePoint(ber=b, accuracy=a, trials=1) for b, a in curve)
    return ToleranceReport(
        points=points,
        target_accuracy=0.0,
        ber_threshold=None,
        baseline_accuracy=0.90,
    )


@pytest.fixture
def report():
    # a typical decreasing tolerance curve
    return make_report([(1e-9, 0.90), (1e-7, 0.895), (1e-5, 0.885), (1e-3, 0.84)])


class TestFrontier:
    def test_looser_bounds_never_save_less(self, report):
        frontier = tolerance_frontier(
            report, LPDDR3_1600_4GB, n_weights=784 * 100, bits_per_weight=32
        )
        savings = [p.energy_saving for p in frontier]
        assert all(a <= b + 1e-12 for a, b in zip(savings, savings[1:]))

    def test_tight_bound_rejects_high_ber(self, report):
        frontier = tolerance_frontier(
            report, LPDDR3_1600_4GB, n_weights=784 * 100, bits_per_weight=32,
            accuracy_bounds=(0.005, 0.10),
        )
        tight, loose = frontier
        assert tight.accuracy_bound == 0.005
        # 0.90-0.005=0.895 -> only the 1e-9 and 1e-7 points pass
        assert tight.ber_threshold == pytest.approx(1e-7)
        # 0.90-0.10=0.80 -> everything passes
        assert loose.ber_threshold == pytest.approx(1e-3)
        assert loose.energy_saving >= tight.energy_saving

    def test_unmeetable_bound_gives_nominal_voltage(self):
        report = make_report([(1e-9, 0.50)])  # far below baseline 0.90
        frontier = tolerance_frontier(
            report, LPDDR3_1600_4GB, n_weights=1024, bits_per_weight=32,
            accuracy_bounds=(0.01,),
        )
        point = frontier[0]
        assert point.ber_threshold is None
        assert point.v_selected == pytest.approx(1.35)
        assert point.energy_saving == 0.0

    def test_bounds_sorted_in_output(self, report):
        frontier = tolerance_frontier(
            report, LPDDR3_1600_4GB, n_weights=1024, bits_per_weight=32,
            accuracy_bounds=(0.05, 0.01, 0.10),
        )
        assert [p.accuracy_bound for p in frontier] == [0.01, 0.05, 0.10]

    def test_validation(self, report):
        with pytest.raises(ValueError):
            tolerance_frontier(
                make_report([]), LPDDR3_1600_4GB, 1024, 32
            )
        with pytest.raises(ValueError):
            tolerance_frontier(
                report, LPDDR3_1600_4GB, 1024, 32, accuracy_bounds=(-0.1,)
            )
