"""Tests of the pruned weight count (the Fig. 2a combination study)."""

import pytest

from repro.snn.pruning import pruned_weight_count


class TestPrunedCount:
    def test_count_math(self):
        assert pruned_weight_count(100, 0.5) == 50
        assert pruned_weight_count(3, 0.5) == 2  # ceil

    def test_validation(self):
        with pytest.raises(ValueError):
            pruned_weight_count(-1, 0.5)
        with pytest.raises(ValueError):
            pruned_weight_count(10, 0.0)
