"""Tests of the trace-based STDP rule.

The in-place B=1 rule is exercised through its reference form,
``snn_oracle.reference_stdp_step``, which the lean ``run_sample`` loop
matches bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from snn_oracle import reference_stdp_step

from repro.snn.stdp import STDPParameters, STDPRule, normalize_columns


@pytest.fixture
def rule():
    return STDPRule(n_pre=4, parameters=STDPParameters(learning_rate=0.1))


class TestParameters:
    def test_defaults_valid(self):
        STDPParameters().validate()

    @pytest.mark.parametrize(
        "kwargs", [{"learning_rate": 0}, {"tau_trace_ms": 0}, {"w_max": 0}, {"mu": -1}]
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            STDPParameters(**kwargs).validate()


class TestTraces:
    def test_trace_jumps_on_pre_spike(self, rule):
        weights = np.full((4, 2), 0.5)
        pre = np.array([1, 0, 0, 0], dtype=bool)
        reference_stdp_step(rule, weights, pre, np.zeros(2, dtype=bool))
        assert rule.x_pre[0] == 1.0
        assert np.all(rule.x_pre[1:] == 0.0)

    def test_trace_decays(self, rule):
        weights = np.full((4, 2), 0.5)
        pre = np.array([1, 0, 0, 0], dtype=bool)
        none = np.zeros(4, dtype=bool)
        reference_stdp_step(rule, weights, pre, np.zeros(2, dtype=bool))
        reference_stdp_step(rule, weights, none, np.zeros(2, dtype=bool))
        assert 0 < rule.x_pre[0] < 1.0

    def test_reset_clears_traces(self, rule):
        rule.x_pre[:] = 0.7
        rule.reset_state()
        assert np.all(rule.x_pre == 0.0)


class TestUpdates:
    def test_no_post_spike_no_update(self, rule):
        weights = np.full((4, 2), 0.5)
        before = weights.copy()
        pre = np.ones(4, dtype=bool)
        reference_stdp_step(rule, weights, pre, np.zeros(2, dtype=bool))
        assert np.array_equal(weights, before)

    def test_recently_active_inputs_potentiated(self, rule):
        weights = np.full((4, 2), 0.5)
        pre = np.array([1, 0, 0, 0], dtype=bool)
        post = np.array([1, 0], dtype=bool)
        reference_stdp_step(rule, weights, pre, post)
        assert weights[0, 0] > 0.5  # active input to firing neuron: LTP

    def test_silent_inputs_depressed(self, rule):
        weights = np.full((4, 2), 0.5)
        pre = np.array([1, 0, 0, 0], dtype=bool)
        post = np.array([1, 0], dtype=bool)
        reference_stdp_step(rule, weights, pre, post)
        assert weights[1, 0] < 0.5  # silent input to firing neuron: LTD

    def test_non_firing_neuron_unchanged(self, rule):
        weights = np.full((4, 2), 0.5)
        pre = np.array([1, 0, 0, 0], dtype=bool)
        post = np.array([1, 0], dtype=bool)
        reference_stdp_step(rule, weights, pre, post)
        assert np.all(weights[:, 1] == 0.5)

    def test_soft_bound_slows_growth_near_wmax(self):
        params = STDPParameters(learning_rate=0.1, w_max=1.0, mu=1.0)
        rule = STDPRule(2, params)
        weights = np.array([[0.5, 0.95], [0.5, 0.95]])
        pre = np.ones(2, dtype=bool)
        post = np.array([True, True])
        before = weights.copy()
        reference_stdp_step(rule, weights, pre, post)
        growth_mid = weights[0, 0] - before[0, 0]
        growth_high = weights[0, 1] - before[0, 1]
        assert growth_high < growth_mid

    def test_shape_validation(self, rule):
        with pytest.raises(ValueError):
            reference_stdp_step(
                rule, np.ones((3, 2)), np.zeros(3, dtype=bool), np.zeros(2, dtype=bool)
            )

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=1000),
        steps=st.integers(min_value=1, max_value=20),
    )
    def test_weights_always_within_bounds_property(self, seed, steps):
        # Invariant the DRAM storage representation relies on.
        rng = np.random.default_rng(seed)
        params = STDPParameters(learning_rate=0.5, w_max=1.0)
        rule = STDPRule(6, params)
        weights = rng.random((6, 3))
        for _ in range(steps):
            pre = rng.random(6) < 0.5
            post = rng.random(3) < 0.5
            reference_stdp_step(rule, weights, pre, post)
            assert np.all(weights >= 0.0)
            assert np.all(weights <= params.w_max)


class TestNormalization:
    def test_columns_scaled_to_target(self):
        weights = np.array([[1.0, 2.0], [3.0, 6.0]])
        normalize_columns(weights, target_sum=2.0)
        assert np.allclose(weights.sum(axis=0), 2.0)

    def test_zero_column_left_alone(self):
        weights = np.array([[0.0, 1.0], [0.0, 1.0]])
        normalize_columns(weights, target_sum=2.0)
        assert np.all(weights[:, 0] == 0.0)
        assert weights[:, 1].sum() == pytest.approx(2.0)

    def test_invalid_target_rejected(self):
        with pytest.raises(ValueError):
            normalize_columns(np.ones((2, 2)), 0.0)


class TestBatchedSTDP:
    def test_batched_weight_shape_validated(self):
        rule = STDPRule(6, batch_shape=(2,))
        with pytest.raises(ValueError):
            reference_stdp_step(
                rule, np.zeros((6, 5)), np.zeros((2, 6), bool), np.zeros((2, 5), bool)
            )
