"""Tests of unsupervised training, label assignment and evaluation."""

import dataclasses

import numpy as np
import pytest
from snn_oracle import reference_train_unsupervised

from repro.core.fault_aware_training import train_baseline
from repro.engine import BatchedEvaluator, BatchedTrainer
from repro.snn.network import DiehlCookNetwork, NetworkParameters
from repro.snn.stdp import normalize_columns
from repro.snn.training import (
    TrainedModel,
    apply_post_sample_update,
    assign_labels,
    predict,
)


class TestAssignLabels:
    def test_assigns_strongest_class(self):
        counts = np.array([[10, 0], [9, 1], [0, 10], [1, 8]])
        labels = np.array([0, 0, 1, 1])
        assignments = assign_labels(counts, labels)
        assert assignments.tolist() == [0, 1]

    def test_silent_neurons_get_minus_one(self):
        counts = np.zeros((4, 3), dtype=int)
        counts[:, 0] = 1
        assignments = assign_labels(counts, np.array([0, 1, 0, 1]))
        assert assignments[1] == -1
        assert assignments[2] == -1

    def test_label_alignment_enforced(self):
        with pytest.raises(ValueError):
            assign_labels(np.zeros((3, 2)), np.zeros(4))


class TestPredict:
    def test_majority_vote(self):
        counts = np.array([[5, 0, 1], [0, 6, 0]])
        assignments = np.array([0, 1, 1])
        preds = predict(counts, assignments)
        assert preds.tolist() == [0, 1]

    def test_votes_normalised_by_class_size(self):
        # Two neurons assigned to class 0, one to class 1; raw sums would
        # favour class 0, per-neuron averages must not.
        counts = np.array([[2, 2, 5]])
        assignments = np.array([0, 0, 1])
        preds = predict(counts, assignments)
        assert preds[0] == 1

    def test_unassigned_neurons_never_vote(self):
        counts = np.array([[100, 1]])
        assignments = np.array([-1, 1])
        preds = predict(counts, assignments)
        assert preds[0] == 1


class TestTrainedModel:
    def test_copy_is_deep(self):
        model = TrainedModel(
            weights=np.ones((4, 2)),
            theta=np.zeros(2),
            assignments=np.zeros(2, dtype=np.int64),
            n_input=4,
            n_neurons=2,
        )
        clone = model.copy()
        clone.weights[0, 0] = 9.0
        clone.metadata["x"] = 1
        assert model.weights[0, 0] == 1.0
        assert "x" not in model.metadata

    def test_install_into_network(self, rng):
        params = NetworkParameters(n_input=4, n_neurons=2)
        net = DiehlCookNetwork(params, rng=rng)
        model = TrainedModel(
            weights=np.full((4, 2), 0.25),
            theta=np.array([1.0, 2.0]),
            assignments=np.zeros(2, dtype=np.int64),
            n_input=4,
            n_neurons=2,
        )
        model.install_into(net)
        assert np.array_equal(net.weights, model.weights)
        assert np.array_equal(net.theta, model.theta)


class TestPostSampleUpdate:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_installs_normalized_clip_of_base_plus_delta(self, dtype):
        net = DiehlCookNetwork(
            NetworkParameters(n_input=30, n_neurons=8),
            rng=np.random.default_rng(0),
            dtype=dtype,
        )
        rng = np.random.default_rng(1)
        base = (rng.random((30, 8)) * net.w_max).astype(dtype)
        delta = rng.normal(0.0, 0.5, (30, 8)).astype(dtype)
        before = base.copy()
        expected = normalize_columns(
            np.clip(base + delta, 0, net.w_max), net.parameters.weight_norm
        )
        apply_post_sample_update(net, delta=delta, base=base)
        assert net.weights.dtype == np.dtype(dtype)
        assert np.array_equal(net.weights, expected)
        assert np.array_equal(base, before)


class TestTrainingLoop:
    def test_training_beats_chance_on_mini_dataset(self, mini_mnist, rng):
        params = NetworkParameters(n_neurons=40)
        net = DiehlCookNetwork(params, rng=rng)
        model = reference_train_unsupervised(
            net, mini_mnist.train_images, mini_mnist.train_labels, 60, 1, rng
        )
        accuracy = BatchedEvaluator.for_network(net).accuracies(
            mini_mnist.test_images,
            mini_mnist.test_labels,
            model.assignments,
            60,
            rng,
            weights=net.weights,
        )
        assert accuracy > 0.3  # 10 classes -> chance is 0.1

    def test_trained_model_fields(self, mini_mnist, rng):
        model = train_baseline(mini_mnist, n_neurons=20, n_steps=40, rng=rng)
        assert model.weights.shape == (784, 20)
        assert model.theta.shape == (20,)
        assert model.assignments.shape == (20,)
        assert 0.0 <= model.accuracy <= 1.0
        assert model.metadata["epochs"] == 1

    def test_mismatched_labels_rejected(self, mini_mnist):
        # Training takes a Dataset, which refuses labels that do not
        # align with its images.
        with pytest.raises(ValueError, match="train labels must align"):
            dataclasses.replace(mini_mnist, train_labels=mini_mnist.train_labels[:5])

    def test_corrupt_weights_hook_runs_and_keeps_weights_finite(
        self, mini_mnist, rng
    ):
        net = DiehlCookNetwork(NetworkParameters(n_neurons=10), rng=rng)
        calls = []

        def corrupt(weights):
            calls.append(1)
            noisy = weights + rng.normal(0, 0.01, weights.shape)
            return np.clip(noisy, 0.0, 1.0)

        BatchedTrainer(net, corrupt_weights=corrupt).train(
            mini_mnist.train_images[:10], n_steps=30, rng=rng
        )
        assert len(calls) == 10
        assert np.all(np.isfinite(net.weights))
        assert net.weights.min() >= 0.0
