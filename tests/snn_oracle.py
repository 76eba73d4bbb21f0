"""Reference SNN loops: the oracles the vectorized engine must match.

The production evaluator and trainer run one implementation each — the
batched inference loop (:meth:`DiehlCookNetwork.run_batch`) and the
fused minibatch training loop (:meth:`DiehlCookNetwork.run_batch_stdp`).
The plain loops they replaced live here, so tests and the
``benchmarks/perf_*.py`` gates can compare against them with
``np.array_equal``:

- :func:`sequential_spike_counts` — the per-sample, per-timestep
  ``run_sample`` evaluation loop;
- :func:`reference_run_batch_stdp` — the unfused minibatch loop
  (``_step_from_drive`` + :func:`step_accumulate` per step), call-
  compatible with ``DiehlCookNetwork.run_batch_stdp`` so tests can
  swap it in with ``monkeypatch.setattr``;
- :func:`reference_sequential_train` — the historical ``batch_size=1``
  training loop.
"""

from __future__ import annotations

import numpy as np

from repro.engine.encoding import encode_spike_trains
from repro.snn.encoding import poisson_rate_code
from repro.snn.network import DiehlCookNetwork, make_stdp
from repro.snn.stdp import normalize_columns


def sequential_spike_counts(evaluator, images, n_steps, rng, weights, encoder=None):
    """Spike counts of ``evaluator``'s network, one sample at a time.

    Same contract as :meth:`BatchedEvaluator.spike_counts` (without
    chunking or ``base_weights``): one ``(n_input, n_neurons)`` matrix
    gives ``(B, n_neurons)`` counts, an ``(E, n_input, n_neurons)``
    stack gives ``(E, B, n_neurons)``, and ``rng`` draws the same
    encoding stream.
    """
    trains = encode_spike_trains(
        np.asarray(images, dtype=np.float64), n_steps, rng, encoder=encoder
    )
    weights = np.asarray(weights, dtype=evaluator.dtype)
    net = DiehlCookNetwork(
        evaluator.parameters, init_weights=False, dtype=evaluator.dtype
    )
    net.neurons.theta = evaluator.theta.copy()
    stack = weights if weights.ndim == 3 else weights[None]
    counts = np.empty(
        (len(stack), len(trains), evaluator.parameters.n_neurons), dtype=np.int64
    )
    for e, matrix in enumerate(stack):
        net.set_weights(matrix)
        for b, train in enumerate(trains):
            counts[e, b] = net.run_sample(train, stdp=None)
    return counts if weights.ndim == 3 else counts[0]


def step_accumulate(rule, pre_spikes, post_spikes, delta, bound):
    """Advance ``rule``'s traces one step, then accumulate its update.

    The unfused form of the fused kernel's trace decay/bump followed by
    :meth:`STDPRule.accumulate_step` against the frozen ``bound``.
    """
    pre = np.asarray(pre_spikes, dtype=bool)
    rule.x_pre *= rule._trace_decay
    rule.x_pre[pre] = 1.0
    post = np.asarray(post_spikes, dtype=bool)
    return rule.accumulate_step(post, delta, bound, np.empty_like(rule.x_pre))


def reference_run_batch_stdp(
    network, spike_trains, stdp, delta, workspace=None, matrix=None
):
    """The unfused minibatch loop; ``workspace`` is accepted and unused."""
    trains = np.asarray(spike_trains, dtype=bool)
    drives = network._sample_drives(trains, network.weights, matrix=matrix)
    bound = stdp.frozen_bound(network.weights)
    network.reset_state(keep_theta=True)
    stdp.reset_state()
    pre_steps = trains.transpose(1, 0, 2)  # (n_steps, B, n_input) view
    counts = np.zeros(network.batch_shape + (network.n_neurons,), dtype=np.int64)
    for t in range(trains.shape[1]):
        spikes = network._step_from_drive(drives[t], adapt=True)
        step_accumulate(stdp, pre_steps[t], spikes, delta, bound)
        counts += spikes
    return counts


def reference_sequential_train(
    network, images, n_steps, epochs, rng, corrupt_weights=None
):
    """The historical ``train_unsupervised`` loop at ``batch_size=1``.

    The ground truth ``BatchedTrainer(batch_size=1)`` must match bit
    for bit (the historical code cast the corrupted read to float64;
    at a float64 network — the only dtype it supported — casting to
    ``network.dtype`` is the identical operation).
    """
    stdp = make_stdp(network)
    for _epoch in range(epochs):
        order = rng.permutation(len(images))
        for i in order:
            train = poisson_rate_code(images[i], n_steps, rng=rng)
            if corrupt_weights is not None:
                clean = network.weights
                corrupted = np.asarray(corrupt_weights(clean), dtype=network.dtype)
                network.weights = corrupted.copy()
                network.run_sample(train, stdp=stdp, normalize=False)
                delta = network.weights - corrupted
                network.weights = np.clip(clean + delta, 0.0, network.w_max)
                if network.parameters.weight_norm > 0:
                    normalize_columns(
                        network.weights, network.parameters.weight_norm
                    )
            else:
                network.run_sample(train, stdp=stdp)
