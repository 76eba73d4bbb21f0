"""Reference SNN loops: the oracles the vectorized engine must match.

The production evaluator and trainer run one implementation each — the
batched inference loop (:meth:`DiehlCookNetwork.run_batch`), the fused
minibatch training loop (:meth:`DiehlCookNetwork.run_batch_stdp`) and
the lean ``batch_size=1`` loop (:meth:`DiehlCookNetwork.run_sample`).
The plain loops they replaced live here, so tests and the
``benchmarks/perf_*.py`` gates can compare against them with
``np.array_equal``:

- :func:`reference_run_sample` — the historical B=1 loop
  (``network.step`` + ``STDPRule.step`` per timestep) that
  :meth:`DiehlCookNetwork.run_sample`'s lean loop replaced;
- :func:`sequential_spike_counts` — the per-sample, per-timestep
  evaluation loop;
- :func:`reference_run_batch_stdp` — the unfused minibatch loop
  (``_step_from_drive`` + :func:`step_accumulate` per step), call-
  compatible with ``DiehlCookNetwork.run_batch_stdp`` so tests can
  swap it in with ``monkeypatch.setattr``;
- :func:`reference_sequential_train` — the historical ``batch_size=1``
  training loop, on :func:`reference_run_sample`;
- :func:`reference_run_batch_frozen` — the dense inference time loop
  that :meth:`DiehlCookNetwork._run_batch_frozen`'s sparse loop
  replaced, call-compatible for ``monkeypatch.setattr``;
- :func:`reference_train_baseline` and
  :func:`reference_improve_error_tolerance` — the pipeline trainers as
  they were before they skipped the training-set scoring: they call
  :func:`train_unsupervised`, which still scores, and overwrite its
  score.
"""

from __future__ import annotations

import numpy as np

from repro.core.fault_aware_training import (
    FaultAwareTrainingResult,
    default_ber_schedule,
)
from repro.engine.encoding import encode_spike_trains
from repro.rng import ensure_rng
from repro.snn.encoding import poisson_rate_code
from repro.snn.network import DiehlCookNetwork, NetworkParameters, make_stdp
from repro.snn.stdp import STDPParameters, normalize_columns
from repro.snn.training import (
    assign_labels,
    evaluate_accuracy,
    run_spike_counts,
    train_unsupervised,
)


def reference_run_sample(network, train, stdp=None, adapt=None, normalize=None):
    """The historical body of ``DiehlCookNetwork.run_sample``, verbatim.

    One :meth:`DiehlCookNetwork.step` plus one in-place
    :meth:`STDPRule.step` per timestep; same validation, state reset,
    counts and post-sample normalisation as the library method.
    """
    p = network.parameters
    if network.batch_shape != ():
        raise ValueError(
            "run_sample requires an unbatched network "
            f"(batch_shape {network.batch_shape}); use run_batch instead"
        )
    train = np.asarray(train, dtype=bool)
    if train.ndim != 2 or train.shape[1] != p.n_input:
        raise ValueError(
            f"spike train must have shape (n_steps, {p.n_input}), got {train.shape}"
        )
    if adapt is None:
        adapt = stdp is not None
    network.reset_state(keep_theta=True)
    if stdp is not None:
        stdp.reset_state()
    if normalize is None:
        normalize = stdp is not None and p.weight_norm > 0
    counts = np.zeros(p.n_neurons, dtype=np.int64)
    for t in range(train.shape[0]):
        spikes = network.step(train[t], adapt=adapt)
        if stdp is not None:
            stdp.step(network.weights, train[t], spikes)
        counts += spikes
    if normalize and p.weight_norm > 0:
        normalize_columns(network.weights, p.weight_norm)
    return counts


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
            counts[e, b] = reference_run_sample(net, train)
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
                reference_run_sample(network, train, stdp=stdp, normalize=False)
                delta = network.weights - corrupted
                network.weights = np.clip(clean + delta, 0.0, network.w_max)
                if network.parameters.weight_norm > 0:
                    normalize_columns(
                        network.weights, network.parameters.weight_norm
                    )
            else:
                reference_run_sample(network, train, stdp=stdp)


def reference_run_batch_frozen(network, drives, n_steps):
    """The dense ``DiehlCookNetwork._run_batch_frozen`` loop, verbatim.

    Every step updates every element: inhibition for all lanes, the
    refractory mask over the whole state, reset and count by boolean
    mask.
    """
    p = network.parameters
    lif = p.lif
    shape = network.batch_shape + (p.n_neurons,)
    k = p.dt_ms / lif.tau_membrane_ms
    g_e, g_i = network.g_excitatory, network.g_inhibitory
    v, refr = network.neurons.v, network.neurons.refractory_left
    # Frozen thresholds: v_threshold + theta is step-invariant.
    thr = lif.v_threshold + network.neurons.theta
    s1 = np.empty(shape, dtype=network.dtype)
    s2 = np.empty(shape, dtype=network.dtype)
    active = np.empty(shape, dtype=bool)
    spikes = np.empty(shape, dtype=bool)
    last = network._last_spikes
    counts = np.zeros(shape, dtype=np.int64)
    row_count = np.empty(shape[:-1] + (1,), dtype=np.int64)
    row_inh = np.empty(shape[:-1] + (1,), dtype=np.float64)
    for t in range(n_steps):
        g_e.g *= g_e._decay
        g_e.g += drives[t]
        np.sum(last, axis=-1, keepdims=True, out=row_count)
        np.multiply(row_count, p.inhibition_strength, out=row_inh)
        np.multiply(last, p.inhibition_strength, out=s1)
        np.subtract(row_inh, s1, out=s1)
        g_i.g *= g_i._decay
        g_i.g += s1
        np.less_equal(refr, 0.0, out=active)
        np.subtract(lif.v_rest, v, out=s1)
        np.subtract(lif.e_excitatory, v, out=s2)
        s2 *= g_e.g
        s1 += s2
        np.subtract(lif.e_inhibitory, v, out=s2)
        s2 *= g_i.g
        s1 += s2
        s1 *= k
        # Masked write, not `v += dv * active`: a non-finite dv (e.g.
        # float32 overflow from unclipped corrupted weights) must
        # leave refractory neurons untouched exactly as the scalar
        # np.where does — inf * False would poison them with NaN.
        s1 += v
        np.copyto(v, s1, where=active)
        np.greater_equal(v, thr, out=spikes)
        spikes &= active
        v[spikes] = lif.v_reset
        refr -= p.dt_ms
        np.maximum(refr, 0.0, out=refr)
        refr[spikes] = lif.refractory_ms
        counts += spikes
        last, spikes = spikes, last
    network._last_spikes = last.copy()
    return counts


def reference_train_baseline(
    dataset,
    n_neurons,
    epochs=1,
    n_steps=100,
    network_parameters=None,
    stdp_parameters=None,
    rng=None,
    n_classes=10,
    batch_size=1,
    dtype=np.float64,
):
    """``train_baseline`` as it scored before the skip: verbatim."""
    rng = ensure_rng(rng)
    params = network_parameters or NetworkParameters(
        n_input=dataset.train_images.shape[1], n_neurons=n_neurons
    )
    network = DiehlCookNetwork(params, rng=rng, dtype=dtype)
    model = train_unsupervised(
        network,
        dataset.train_images,
        dataset.train_labels,
        n_steps=n_steps,
        epochs=epochs,
        stdp_parameters=stdp_parameters,
        rng=rng,
        n_classes=n_classes,
        batch_size=batch_size,
    )
    # Report accuracy on the held-out test split.
    counts = run_spike_counts(network, dataset.train_images, n_steps, rng)
    model.assignments = assign_labels(counts, dataset.train_labels, n_classes)
    model.accuracy = evaluate_accuracy(
        network,
        dataset.test_images,
        dataset.test_labels,
        model.assignments,
        n_steps,
        rng,
        n_classes=n_classes,
    )
    return model


def reference_improve_error_tolerance(
    baseline,
    dataset,
    injector,
    rates=default_ber_schedule(),
    epochs_per_rate=1,
    n_steps=100,
    accuracy_bound=0.01,
    network_parameters=None,
    stdp_parameters=None,
    rng=None,
    n_classes=10,
    batch_size=1,
    dtype=np.float64,
    stage_encoding="fresh",
):
    """``improve_error_tolerance`` as it scored before the skip: verbatim."""
    from repro.engine.trainer import STAGE_ENCODINGS, StageEncodingCache

    if stage_encoding not in STAGE_ENCODINGS:
        raise ValueError(
            f"stage_encoding must be one of {STAGE_ENCODINGS}, got {stage_encoding!r}"
        )
    if stage_encoding == "shared" and batch_size == 1:
        raise ValueError(
            "stage_encoding='shared' requires batch_size > 1: the bit-exact "
            "sequential reference always re-encodes"
        )
    rng = ensure_rng(rng)
    rates = tuple(sorted(float(r) for r in rates))
    if not rates:
        raise ValueError("need at least one BER stage")
    if any(r < 0 or r > 1 for r in rates):
        raise ValueError("rates must lie in [0, 1]")
    if stdp_parameters is None:
        stdp_parameters = STDPParameters(learning_rate=0.01)

    params = network_parameters or NetworkParameters(
        n_input=baseline.n_input, n_neurons=baseline.n_neurons
    )
    network = DiehlCookNetwork(params, rng=rng, dtype=dtype)
    baseline.install_into(network)

    accuracy_per_rate: dict = {}
    snapshots: dict = {}
    model = baseline.copy()
    encoding_cache = (
        StageEncodingCache() if stage_encoding == "shared" else None
    )
    for rate in rates:
        def corrupt(weights, _rate=rate):
            corrupted, _report = injector.inject_uniform(weights, _rate, rng=rng)
            return corrupted

        model = train_unsupervised(
            network,
            dataset.train_images,
            dataset.train_labels,
            n_steps=n_steps,
            epochs=epochs_per_rate,
            stdp_parameters=stdp_parameters,
            rng=rng,
            corrupt_weights=corrupt,
            n_classes=n_classes,
            batch_size=batch_size,
            encoding_cache=encoding_cache,
        )
        corrupted_weights, _ = injector.inject_uniform(model.weights, rate, rng=rng)
        network.set_weights(corrupted_weights)
        counts = run_spike_counts(network, dataset.train_images, n_steps, rng)
        model.assignments = assign_labels(counts, dataset.train_labels, n_classes)
        accuracy = evaluate_accuracy(
            network,
            dataset.test_images,
            dataset.test_labels,
            model.assignments,
            n_steps,
            rng,
            n_classes=n_classes,
        )
        network.set_weights(model.weights)
        accuracy_per_rate[rate] = accuracy
        model.accuracy = accuracy
        model.metadata["fault_aware"] = True
        model.metadata["trained_through_ber"] = rate
        snapshots[rate] = model.copy()

    snapshots[0.0] = baseline.copy()
    candidate_accuracy = {0.0: baseline.accuracy, **accuracy_per_rate}
    target = baseline.accuracy - accuracy_bound
    candidates = (0.0,) + rates
    passing = [r for r in candidates if candidate_accuracy[r] >= target]
    selected = passing[-1] if passing else max(
        candidates, key=lambda r: candidate_accuracy[r]
    )
    return FaultAwareTrainingResult(
        model=snapshots[selected],
        rates=rates,
        accuracy_per_rate=accuracy_per_rate,
        selected_rate=selected,
    )
