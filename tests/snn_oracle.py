"""Reference SNN dynamics: the oracles the vectorized engine must match.

The library's network dynamics are its three time loops — the batched
inference loop (:meth:`DiehlCookNetwork.run_batch`), the fused
minibatch training loop (:meth:`DiehlCookNetwork.run_batch_stdp`) and
the lean ``batch_size=1`` training loop
(:meth:`DiehlCookNetwork.run_sample`).  The per-step simulator and the
plain loops they replaced live here, so tests and the
``benchmarks/perf_*.py`` gates can compare against them with
``np.array_equal``.

The per-step API is functions over a network's state arrays; they
were once the library methods ``DiehlCookNetwork.step`` and
``_step_from_drive`` and the ``step`` methods of the neuron layer and
conductance objects whose state the network now holds.  A step takes
the last step's spikes (:func:`no_spikes` after a reset) and returns
its own:

- :func:`step_drive` — one step's drive, the index-sum
  ``weights[active].sum(axis=0)``;
- :func:`sample_drive` — every step's drive of one sample, through the
  library's CSR operator;
- :func:`propagate_spikes` — the dense ``spikes @ weights`` drive of
  batched spike arrays;
- :func:`conductance_step`, :func:`neuron_step`,
  :func:`step_from_drive` and :func:`network_step` — one timestep of a
  network's conductance, of its neurons and of the whole network.

The reference loops:

- :func:`reference_stdp_step` — the in-place B=1 STDP rule, once the
  ``STDPRule.step`` method;
- :func:`reference_run_sample` — the historical B=1 loop
  (:func:`network_step` + :func:`reference_stdp_step` per timestep)
  that :meth:`DiehlCookNetwork.run_sample`'s lean loop replaced, and,
  without a rule, the per-sample inference loop;
- :func:`sequential_spike_counts` — the per-sample, per-timestep
  evaluation loop;
- :func:`reference_run_batch_stdp` — the unfused minibatch loop
  (:func:`step_from_drive` + :func:`step_accumulate` per step) that
  :meth:`DiehlCookNetwork._run_batch_stdp_fused` replaced, call-
  compatible with ``DiehlCookNetwork.run_batch_stdp`` so tests can
  swap it in with ``monkeypatch.setattr``;
- :func:`reference_sequential_train` — the historical ``batch_size=1``
  training loop, on :func:`reference_run_sample`;
- :func:`reference_run_batch_frozen` — the dense inference time loop
  that :meth:`DiehlCookNetwork._run_batch_frozen`'s sparse loop
  replaced, call-compatible for ``monkeypatch.setattr``;
- :func:`reference_train_unsupervised` — the historical library
  trainer: :class:`BatchedTrainer` training, then labels and an
  accuracy from the training images;
- :func:`reference_train_baseline` and
  :func:`reference_improve_error_tolerance` — the pipeline trainers as
  they were before they skipped the training-set scoring: they call
  :func:`reference_train_unsupervised`, which still scores, and
  overwrite its score.

:data:`PARAMETER_VARIANTS` names the network parameter sets every time
loop is compared with its reference loop under
(:func:`parameter_variant` applies one).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.fault_aware_training import FINE_TUNING_STDP, FaultAwareTrainingResult
from repro.engine import BatchedEvaluator, BatchedTrainer
from repro.engine.encoding import encode_spike_trains
from repro.engine.trainer import StageEncodingCache
from repro.rng import ensure_rng
from repro.snn.encoding import poisson_rate_code
from repro.snn.network import (
    DiehlCookNetwork,
    NetworkParameters,
    _drive_matrix,
    make_stdp,
)
from repro.snn.neurons import LIFParameters
from repro.snn.stdp import normalize_columns
from repro.snn.training import TrainedModel, assign_labels

#: Parameter sets the time loops are checked against their reference
#: loops under, as ``NetworkParameters`` / ``LIFParameters`` field
#: overrides.  Each reaches arithmetic or a branch the defaults leave
#: alone.
PARAMETER_VARIANTS = {
    "default": {},
    # A spike starts no refractory period.
    "no-refractory": {"refractory_ms": 0.0},
    # A period that is no multiple of dt: the countdown clamps at 0.
    "refractory-2.5": {"refractory_ms": 2.5},
    # Other decay factors and Euler factor; a refractory period of 10 steps.
    "dt-0.5": {"dt_ms": 0.5},
    # No lateral inhibition: many neurons fire, and learn, on one step.
    "no-inhibition": {"inhibition_strength": 0.0},
    # Thresholds stay at v_threshold and a reset lands on it: only the
    # refractory mask keeps a neuron that just fired silent.
    "reset-at-threshold": {
        "v_reset": LIFParameters().v_threshold,
        "theta_plus": 0.0,
        "theta_init_max": 0.0,
    },
}


def parameter_variant(params, name):
    """``params`` with the overrides of ``PARAMETER_VARIANTS[name]``."""
    lif_fields = {field.name for field in dataclasses.fields(LIFParameters)}
    overrides = PARAMETER_VARIANTS[name]
    lif = {key: value for key, value in overrides.items() if key in lif_fields}
    rest = {key: value for key, value in overrides.items() if key not in lif_fields}
    return dataclasses.replace(
        params, lif=dataclasses.replace(params.lif, **lif), **rest
    )


def no_spikes(network):
    """The last-step spikes of a network at rest: all ``False``."""
    return np.zeros(network.batch_shape + (network.n_neurons,), dtype=bool)


def step_drive(weights, input_spikes):
    """One timestep's input drive: ``weights[active].sum(axis=0)``.

    The canonical sequential drive (inherited from the original scalar
    simulator): the rows of the weight matrix whose input spiked are
    accumulated top to bottom.  :func:`sample_drive` reproduces exactly
    this accumulation for every step of a sample at once.
    """
    active = np.flatnonzero(input_spikes)
    return weights[active].sum(axis=0)


def sample_drive(spike_train, weights):
    """All per-step input drives of one sample: ``train @ weights``.

    ``spike_train`` is boolean ``(n_steps, n_input)``; ``weights`` is
    one ``(n_input, n_neurons)`` matrix; the product runs through the
    library's CSR operator (``repro.snn.network._drive_matrix``), as
    every time loop's drives do.  Row ``t`` is **bit-identical** to
    ``step_drive(weights, spike_train[t])``: CSR accumulates each
    output row over its active columns in ascending order, exactly as
    numpy's axis-0 reduction adds the gathered weight rows.
    """
    weights = np.asarray(weights)
    return _drive_matrix(spike_train, weights.dtype) @ weights


def propagate_spikes(weights, spikes):
    """Postsynaptic drive ``spikes @ weights`` for batched spike arrays.

    ``spikes`` has shape ``(..., n_pre)`` (boolean or float);
    ``weights`` is either one matrix ``(n_pre, n_post)`` — applied to
    every batch element — or a stack ``stack_shape + (n_pre, n_post)``
    whose ``stack_shape`` must equal ``spikes.shape[:len(stack_shape)]``
    (one weight tensor per leading batch index, e.g. per error
    realization).  Returns drive of shape ``spikes.shape[:-1] + (n_post,)``.
    """
    weights = np.asarray(weights, dtype=np.float64)
    spikes_f = np.asarray(spikes, dtype=np.float64)
    if weights.ndim < 2:
        raise ValueError(f"weights must be at least 2-D, got shape {weights.shape}")
    n_pre = weights.shape[-2]
    if spikes_f.shape[-1] != n_pre:
        raise ValueError(
            f"spikes must have {n_pre} presynaptic entries on the last axis, "
            f"got shape {spikes_f.shape}"
        )
    if weights.ndim == 2:
        batch = spikes_f.shape[:-1]
        flat = spikes_f.reshape(-1, n_pre) if spikes_f.ndim != 2 else spikes_f
        return (flat @ weights).reshape(batch + (weights.shape[-1],))
    stack = weights.shape[:-2]
    if spikes_f.ndim != len(stack) + 2 or spikes_f.shape[: len(stack)] != stack:
        raise ValueError(
            f"stacked weights {weights.shape} require spikes shaped "
            f"{stack + ('B', n_pre)}, got {spikes_f.shape}"
        )
    return np.matmul(spikes_f, weights)


def conductance_step(network, name, injected=0.0):
    """Decay ``network``'s conductance ``name`` one step, add ``injected``.

    ``name`` is ``"g_e"`` (excitatory) or ``"g_i"`` (inhibitory); the
    conductance array is updated in place and returned.  ``injected``
    broadcasts against the state shape, so a batched network accepts
    per-instance injections of shape ``batch_shape + (n_neurons,)`` (or
    any broadcastable prefix).
    """
    g = getattr(network, name)
    g *= getattr(network, f"{name}_decay")
    g += injected
    return g


def neuron_step(network, g_excitatory, g_inhibitory, adapt=True):
    """Advance ``network``'s neurons one timestep; returns their spikes.

    ``g_excitatory`` / ``g_inhibitory`` are dimensionless conductance
    inputs for this step, broadcast against the state shape.
    ``adapt=False`` freezes the adaptive thresholds (inference mode).
    """
    p, dt_ms = network.parameters.lif, network.parameters.dt_ms
    active = network.refractory_left <= 0.0

    dv = (
        (p.v_rest - network.v)
        + g_excitatory * (p.e_excitatory - network.v)
        + g_inhibitory * (p.e_inhibitory - network.v)
    ) * (dt_ms / p.tau_membrane_ms)
    network.v = np.where(active, network.v + dv, network.v)

    spikes = active & (network.v >= p.v_threshold + network.theta)
    network.v[spikes] = p.v_reset
    network.refractory_left[spikes] = p.refractory_ms
    network.refractory_left[~spikes] = np.maximum(
        0.0, network.refractory_left[~spikes] - dt_ms
    )
    if adapt:
        network.theta *= network.theta_decay
        network.theta[spikes] += p.theta_plus
    return spikes


def step_from_drive(network, drive, last, adapt):
    """Advance ``network`` one timestep from a precomputed excitatory drive.

    ``last`` is the previous step's spike array; the returned spikes
    are the next step's ``last``.  Everything here is elementwise over
    the state shape, so the arithmetic of a batched step is
    bit-identical per element to the scalar step — the keystone of the
    batched ≡ per-sample guarantee.
    """
    p = network.parameters
    conductance_step(network, "g_e", drive)
    # Lateral inhibition: each spike last step inhibits all *other*
    # neurons (Fig. 4a's inhibition fan-out).
    inhibition = (
        last.sum(axis=-1, keepdims=True) * p.inhibition_strength
        - p.inhibition_strength * last
    )
    conductance_step(network, "g_i", inhibition)
    return neuron_step(network, network.g_e, network.g_i, adapt=adapt)


def network_step(network, input_spikes, last, adapt=True):
    """One network timestep from input spikes; returns the excitatory spikes.

    ``input_spikes`` has shape ``batch_shape + (n_input,)`` (a plain
    ``(n_input,)`` vector on an unbatched network).  The scalar path
    uses the sparse per-step index-sum (:func:`step_drive`); batched
    networks use the ``spikes @ weights`` matmul.
    """
    p = network.parameters
    pre = np.asarray(input_spikes, dtype=bool)
    expected = network.batch_shape + (p.n_input,)
    if pre.shape != expected:
        raise ValueError(f"input spikes must have shape {expected}")
    if network.batch_shape == () and network.weights.ndim == 2:
        drive = step_drive(network.weights, pre) * p.excitation_gain
    else:
        drive = propagate_spikes(network.weights, pre) * p.excitation_gain
    return step_from_drive(network, drive, last, adapt)


def reference_stdp_step(rule, weights, pre_spikes, post_spikes):
    """Advance ``rule``'s traces one step and apply the update in place.

    The historical ``STDPRule.step``, verbatim.  ``weights`` has shape
    ``(n_pre, n_post)`` and is modified in place and returned;
    ``pre_spikes`` / ``post_spikes`` are boolean vectors.  Only
    unbatched rules step: a batched rule raises :class:`ValueError` (it
    only accumulates, see :meth:`STDPRule.accumulate_step`).
    """
    if rule.batch_shape:
        raise ValueError(
            f"a batched rule (batch_shape={rule.batch_shape}) cannot "
            "step in place; use accumulate_step"
        )
    p = rule.parameters
    pre = np.asarray(pre_spikes, dtype=bool)
    if pre.shape != rule.state_shape:
        raise ValueError(
            f"pre_spikes must have shape {rule.state_shape}, got {pre.shape}"
        )
    rule.x_pre *= rule._trace_decay
    rule.x_pre[pre] = 1.0

    if weights.shape[0] != rule.n_pre:
        raise ValueError(
            f"weights must have {rule.n_pre} presynaptic rows, "
            f"got {weights.shape}"
        )
    post = np.flatnonzero(post_spikes)
    if post.size:
        columns = weights[:, post]
        delta = rule.x_pre[:, None] - p.trace_offset
        bound = (p.w_max - columns) ** p.mu
        updated = columns + p.learning_rate * delta * bound
        weights[:, post] = np.clip(updated, 0.0, p.w_max)
    return weights


def reference_run_sample(network, train, stdp=None, adapt=None, normalize=None):
    """The historical body of ``DiehlCookNetwork.run_sample``, verbatim.

    One :func:`network_step` plus one in-place
    :func:`reference_stdp_step` per timestep, with the validation, state
    reset and counts of the library method.  Without a rule it is the
    per-sample inference loop (thresholds frozen unless ``adapt``); with
    one, ``normalize`` (default on) applies the post-sample column
    normalisation that ``run_sample`` leaves to its caller.
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
    network.reset_state()
    if stdp is not None:
        stdp.reset_state()
    if normalize is None:
        normalize = stdp is not None and p.weight_norm > 0
    counts = np.zeros(p.n_neurons, dtype=np.int64)
    spikes = no_spikes(network)
    for t in range(train.shape[0]):
        spikes = network_step(network, train[t], spikes, adapt=adapt)
        if stdp is not None:
            reference_stdp_step(stdp, network.weights, train[t], spikes)
        counts += spikes
    if normalize and p.weight_norm > 0:
        normalize_columns(network.weights, p.weight_norm)
    return counts


def sequential_spike_counts(evaluator, images, n_steps, rng, weights):
    """Spike counts of ``evaluator``'s network, one sample at a time.

    Same contract as :meth:`BatchedEvaluator.spike_counts` (without
    chunking or ``base_weights``): one ``(n_input, n_neurons)`` matrix
    gives ``(B, n_neurons)`` counts, an ``(E, n_input, n_neurons)``
    stack gives ``(E, B, n_neurons)``, and ``rng`` draws the same
    encoding stream.
    """
    trains = encode_spike_trains(np.asarray(images, dtype=np.float64), n_steps, rng)
    weights = np.asarray(weights, dtype=evaluator.dtype)
    net = DiehlCookNetwork(
        evaluator.parameters, init_weights=False, dtype=evaluator.dtype
    )
    net.theta = evaluator.theta.copy()
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

    The unfused form of the fused loop's trace decay/bump followed by
    :meth:`STDPRule.accumulate_step` against the frozen ``bound``.
    """
    pre = np.asarray(pre_spikes, dtype=bool)
    rule.x_pre *= rule._trace_decay
    rule.x_pre[pre] = 1.0
    post = np.asarray(post_spikes, dtype=bool)
    return rule.accumulate_step(post, delta, bound, np.empty_like(rule.x_pre))


def reference_run_batch_stdp(network, spike_trains, stdp, delta, matrix=None):
    """The unfused minibatch loop of ``DiehlCookNetwork.run_batch_stdp``.

    Drives are each sample's :func:`sample_drive` rows, stacked
    time-major; ``matrix`` is accepted for call compatibility only.
    """
    trains = np.asarray(spike_trains, dtype=bool)
    drives = np.stack([sample_drive(train, network.weights) for train in trains], axis=1)
    drives *= network.parameters.excitation_gain
    bound = stdp.frozen_bound(network.weights)
    network.reset_state()
    stdp.reset_state()
    pre_steps = trains.transpose(1, 0, 2)  # (n_steps, B, n_input) view
    counts = np.zeros(network.batch_shape + (network.n_neurons,), dtype=np.int64)
    spikes = no_spikes(network)
    for t in range(trains.shape[1]):
        spikes = step_from_drive(network, drives[t], spikes, adapt=True)
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
    g_e, g_i = network.g_e, network.g_i
    v, refr = network.v, network.refractory_left
    # Frozen thresholds: v_threshold + theta is step-invariant.
    thr = lif.v_threshold + network.theta
    s1 = np.empty(shape, dtype=network.dtype)
    s2 = np.empty(shape, dtype=network.dtype)
    active = np.empty(shape, dtype=bool)
    spikes = np.empty(shape, dtype=bool)
    last = np.zeros(shape, dtype=bool)
    counts = np.zeros(shape, dtype=np.int64)
    row_count = np.empty(shape[:-1] + (1,), dtype=np.int64)
    row_inh = np.empty(shape[:-1] + (1,), dtype=np.float64)
    for t in range(n_steps):
        g_e *= network.g_e_decay
        g_e += drives[t]
        np.sum(last, axis=-1, keepdims=True, out=row_count)
        np.multiply(row_count, p.inhibition_strength, out=row_inh)
        np.multiply(last, p.inhibition_strength, out=s1)
        np.subtract(row_inh, s1, out=s1)
        g_i *= network.g_i_decay
        g_i += s1
        np.less_equal(refr, 0.0, out=active)
        np.subtract(lif.v_rest, v, out=s1)
        np.subtract(lif.e_excitatory, v, out=s2)
        s2 *= g_e
        s1 += s2
        np.subtract(lif.e_inhibitory, v, out=s2)
        s2 *= g_i
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
    return counts


def reference_train_unsupervised(
    network, images, labels, n_steps, epochs, rng, encoding_cache=None, **trainer
):
    """The historical library trainer ``train_unsupervised``.

    Trains ``network`` with :class:`BatchedTrainer` (``trainer`` goes to
    it), then labels and scores the model on the training images: the
    two encodings the pipeline trainers now skip.
    """
    fitter = BatchedTrainer(network, **trainer)
    fitter.train(
        images, n_steps=n_steps, epochs=epochs, rng=rng, encoding_cache=encoding_cache
    )
    evaluator = BatchedEvaluator.for_network(network)
    counts = evaluator.spike_counts(images, n_steps, rng, weights=network.weights)
    assignments = assign_labels(counts, labels)
    return TrainedModel(
        weights=network.weights.copy(),
        theta=network.theta.copy(),
        assignments=assignments,
        n_input=network.n_input,
        n_neurons=network.n_neurons,
        accuracy=evaluator.accuracies(
            images, labels, assignments, n_steps, rng, weights=network.weights
        ),
        metadata={
            "epochs": epochs,
            "n_steps": n_steps,
            "train_batch_size": fitter.batch_size,
        },
    )


def _reference_score(network, dataset, n_steps, rng, model, weights):
    """Label ``model`` on the training split and score it on the test
    split, both under ``weights`` (the pipeline trainers' own score)."""
    evaluator = BatchedEvaluator.for_network(network)
    counts = evaluator.spike_counts(dataset.train_images, n_steps, rng, weights=weights)
    model.assignments = assign_labels(counts, dataset.train_labels)
    model.accuracy = evaluator.accuracies(
        dataset.test_images, dataset.test_labels, model.assignments, n_steps, rng,
        weights=weights,
    )


def reference_train_baseline(
    dataset, n_neurons, epochs=1, n_steps=100, rng=None, batch_size=1, dtype=np.float64
):
    """``train_baseline`` as it scored before the skip."""
    rng = ensure_rng(rng)
    params = NetworkParameters(
        n_input=dataset.train_images.shape[1], n_neurons=n_neurons
    )
    network = DiehlCookNetwork(params, rng=rng, dtype=dtype)
    model = reference_train_unsupervised(
        network, dataset.train_images, dataset.train_labels, n_steps, epochs, rng,
        batch_size=batch_size,
    )
    # Report accuracy on the held-out test split.
    _reference_score(network, dataset, n_steps, rng, model, network.weights)
    return model


def reference_improve_error_tolerance(
    baseline,
    dataset,
    injector,
    rates,
    epochs_per_rate=1,
    n_steps=100,
    accuracy_bound=0.01,
    rng=None,
    batch_size=1,
    dtype=np.float64,
    stage_encoding="fresh",
):
    """``improve_error_tolerance`` as it scored before the skip."""
    rng = ensure_rng(rng)
    rates = tuple(sorted(float(r) for r in rates))
    params = NetworkParameters(n_input=baseline.n_input, n_neurons=baseline.n_neurons)
    network = DiehlCookNetwork(params, rng=rng, dtype=dtype)
    baseline.install_into(network)

    accuracy_per_rate: dict = {}
    snapshots: dict = {}
    encoding_cache = (
        StageEncodingCache() if stage_encoding == "shared" else None
    )
    for rate in rates:
        def corrupt(weights, _rate=rate):
            corrupted, _report = injector.inject_uniform(weights, _rate, rng=rng)
            return corrupted

        model = reference_train_unsupervised(
            network, dataset.train_images, dataset.train_labels, n_steps,
            epochs_per_rate, rng, encoding_cache=encoding_cache,
            stdp_parameters=FINE_TUNING_STDP, batch_size=batch_size,
            corrupt_weights=corrupt,
        )
        corrupted_weights, _ = injector.inject_uniform(model.weights, rate, rng=rng)
        _reference_score(network, dataset, n_steps, rng, model, corrupted_weights)
        accuracy_per_rate[rate] = model.accuracy
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
