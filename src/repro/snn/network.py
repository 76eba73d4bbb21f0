"""The fully-connected SNN architecture of the paper's Fig. 4(a).

Every input pixel connects to all excitatory neurons; each excitatory
spike feeds lateral inhibition back to all *other* neurons, promoting
competition (winner-take-all dynamics).  This is the Diehl & Cook
unsupervised architecture the paper adopts (its reference [7] and the
BindsNET substrate [16]); the network sizes of the evaluation are
N400, N900, N1600, N2500 and N3600 excitatory neurons.

Time loops
----------
The network's dynamics are its three time loops:
:meth:`DiehlCookNetwork.run_sample` (``batch_size=1`` training),
:meth:`DiehlCookNetwork.run_batch_stdp` (minibatch training) and
:meth:`DiehlCookNetwork.run_batch` (every evaluation).  Each allocates
its scratch, last-step spikes included, once per call before the loop,
and all three share one membrane update (:func:`_membrane_dv`).

The network is the one object that holds the SNN's state: membrane
potentials, refractory countdowns, adaptive thresholds and the two
conductances are its own arrays, and :mod:`repro.snn.neurons` and
:mod:`repro.snn.synapses` hold only their constants.  All of it is
batch-shape-polymorphic: a network with ``batch_shape=(E, B)`` advances
``E x B`` independent network instances per step — ``B`` evaluation
samples under ``E`` weight tensors (error realizations) — with state
arrays of shape ``(E, B, n_neurons)``.

The loops compute their input drives as sparse CSR ``spikes @ weights``
matmuls (:func:`_drive_matrix`), whose output rows are
**bit-identical** to the per-step index-sum
``weights[active].sum(axis=0)`` — CSR row accumulation and numpy's
axis-0 row reduction both add the active weight rows left-to-right.
Chunk rows are step-major, so any run of steps is a contiguous row
slice whose product reshapes to the time-major drive slab without a
copy: ``run_batch`` streams its drives one block of steps at a time
(:data:`DRIVE_BLOCK_BYTES`) instead of holding the whole ``(n_steps,
E, B, n_neurons)`` tensor.  Every state update is elementwise, so
batched spike counts equal a per-sample, per-timestep loop exactly.
The inference loop (:meth:`DiehlCookNetwork._run_batch_frozen`)
updates only the lanes that spiked last step for inhibition, only the
refractory elements for refractory bookkeeping and only the spike
indices for reset and count.  ``run_sample`` reads a per-sample drive
slab, rewritten column-wise after each in-place STDP update, and skips
the work whose result cannot change on a step (most steps are silent).

``tests/snn_oracle.py`` holds the per-step network API these loops
replaced (``network_step``, ``step_from_drive``, ``neuron_step``,
``conductance_step``, ``step_drive``, ``sample_drive``,
``propagate_spikes``) and the plain reference loops built from it: the
oracles every loop here matches bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Tuple

import numpy as np
from scipy import sparse

from repro.rng import ensure_rng
from repro.snn.neurons import LIFParameters
from repro.snn.stdp import STDPParameters, STDPRule, normalize_columns
from repro.snn.synapses import ConductanceParameters

#: Network sizes evaluated by the paper (Section V).
PAPER_NETWORK_SIZES = (400, 900, 1600, 2500, 3600)

#: Byte budget of one streamed drive block of :meth:`DiehlCookNetwork.run_batch`
#: (a block always holds at least one step).  Blocks of 2 to 8 MiB run
#: equally fast; the chunk-sized drive tensor they replace was the
#: largest buffer of an evaluation pass.
DRIVE_BLOCK_BYTES = 4 * 1024 * 1024


@dataclass(frozen=True)
class NetworkParameters:
    """Constants of the Fig. 4(a) architecture."""

    n_input: int = 784
    n_neurons: int = 400
    dt_ms: float = 1.0
    #: inhibitory conductance every spike applies to the other neurons.
    inhibition_strength: float = 10.0
    #: scale of the excitatory drive per unit weight.
    excitation_gain: float = 3.0
    #: per-neuron L1 weight mass kept by normalisation (0 disables it).
    weight_norm: float = 20.0
    #: initial adaptive thresholds are drawn from U(0, theta_init_max).
    #: Weight normalisation equalises every neuron's total drive, so
    #: without this symmetry breaking large populations fire in
    #: lockstep, homeostasis punishes all of them identically, and the
    #: competition never differentiates (accuracy collapses to chance).
    theta_init_max: float = 2.0
    lif: LIFParameters = field(default_factory=LIFParameters)
    conductance: ConductanceParameters = field(default_factory=ConductanceParameters)

    def validate(self) -> None:
        if self.n_input <= 0 or self.n_neurons <= 0:
            raise ValueError("n_input and n_neurons must be > 0")
        if self.dt_ms <= 0:
            raise ValueError("dt_ms must be > 0")
        if self.inhibition_strength < 0 or self.excitation_gain <= 0:
            raise ValueError("gains must be non-negative (excitation > 0)")
        if self.theta_init_max < 0:
            raise ValueError("theta_init_max must be >= 0")
        self.lif.validate()
        self.conductance.validate()


def _drive_matrix(spike_rows: np.ndarray, dtype: np.dtype = np.float64):
    """The CSR operator of spike rows, for (repeated) drive products.

    ``_drive_matrix(rows) @ weights`` holds one drive row per spike row.
    Building it once and reusing it across an E-stack of weight tensors
    amortises the sparse-structure construction.
    """
    rows = np.asarray(spike_rows, dtype=bool)
    if rows.ndim != 2:
        raise ValueError(f"spike rows must be 2-D, got shape {rows.shape}")
    if rows.size >= 2**31:
        return sparse.csr_matrix(rows, dtype=dtype)
    # Assemble the CSR triple directly from one flat nonzero scan —
    # several times faster than scipy's dense-to-CSR path and
    # structurally identical (row-major, ascending columns), so the
    # matvec accumulation order (hence every bit of the drive rows)
    # is unchanged.
    n_rows, n_cols = rows.shape
    flat = np.flatnonzero(rows)
    indices = (flat % n_cols).astype(np.int32)
    indptr = np.zeros(n_rows + 1, dtype=np.int32)
    np.cumsum(np.bincount(flat // n_cols, minlength=n_rows), out=indptr[1:])
    data = np.ones(flat.size, dtype=dtype)
    return sparse.csr_matrix((data, indices, indptr), shape=rows.shape)


def _delta_drive_rows(
    matrix, weights: np.ndarray, changed: np.ndarray, base_rows: np.ndarray
) -> np.ndarray:
    """Drive rows of a near-clean realization via exact row recomputation.

    For an error-realization stack close to a shared base tensor (low
    BER), most input rows of ``weights`` equal the base exactly
    (``changed`` lists the others), so most drive rows equal
    ``base_rows`` exactly, because a CSR output row accumulates only the
    weight rows its spikes select, in a fixed order.  Only the drive
    rows touched by a *changed* input row need recomputing, and a CSR
    row-slice matmul preserves each row's accumulation order, so the
    result is **bit-identical** to ``matrix @ weights`` at a fraction of
    the flops.

    Falls back to the full product when the realization is not actually
    sparse against the base (high BER corrupts most input rows, at
    which point the bookkeeping would cost more than it saves).
    """
    if changed.size == 0:
        return base_rows
    if changed.size * 4 >= weights.shape[0]:
        return matrix @ weights
    indicator = np.zeros(weights.shape[0], dtype=matrix.dtype)
    indicator[changed] = 1.0
    touched = np.flatnonzero(matrix @ indicator)
    if touched.size == 0:
        return base_rows
    rows = base_rows.copy()
    rows[touched] = matrix[touched] @ weights
    return rows


def _membrane_dv(lif, k, v, g_e, g_i, dv, scratch) -> None:
    """``dv = ((v_rest - v) + g_e (e_exc - v) + g_i (e_inh - v)) * k``, in place.

    The ufuncs and operand order of the reference neuron step's
    expression (``neuron_step`` in ``tests/snn_oracle.py``), written
    into ``dv`` with ``scratch`` as the second buffer.  Every time loop
    below computes its membrane update here and applies it with its own
    refractory handling.
    """
    np.subtract(lif.v_rest, v, out=dv)
    np.subtract(lif.e_excitatory, v, out=scratch)
    np.multiply(g_e, scratch, out=scratch)
    dv += scratch
    np.subtract(lif.e_inhibitory, v, out=scratch)
    np.multiply(g_i, scratch, out=scratch)
    dv += scratch
    dv *= k


class DiehlCookNetwork:
    """Input → excitatory layer with lateral inhibition (Fig. 4a).

    The synaptic weight matrix ``weights`` has shape
    ``(n_input, n_neurons)`` with values in ``[0, w_max]``.  It is the
    tensor SparkXD stores in (approximate) DRAM; replacing it with a
    corrupted copy models inference from faulty memory.  A batched
    network additionally accepts a *stack* of weight tensors — shape
    ``(E, n_input, n_neurons)`` for ``batch_shape=(E, B)`` — one per
    error realization.

    The network also holds the simulation state, every array of shape
    ``batch_shape + (n_neurons,)``: membrane potential ``v`` (mV),
    remaining refractory time ``refractory_left`` (ms), adaptive
    threshold offset ``theta`` (mV, >= 0) and the excitatory and
    inhibitory conductances ``g_e`` and ``g_i``, with their per-step
    decay factors ``g_e_decay``, ``g_i_decay`` and ``theta_decay``.

    ``init_weights=False`` skips the random weight / theta
    initialisation (and leaves ``rng`` untouched): the cheap constructor
    for evaluation shells whose weights are installed afterwards.
    """

    def __init__(
        self,
        parameters: NetworkParameters | None = None,
        rng: Optional[np.random.Generator] = None,
        w_max: float = 1.0,
        batch_shape: Tuple[int, ...] = (),
        init_weights: bool = True,
        dtype: np.dtype = np.float64,
    ):
        self.parameters = parameters or NetworkParameters()
        self.parameters.validate()
        if w_max <= 0:
            raise ValueError(f"w_max must be > 0, got {w_max}")
        p = self.parameters
        self.w_max = w_max
        self.dtype = np.dtype(dtype)
        #: Byte budget of one streamed drive block; the evaluator's
        #: concurrent parts of one pass share :data:`DRIVE_BLOCK_BYTES`.
        self.drive_block_bytes = DRIVE_BLOCK_BYTES
        if self.dtype not in (np.dtype(np.float64), np.dtype(np.float32)):
            raise ValueError(f"dtype must be float32 or float64, got {dtype}")
        taus = (p.conductance.tau_excitatory_ms, p.conductance.tau_inhibitory_ms)
        self.g_e_decay, self.g_i_decay, self.theta_decay = (
            self.dtype.type(np.exp(-p.dt_ms / tau)) for tau in taus + (p.lif.tau_theta_ms,)
        )
        theta = np.zeros(p.n_neurons, dtype=self.dtype)
        if init_weights:
            # Weights first, thresholds second: one fixed random stream.
            rng = ensure_rng(rng)
            self.weights = (
                rng.random((p.n_input, p.n_neurons)) * 0.3 * w_max
            ).astype(self.dtype, copy=False)
            if p.theta_init_max > 0:
                theta = rng.uniform(0.0, p.theta_init_max, p.n_neurons).astype(
                    self.dtype, copy=False
                )
        else:
            self.weights = np.zeros((p.n_input, p.n_neurons), dtype=self.dtype)
        self._allocate_state(batch_shape, theta)
        if init_weights and p.weight_norm > 0:
            normalize_columns(self.weights, p.weight_norm)

    # ------------------------------------------------------------------
    @property
    def n_input(self) -> int:
        return self.parameters.n_input

    @property
    def n_neurons(self) -> int:
        return self.parameters.n_neurons

    @property
    def n_weights(self) -> int:
        return self.weights.size

    @property
    def state_shape(self) -> Tuple[int, ...]:
        """Shape of every state array: ``batch_shape + (n_neurons,)``."""
        return self.batch_shape + (self.n_neurons,)

    def _allocate_state(self, batch_shape: Tuple[int, ...], theta: np.ndarray) -> None:
        """Allocate the state at rest, per-neuron ``theta`` broadcast."""
        self.batch_shape = tuple(int(s) for s in batch_shape)
        shape = self.state_shape
        self.v = np.full(shape, self.parameters.lif.v_rest, dtype=self.dtype)
        self.refractory_left = np.zeros(shape, dtype=self.dtype)
        self.theta = np.broadcast_to(theta, shape).copy()
        self.g_e = np.zeros(shape, dtype=self.dtype)
        self.g_i = np.zeros(shape, dtype=self.dtype)

    def set_batch_shape(self, batch_shape: Tuple[int, ...]) -> None:
        """Re-shape all dynamic state for a new leading batch shape.

        Membrane potentials and conductances return to rest; the
        per-neuron adaptive thresholds — assumed shared across the
        batch, which holds for every inference use — are re-broadcast
        from the first lane.  The weight tensor is kept only if it is
        still compatible (a single matrix always is; a stack must match
        the new leading stack dims), otherwise it resets to a zero
        matrix awaiting :meth:`set_weights`.
        """
        theta = (
            np.asarray(self.theta, dtype=self.dtype).reshape(-1, self.n_neurons)[0]
            if self.theta.size
            else np.zeros(self.n_neurons, dtype=self.dtype)
        )
        self._allocate_state(batch_shape, theta)
        if self.weights.ndim != 2 and self.weights.shape[:-2] != self.batch_shape[:-1]:
            self.weights = np.zeros((self.n_input, self.n_neurons), dtype=self.dtype)

    def set_weights(self, weights: np.ndarray) -> None:
        """Install a weight tensor (e.g. a DRAM-corrupted copy).

        Accepts one ``(n_input, n_neurons)`` matrix, or — on a network
        with ``len(batch_shape) >= 2`` — a stack shaped
        ``batch_shape[:-1] + (n_input, n_neurons)`` holding one tensor
        per leading batch index.
        """
        weights = np.asarray(weights, dtype=self.dtype)
        expected_2d = (self.n_input, self.n_neurons)
        if weights.ndim == 2:
            if weights.shape != expected_2d:
                raise ValueError(
                    f"weights must have shape {expected_2d}, got {weights.shape}"
                )
        else:
            stack = self.batch_shape[:-1]
            if not stack or weights.shape != stack + expected_2d:
                raise ValueError(
                    f"weight stacks must have shape {self.batch_shape[:-1] + expected_2d} "
                    f"for batch shape {self.batch_shape}, got {weights.shape}"
                )
        self.weights = weights.copy()

    def reset_state(self) -> None:
        """Return to rest between samples.

        ``theta`` is homeostatic long-term state: it survives sample
        boundaries during training and is frozen at inference time.
        """
        self.v.fill(self.parameters.lif.v_rest)
        self.refractory_left.fill(0.0)
        self.g_e.fill(0.0)
        self.g_i.fill(0.0)

    # ------------------------------------------------------------------
    def run_sample(self, spike_train: np.ndarray, stdp: STDPRule) -> np.ndarray:
        """Present one encoded sample with in-place STDP; returns spike counts.

        The ``batch_size=1`` training presentation: adaptive thresholds
        advance, and ``stdp`` updates the installed weights in place at
        every step a neuron fires.  Column normalisation and the
        fault-aware write-back are the caller's
        (:func:`repro.snn.training.apply_post_sample_update`).  Only
        available on an unbatched network; evaluation runs through
        :meth:`run_batch`.  The time loop (:meth:`_sample_loop`) is bit
        for bit one reference network step plus one in-place STDP step
        per timestep (``reference_run_sample`` in
        ``tests/snn_oracle.py``).
        """
        p = self.parameters
        if self.batch_shape != ():
            raise ValueError(
                "run_sample requires an unbatched network "
                f"(batch_shape {self.batch_shape}); use run_batch instead"
            )
        train = np.asarray(spike_train, dtype=bool)
        if train.ndim != 2 or train.shape[1] != p.n_input:
            raise ValueError(
                f"spike train must have shape (n_steps, {p.n_input}), got {train.shape}"
            )
        if stdp.state_shape != (p.n_input,):
            raise ValueError(
                f"run_sample needs an unbatched STDP rule over {p.n_input} "
                f"inputs, got trace shape {stdp.state_shape}"
            )
        self.reset_state()
        stdp.reset_state()
        return self._sample_loop(train, stdp)

    def _sample_loop(self, train: np.ndarray, stdp: STDPRule) -> np.ndarray:
        """The B=1 time loop of :meth:`run_sample`, lean but bit-exact.

        The ufuncs, operand order and dtypes of the reference network
        step + the in-place STDP step (``reference_run_sample`` and
        ``reference_stdp_step`` in ``tests/snn_oracle.py``), minus work
        whose result cannot change: drives come from one per-sample slab
        whose later rows of the updated columns are rewritten after each
        STDP update; after a silent step ``g_i`` only decays (the
        skipped inhibition is ``+0.0``, ``g_i`` is never ``-0.0``); with
        no neuron refractory ``v + dv`` is written unmasked; a silent
        step resets, bumps, counts and updates nothing.
        """
        p, lif = self.parameters, self.parameters.lif
        weights = self.weights
        matrix = _drive_matrix(train, weights.dtype)
        drives = matrix @ weights
        drives *= p.excitation_gain
        g_e, g_i = self.g_e, self.g_i
        decay_e, decay_i = self.g_e_decay, self.g_i_decay
        v, refr, theta = self.v, self.refractory_left, self.theta
        k = p.dt_ms / lif.tau_membrane_ms
        strength = p.inhibition_strength
        s1, s2, thr = np.empty_like(v), np.empty_like(v), np.empty_like(v)
        active = np.empty(v.shape, dtype=bool)
        spikes, last = np.empty(v.shape, dtype=bool), np.zeros(v.shape, dtype=bool)
        counts = np.zeros(p.n_neurons, dtype=np.int64)
        rule, x_pre = stdp.parameters, stdp.x_pre
        n_last = 0
        refractory = False
        for t in range(train.shape[0]):
            g_e *= decay_e
            g_e += drives[t]
            g_i *= decay_i
            if n_last:
                g_i += n_last * strength - strength * last
            _membrane_dv(lif, k, v, g_e, g_i, s1, s2)
            if refractory:
                # Masked write, as in _run_batch_frozen: a non-finite dv
                # must leave refractory neurons untouched.
                np.less_equal(refr, 0.0, out=active)
                np.add(v, s1, out=s1)
                np.copyto(v, s1, where=active)
            else:
                v += s1
            np.add(lif.v_threshold, theta, out=thr)
            np.greater_equal(v, thr, out=spikes)
            if refractory:
                spikes &= active
                refr -= p.dt_ms
                np.maximum(refr, 0.0, out=refr)
            theta *= self.theta_decay
            x_pre *= stdp._trace_decay
            x_pre[train[t]] = 1.0
            n_last = np.count_nonzero(spikes)
            if n_last:
                post = np.flatnonzero(spikes)
                v[post] = lif.v_reset
                refr[post] = lif.refractory_ms
                theta[post] += lif.theta_plus
                counts[post] += 1
                columns = weights[:, post]
                bound = rule.w_max - columns
                if rule.mu != 1.0:  # x ** 1.0 is exactly x
                    bound = bound**rule.mu
                updated = columns + rule.learning_rate * (
                    x_pre[:, None] - rule.trace_offset
                ) * bound
                weights[:, post] = np.clip(updated, 0.0, rule.w_max, out=updated)
                # CSR accumulates every output column on its own, so the
                # product with the updated columns alone is exact (and
                # cheaper over all rows than a CSR row slice).
                drives[t + 1 :, post] = (
                    (matrix @ weights[:, post])[t + 1 :] * p.excitation_gain
                )
            if refractory or n_last:
                refractory = np.count_nonzero(refr) > 0
            last, spikes = spikes, last
        return counts

    def run_batch(
        self,
        spike_trains: np.ndarray,
        base_weights: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Present a batch of encoded samples in one vectorized pass.

        ``spike_trains`` is boolean ``(B, n_steps, n_input)`` where ``B``
        must equal the trailing batch dim.  With ``batch_shape=(B,)``
        the single weight matrix is applied to every sample; with
        ``batch_shape=(E, B)`` the installed weight stack (or a single
        matrix, shared) is applied realization-wise, and every sample is
        presented to all ``E`` realizations.  Returns per-neuron spike
        counts of shape ``batch_shape + (n_neurons,)``.

        ``base_weights`` (stacked networks only) marks the installed
        stack as ``E`` realizations of one base tensor — the clean
        weights a low-BER injector corrupted.  The base drive is then
        computed once and each realization recomputes only the drive
        rows its changed input rows touch (:func:`_delta_drive_rows`),
        which is bit-identical to the per-realization matmul.

        Adaptive thresholds stay frozen.  The spike counts are
        bit-identical to a per-sample, per-timestep inference loop over
        realizations and samples at the same installed weights
        (``sequential_spike_counts`` in ``tests/snn_oracle.py``; see
        the module docstring).
        """
        p = self.parameters
        bs = self.batch_shape
        if len(bs) not in (1, 2):
            raise ValueError(
                f"run_batch requires batch_shape (B,) or (E, B), got {bs}"
            )
        trains = np.asarray(spike_trains, dtype=bool)
        n_batch = bs[-1]
        if trains.ndim != 3 or trains.shape[0] != n_batch or trains.shape[2] != p.n_input:
            raise ValueError(
                f"spike trains must have shape ({n_batch}, n_steps, {p.n_input}), "
                f"got {trains.shape}"
            )
        if base_weights is not None and self.weights.ndim == 3:
            base_weights = np.asarray(base_weights, dtype=self.dtype)
            if base_weights.shape != (p.n_input, p.n_neurons):
                raise ValueError(
                    f"base_weights must have shape {(p.n_input, p.n_neurons)}, "
                    f"got {base_weights.shape}"
                )
        else:
            base_weights = None
        n_steps = trains.shape[1]
        matrix = self.prepare_drive_matrix(trains)
        # The operator replaces the trains: a caller that passed them
        # without keeping a reference gets them freed before the loop.
        del spike_trains, trains
        self.reset_state()
        return self._run_batch_frozen(self._drive_blocks(matrix, base_weights), n_steps)

    def _drive_blocks(
        self, matrix, base_weights: Optional[np.ndarray] = None
    ) -> Iterator[np.ndarray]:
        """Gain-scaled drives of a chunk, one block of consecutive steps at a time.

        ``matrix`` is the chunk's :meth:`prepare_drive_matrix` operator;
        block ``[t0, t1)`` is the product of its contiguous row slice
        ``t0 * B : t1 * B`` (a row's product does not depend on the
        other rows, so every drive row is bit-identical to the
        whole-chunk matmul and to the scalar per-step index-sum).  A
        block holds :attr:`drive_block_bytes` worth of steps, at least
        one.  A single matrix yields ``(steps, B, n_neurons)`` blocks,
        which a ``(E, B)`` network's time loop broadcasts over ``E``; a
        stack yields ``(steps, E, B, n_neurons)`` views of one reused
        buffer, each valid until the next block is requested.  With
        ``base_weights`` every block's base drive is computed once and
        each realization recomputes only the rows its changed input
        rows touch (:func:`_delta_drive_rows`), the changed rows found
        once per realization.
        """
        p = self.parameters
        n_batch = self.batch_shape[-1]
        n_steps = matrix.shape[0] // n_batch
        gain = p.excitation_gain
        stacked = self.weights.ndim == 3
        n_held = self.weights.shape[0] if stacked else 1
        step_bytes = n_held * n_batch * p.n_neurons * self.dtype.itemsize
        block = max(1, min(n_steps, self.drive_block_bytes // step_bytes))
        if stacked:
            buffer = np.empty((block,) + self.batch_shape + (p.n_neurons,), self.dtype)
            if base_weights is not None:
                changed = [
                    np.flatnonzero((w != base_weights).any(axis=1))
                    for w in self.weights
                ]
        for t0 in range(0, n_steps, block):
            t1 = min(t0 + block, n_steps)
            rows = matrix[t0 * n_batch : t1 * n_batch]
            shape = (t1 - t0, n_batch, p.n_neurons)
            if not stacked:
                drives = rows @ self.weights
                drives *= gain
                yield drives.reshape(shape)
                continue
            out = buffer[: t1 - t0]
            if base_weights is not None:
                base_rows = rows @ base_weights
            for e, weights in enumerate(self.weights):
                if base_weights is None:
                    drives = rows @ weights
                else:
                    drives = _delta_drive_rows(rows, weights, changed[e], base_rows)
                out[:, e] = drives.reshape(shape)
            out *= gain
            yield out

    def prepare_drive_matrix(self, spike_trains: np.ndarray):
        """Prebuild the reusable sparse drive operator of a chunk.

        The CSR matrix that :meth:`run_batch` and
        :meth:`run_batch_stdp` stream their drive blocks from
        (:meth:`_drive_blocks`) — exposed so a caller presenting the *same*
        encoded minibatch repeatedly (the per-BER-stage amortization of
        :class:`repro.engine.trainer.StageEncodingCache`) pays the
        sparse-structure construction once.  Rows are step-major (row
        ``t * B + b`` is sample ``b`` at step ``t``), so the drive rows
        of any run of steps reshape to the time-major ``(steps, B,
        n_neurons)`` slab without a transposed copy.  The encoder's
        trains are step-major storage already
        (:func:`repro.engine.encoding.encode_spike_trains`) and are read
        in place; trains in another layout are copied once.
        """
        trains = np.asarray(spike_trains, dtype=bool)
        if trains.ndim != 3 or trains.shape[2] != self.n_input:
            raise ValueError(
                f"spike trains must have shape (B, n_steps, {self.n_input}), "
                f"got {trains.shape}"
            )
        steps = np.ascontiguousarray(trains.transpose(1, 0, 2))
        return _drive_matrix(steps.reshape(-1, self.n_input), self.dtype)

    def run_batch_stdp(
        self,
        spike_trains: np.ndarray,
        stdp: STDPRule,
        delta: np.ndarray,
        matrix=None,
    ) -> np.ndarray:
        """Present a minibatch with learning against *frozen* weights.

        The batched half of the minibatch STDP engine
        (:class:`repro.engine.trainer.BatchedTrainer`): drives stream
        from the single installed weight matrix through the same drive
        blocks as :meth:`run_batch` (:meth:`_drive_blocks`), the
        adaptive neurons advance with
        homeostasis on (``adapt=True``, per-lane thresholds), and each
        step's STDP updates are *accumulated* into ``delta`` against
        the frozen tensor instead of applied in place.  ``stdp`` must
        carry this network's batch shape ``(B,)``; its traces are reset
        at the start (one presentation per lane).  Returns per-lane
        spike counts ``(B, n_neurons)``.

        The time loop is the fused, allocation-free
        :meth:`_run_batch_stdp_fused`.  ``matrix`` optionally supplies
        the prebuilt :meth:`prepare_drive_matrix` operator.
        """
        p = self.parameters
        bs = self.batch_shape
        if len(bs) != 1:
            raise ValueError(
                f"run_batch_stdp requires batch_shape (B,), got {bs}"
            )
        if self.weights.ndim != 2:
            raise ValueError(
                "run_batch_stdp requires a single weight matrix "
                f"(frozen for the minibatch), got shape {self.weights.shape}"
            )
        if stdp.batch_shape != bs:
            raise ValueError(
                f"stdp rule batch shape {stdp.batch_shape} must match the "
                f"network batch shape {bs}"
            )
        trains = np.asarray(spike_trains, dtype=bool)
        n_batch = bs[0]
        if trains.ndim != 3 or trains.shape[0] != n_batch or trains.shape[2] != p.n_input:
            raise ValueError(
                f"spike trains must have shape ({n_batch}, n_steps, {p.n_input}), "
                f"got {trains.shape}"
            )
        if matrix is None:
            matrix = self.prepare_drive_matrix(trains)
        blocks = self._drive_blocks(matrix)
        bound = stdp.frozen_bound(self.weights)
        self.reset_state()
        stdp.reset_state()
        pre_steps = trains.transpose(1, 0, 2)  # (n_steps, B, n_input) view
        counts = np.zeros(bs + (p.n_neurons,), dtype=np.int64)
        return self._run_batch_stdp_fused(blocks, pre_steps, stdp, delta, bound, counts)

    def _run_batch_stdp_fused(
        self,
        blocks: Iterator[np.ndarray],
        pre_steps: np.ndarray,
        stdp: STDPRule,
        delta: np.ndarray,
        bound: np.ndarray,
        counts: np.ndarray,
    ) -> np.ndarray:
        """The training time loop, allocation-free.

        The training counterpart of :meth:`_run_batch_frozen`, reading
        the same drive blocks: per step it performs exactly the ufunc
        sequence of the reference step from a drive (``step_from_drive``
        in ``tests/snn_oracle.py``) with ``adapt=True`` plus the STDP
        trace decay/bump, into buffers allocated before the loop, then the
        spiking-column accumulation
        (:meth:`~repro.snn.stdp.STDPRule.accumulate_step`) runs.
        Constants stay plain Python floats, as in the reference
        expressions: under NEP 50 they take the array's dtype.
        Bit-identity with the unfused reference loop of
        ``tests/snn_oracle.py`` is asserted in ``tests/test_snn_kernels``.
        """
        p, lif = self.parameters, self.parameters.lif
        k = p.dt_ms / lif.tau_membrane_ms
        strength = p.inhibition_strength
        g_e, g_i, x_pre = self.g_e, self.g_i, stdp.x_pre
        v, refr, theta = self.v, self.refractory_left, self.theta
        s1, s2, thr = np.empty_like(v), np.empty_like(v), np.empty_like(v)
        active, spikes = np.empty(v.shape, dtype=bool), np.empty(v.shape, dtype=bool)
        last = np.zeros(v.shape, dtype=bool)
        row_count = np.empty(v.shape[:-1] + (1,), dtype=np.int64)
        row_inh = np.empty(v.shape[:-1] + (1,), dtype=np.float64)
        pre, offset = np.empty(x_pre.shape, dtype=bool), np.empty_like(x_pre)
        start = end = 0
        for t in range(pre_steps.shape[0]):
            if t == end:
                drives = next(blocks)
                start, end = t, t + drives.shape[0]
            np.copyto(pre, pre_steps[t])
            g_e *= self.g_e_decay
            g_e += drives[t - start]
            # Lateral inhibition: row totals in int64/float64 exactly as the
            # reference `last.sum(axis=-1, keepdims=True) * inhibition` chain.
            np.sum(last, axis=-1, keepdims=True, out=row_count)
            np.multiply(row_count, strength, out=row_inh)
            np.multiply(last, strength, out=s1)
            np.subtract(row_inh, s1, out=s1)
            g_i *= self.g_i_decay
            g_i += s1
            np.less_equal(refr, 0.0, out=active)
            _membrane_dv(lif, k, v, g_e, g_i, s1, s2)
            # Masked write, not `v += dv * active`: a non-finite dv (float32
            # overflow from unclipped corrupted weights) must leave
            # refractory neurons untouched exactly as the reference
            # np.where does.
            s1 += v
            np.copyto(v, s1, where=active)
            np.add(lif.v_threshold, theta, out=thr)
            np.greater_equal(v, thr, out=spikes)
            spikes &= active
            # Masked scalar writes: same elements, same values as the
            # boolean-indexed assignments of the reference step, minus the
            # index-array extraction those perform.
            np.copyto(v, lif.v_reset, where=spikes)
            refr -= p.dt_ms
            np.maximum(refr, 0.0, out=refr)
            np.copyto(refr, lif.refractory_ms, where=spikes)
            theta *= self.theta_decay
            np.add(theta, lif.theta_plus, out=theta, where=spikes)
            x_pre *= stdp._trace_decay
            np.copyto(x_pre, 1.0, where=pre)
            counts += spikes
            stdp.accumulate_step(spikes, delta, bound, offset)
            last, spikes = spikes, last
        return counts

    def _run_batch_frozen(
        self, blocks: Iterator[np.ndarray], n_steps: int
    ) -> np.ndarray:
        """The inference time loop, from the rest state ``run_batch`` resets.

        ``blocks`` yields the gain-scaled drives of consecutive steps
        (:meth:`_drive_blocks`); the loop reads each block in place and
        asks for the next one when it is used up.

        The ufuncs, operand order and dtypes of the reference step from a
        drive with frozen thresholds (the dense loop
        ``reference_run_batch_frozen`` of ``tests/snn_oracle.py``) minus
        work whose result cannot change.  Inhibition is added only
        to the lanes (rows of ``n_neurons``) that spiked last step: the
        others would add ``+0.0``, and ``g_i`` is never ``-0.0``.  Only
        refractory elements count down and have their spikes cleared;
        their ``v`` is saved before the unmasked ``v += dv`` and put
        back, so a non-finite ``dv`` (e.g. float32 overflow from
        unclipped corrupted weights) never reaches them.  Reset,
        refractory set and count touch only the spike indices.  Nothing
        is allocated per step: gathers write into buffers made before the
        loop (``mode="clip"``: the default mode copies ``out``), and
        scatters are index assignments.
        """
        p, lif = self.parameters, self.parameters.lif
        shape = self.batch_shape + (p.n_neurons,)
        size = int(np.prod(shape))
        n_lanes = size // p.n_neurons
        k = p.dt_ms / lif.tau_membrane_ms
        strength = p.inhibition_strength
        enters_refractory = self.dtype.type(lif.refractory_ms) > 0
        g_e, g_i = self.g_e, self.g_i
        v, refr = self.v, self.refractory_left
        v_flat, refr_flat = v.reshape(-1), refr.reshape(-1)
        g_i_rows = g_i.reshape(n_lanes, -1)
        # Frozen thresholds: v_threshold + theta is step-invariant.
        thr = lif.v_threshold + self.theta
        s1, s2 = np.empty(shape, dtype=self.dtype), np.empty(shape, dtype=self.dtype)
        # Rows of s1 and s2 also hold the spiking lanes' inhibition and g_i.
        inh, g_rows = s1.reshape(n_lanes, -1), s2.reshape(n_lanes, -1)
        spikes, last = np.empty(shape, dtype=bool), np.zeros(shape, dtype=bool)
        counts = np.zeros(size, dtype=np.int64)
        # Element indices fit 4 bytes below 2**31 elements: half the
        # memory of intp for the five buffers sized for every element.
        index = np.int32 if size < 2**31 else np.intp
        flat_index, lane_ids = np.arange(size, dtype=index), np.arange(n_lanes)
        lane_any = np.empty(n_lanes, dtype=bool)
        lanes = np.empty(n_lanes, dtype=np.intp)
        last_rows = np.empty((n_lanes, p.n_neurons), dtype=bool)
        row_count = np.empty((n_lanes, 1), dtype=np.int64)
        row_inh = np.empty((n_lanes, 1), dtype=np.float64)
        # Last step's spike indices, and the refractory ones double-buffered.
        spk, scratch = np.empty(size, dtype=index), np.empty(size, dtype=index)
        refractory, spare = np.empty(size, dtype=index), np.empty(size, dtype=index)
        held_values, keep = np.empty(size, dtype=self.dtype), np.empty(size, dtype=bool)
        n_last = n_refr = start = end = 0
        for t in range(n_steps):
            if t == end:
                drives = next(blocks)
                start, end = t, t + drives.shape[0]
            g_e *= self.g_e_decay
            g_e += drives[t - start]
            g_i *= self.g_i_decay
            if n_last:
                np.floor_divide(spk[:n_last], p.n_neurons, out=scratch[:n_last])
                lane_any.fill(False)
                lane_any[scratch[:n_last]] = True
                m = np.count_nonzero(lane_any)
                rows = np.compress(lane_any, lane_ids, out=lanes[:m])
                last_2d = last.reshape(n_lanes, -1)
                np.take(last_2d, rows, axis=0, out=last_rows[:m], mode="clip")
                np.sum(last_rows[:m], axis=-1, keepdims=True, out=row_count[:m])
                np.multiply(row_count[:m], strength, out=row_inh[:m])
                np.multiply(last_rows[:m], strength, out=inh[:m])
                np.subtract(row_inh[:m], inh[:m], out=inh[:m])
                np.take(g_i_rows, rows, axis=0, out=g_rows[:m], mode="clip")
                np.add(g_rows[:m], inh[:m], out=g_rows[:m])
                g_i_rows[rows] = g_rows[:m]
            _membrane_dv(lif, k, v, g_e, g_i, s1, s2)
            if n_refr:
                held, values = refractory[:n_refr], held_values[:n_refr]
                np.take(v_flat, held, out=values, mode="clip")
                np.add(s1, v, out=v)
                v_flat[held] = values
                np.greater_equal(v, thr, out=spikes)
                spikes.reshape(-1)[held] = False
                np.take(refr_flat, held, out=values, mode="clip")
                np.subtract(values, p.dt_ms, out=values)
                np.maximum(values, 0.0, out=values)
                refr_flat[held] = values
                kept = np.count_nonzero(np.greater(values, 0.0, out=keep[:n_refr]))
                np.compress(keep[:n_refr], held, out=spare[:kept])
                refractory, spare, n_refr = spare, refractory, kept
            else:
                np.add(s1, v, out=v)
                np.greater_equal(v, thr, out=spikes)
            n_last = np.count_nonzero(spikes)
            if n_last:
                fired, hits = spk[:n_last], scratch[:n_last]
                np.compress(spikes.reshape(-1), flat_index, out=fired)
                v_flat[fired] = lif.v_reset
                refr_flat[fired] = lif.refractory_ms
                np.add(np.take(counts, fired, out=hits, mode="clip"), 1, out=hits)
                counts[fired] = hits
                if enters_refractory:
                    refractory[n_refr : n_refr + n_last] = fired
                    n_refr += n_last
            last, spikes = spikes, last
        return counts.reshape(shape)


def make_stdp(
    network: DiehlCookNetwork,
    parameters: STDPParameters | None = None,
    batch_shape: Tuple[int, ...] = (),
) -> STDPRule:
    """An STDP rule sized (and dtype-matched) for ``network``'s projection."""
    params = parameters or STDPParameters(w_max=network.w_max)
    return STDPRule(
        network.n_input,
        params,
        network.parameters.dt_ms,
        batch_shape=batch_shape,
        dtype=network.dtype,
    )
