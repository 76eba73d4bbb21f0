"""The fully-connected SNN architecture of the paper's Fig. 4(a).

Every input pixel connects to all excitatory neurons; each excitatory
spike feeds lateral inhibition back to all *other* neurons, promoting
competition (winner-take-all dynamics).  This is the Diehl & Cook
unsupervised architecture the paper adopts (its reference [7] and the
BindsNET substrate [16]); the network sizes of the evaluation are
N400, N900, N1600, N2500 and N3600 excitatory neurons.

Batching model
--------------
All dynamic state is batch-shape-polymorphic: a network with
``batch_shape=(E, B)`` advances ``E x B`` independent network instances
per step — ``B`` evaluation samples under ``E`` weight tensors (error
realizations) — with state arrays of shape ``(E, B, n_neurons)``.
Batched input drive is a ``spikes @ weights`` matmul (via
:func:`repro.snn.synapses.propagate_spikes` for online stepping, or the
sparse whole-sample form of :func:`sample_drive`).

:meth:`DiehlCookNetwork.run_batch` evaluates a whole batch of encoded
samples in one vectorized pass.  The per-step drive of
:meth:`DiehlCookNetwork.run_sample` is the classic sparse index-sum
``weights[active].sum(axis=0)``; the batched path computes all drives
up front with one sparse ``spikes @ weights`` matmul per realization
(:func:`sample_drive`), whose output rows are **bit-identical** to the
per-step index-sum — CSR row accumulation and numpy's axis-0 row
reduction both add the active weight rows left-to-right.  Every state
update is elementwise, so batched spike counts equal a per-sample,
per-timestep ``run_sample`` loop exactly (``tests/snn_oracle.py`` keeps
that loop as the test oracle).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

try:  # scipy accelerates the batched drive; plain numpy works without it.
    from scipy import sparse as _sparse
except ImportError:  # pragma: no cover - exercised via the forced fallback test
    _sparse = None

from repro.rng import ensure_rng
from repro.snn.kernels import FusedConstants, FusedWorkspace, numpy_state_step
from repro.snn.neurons import AdaptiveLIFLayer, LIFParameters
from repro.snn.stdp import STDPParameters, STDPRule, normalize_columns
from repro.snn.synapses import (
    ConductanceParameters,
    SynapticConductance,
    propagate_spikes,
)

#: Network sizes evaluated by the paper (Section V).
PAPER_NETWORK_SIZES = (400, 900, 1600, 2500, 3600)


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


def step_drive(weights: np.ndarray, input_spikes: np.ndarray) -> np.ndarray:
    """One timestep's input drive: ``weights[active].sum(axis=0)``.

    The canonical sequential drive (inherited from the original scalar
    simulator): the rows of the weight matrix whose input spiked are
    accumulated top to bottom.  :func:`sample_drive` reproduces exactly
    this accumulation for every step of a sample at once.
    """
    active = np.flatnonzero(input_spikes)
    return weights[active].sum(axis=0)


def sample_drive(spike_train: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """All per-step input drives of one sample: ``train @ weights``.

    ``spike_train`` is boolean ``(n_steps, n_input)``; ``weights`` is
    one ``(n_input, n_neurons)`` matrix; the result has one drive row
    per timestep.  With scipy available the product is one sparse CSR
    matmul — O(spikes) instead of O(n_steps x n_input) work.

    Row ``t`` is **bit-identical** to
    ``step_drive(weights, spike_train[t])``: CSR accumulates each
    output row over its active columns in ascending order, exactly as
    numpy's axis-0 reduction adds the gathered weight rows.  (Covered
    by ``tests/test_engine.py``; the pure-numpy fallback runs the
    index-sum per step, so the identity holds with or without scipy.)
    """
    return _drive_rows(_drive_matrix(spike_train, np.asarray(weights).dtype), weights)


def _drive_matrix(spike_rows: np.ndarray, dtype: np.dtype = np.float64):
    """Prepare spike rows for (repeated) drive computation.

    Returns a CSR matrix when scipy is available, else the boolean
    array itself.  Building this once and reusing it across an E-stack
    of weight tensors amortises the sparse-structure construction.
    """
    rows = np.asarray(spike_rows, dtype=bool)
    if rows.ndim != 2:
        raise ValueError(f"spike rows must be 2-D, got shape {rows.shape}")
    if _sparse is None:
        return rows
    if rows.size >= 2**31:
        return _sparse.csr_matrix(rows, dtype=dtype)
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
    return _sparse.csr_matrix((data, indices, indptr), shape=rows.shape)


def _drive_rows(matrix, weights: np.ndarray) -> np.ndarray:
    """Drive rows of a prepared :func:`_drive_matrix` against one tensor."""
    if _sparse is not None and _sparse.issparse(matrix):
        return matrix @ weights
    rows = np.zeros((matrix.shape[0], weights.shape[1]), dtype=weights.dtype)
    for t in np.flatnonzero(matrix.any(axis=1)):
        rows[t] = step_drive(weights, matrix[t])
    return rows


def _delta_drive_rows(
    matrix, weights: np.ndarray, base_weights: np.ndarray, base_rows: np.ndarray
) -> np.ndarray:
    """Drive rows of a near-clean realization via exact row recomputation.

    For an error-realization stack close to a shared base tensor (low
    BER), most input rows of ``weights`` equal ``base_weights`` exactly
    — so most drive rows equal ``base_rows`` exactly, because a CSR
    output row (and the numpy fallback's index-sum) accumulates only
    the weight rows its spikes select, in a fixed order.  Only the
    drive rows touched by a *changed* input row need recomputing, and
    a CSR row-slice matmul preserves each row's accumulation order, so
    the result is **bit-identical** to ``_drive_rows(matrix, weights)``
    at a fraction of the flops.

    Falls back to the full product when the realization is not actually
    sparse against the base (high BER corrupts most input rows, at
    which point the bookkeeping would cost more than it saves).
    """
    changed = np.flatnonzero((weights != base_weights).any(axis=1))
    if changed.size == 0:
        return base_rows
    if changed.size * 4 >= weights.shape[0]:
        return _drive_rows(matrix, weights)
    if _sparse is not None and _sparse.issparse(matrix):
        indicator = np.zeros(weights.shape[0], dtype=matrix.dtype)
        indicator[changed] = 1.0
        touched = np.flatnonzero(matrix @ indicator)
        if touched.size == 0:
            return base_rows
        rows = base_rows.copy()
        rows[touched] = matrix[touched] @ weights
        return rows
    touched = np.flatnonzero(matrix[:, changed].any(axis=1))
    if touched.size == 0:
        return base_rows
    rows = base_rows.copy()
    for t in touched:
        rows[t] = step_drive(weights, matrix[t])
    return rows


class DiehlCookNetwork:
    """Input → excitatory layer with lateral inhibition (Fig. 4a).

    The synaptic weight matrix ``weights`` has shape
    ``(n_input, n_neurons)`` with values in ``[0, w_max]``.  It is the
    tensor SparkXD stores in (approximate) DRAM; replacing it with a
    corrupted copy models inference from faulty memory.  A batched
    network additionally accepts a *stack* of weight tensors — shape
    ``(E, n_input, n_neurons)`` for ``batch_shape=(E, B)`` — one per
    error realization.

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
        if init_weights:
            rng = ensure_rng(rng)
            self.weights = (
                rng.random((p.n_input, p.n_neurons)) * 0.3 * w_max
            ).astype(self.dtype, copy=False)
        else:
            self.weights = np.zeros((p.n_input, p.n_neurons), dtype=self.dtype)
        bs = tuple(int(s) for s in batch_shape)
        self.neurons = AdaptiveLIFLayer(
            p.n_neurons, p.lif, p.dt_ms, batch_shape=bs, dtype=self.dtype
        )
        if init_weights and p.theta_init_max > 0:
            self.neurons.theta = np.broadcast_to(
                rng.uniform(0.0, p.theta_init_max, p.n_neurons).astype(
                    self.dtype, copy=False
                ),
                self.neurons.state_shape,
            ).copy()
        self.g_excitatory = SynapticConductance(
            p.n_neurons,
            p.conductance.tau_excitatory_ms,
            p.dt_ms,
            batch_shape=bs,
            dtype=self.dtype,
        )
        self.g_inhibitory = SynapticConductance(
            p.n_neurons,
            p.conductance.tau_inhibitory_ms,
            p.dt_ms,
            batch_shape=bs,
            dtype=self.dtype,
        )
        self._last_spikes = np.zeros(bs + (p.n_neurons,), dtype=bool)
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
    def batch_shape(self) -> Tuple[int, ...]:
        return self.neurons.batch_shape

    def set_batch_shape(self, batch_shape: Tuple[int, ...]) -> None:
        """Re-shape all dynamic state for a new leading batch shape.

        Membrane potentials and conductances return to rest; the
        per-neuron adaptive thresholds (shared across the batch) are
        re-broadcast.  The weight tensor is kept only if it is still
        compatible (a single matrix always is; a stack must match the
        new leading stack dims), otherwise it resets to a zero matrix
        awaiting :meth:`set_weights`.
        """
        bs = tuple(int(s) for s in batch_shape)
        self.neurons.set_batch_shape(bs)
        self.g_excitatory.set_batch_shape(bs)
        self.g_inhibitory.set_batch_shape(bs)
        self._last_spikes = np.zeros(bs + (self.n_neurons,), dtype=bool)
        if self.weights.ndim != 2 and self.weights.shape[:-2] != bs[:-1]:
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

    def reset_state(self, keep_theta: bool = True) -> None:
        """Clear per-sample dynamic state; keep long-term homeostasis."""
        self.neurons.reset_state(keep_theta=keep_theta)
        self.g_excitatory.reset_state()
        self.g_inhibitory.reset_state()
        self._last_spikes = np.zeros(self.batch_shape + (self.n_neurons,), dtype=bool)

    # ------------------------------------------------------------------
    def _step_from_drive(self, drive: np.ndarray, adapt: bool) -> np.ndarray:
        """Advance one timestep from a precomputed excitatory drive.

        Everything here is elementwise over the state shape, so the
        arithmetic of a batched step is bit-identical per element to the
        scalar step — the keystone of the batched ≡ per-sample guarantee.
        """
        p = self.parameters
        self.g_excitatory.step(drive)
        # Lateral inhibition: each spike last step inhibits all *other*
        # neurons (Fig. 4a's inhibition fan-out).
        last = self._last_spikes
        inhibition = (
            last.sum(axis=-1, keepdims=True) * p.inhibition_strength
            - p.inhibition_strength * last
        )
        self.g_inhibitory.step(inhibition)
        spikes = self.neurons.step(
            self.g_excitatory.g, self.g_inhibitory.g, adapt=adapt
        )
        self._last_spikes = spikes
        return spikes

    def step(self, input_spikes: np.ndarray, adapt: bool = True) -> np.ndarray:
        """One network timestep; returns the excitatory spike array.

        ``input_spikes`` has shape ``batch_shape + (n_input,)`` (a plain
        ``(n_input,)`` vector on an unbatched network).  The scalar path
        uses the sparse per-step index-sum (:func:`step_drive`); batched
        networks use the ``spikes @ weights`` matmul.
        """
        p = self.parameters
        pre = np.asarray(input_spikes, dtype=bool)
        expected = self.batch_shape + (p.n_input,)
        if pre.shape != expected:
            raise ValueError(f"input spikes must have shape {expected}")
        if self.batch_shape == () and self.weights.ndim == 2:
            drive = step_drive(self.weights, pre) * p.excitation_gain
        else:
            drive = propagate_spikes(self.weights, pre) * p.excitation_gain
        return self._step_from_drive(drive, adapt)

    def run_sample(
        self,
        spike_train: np.ndarray,
        stdp: Optional[STDPRule] = None,
        adapt: Optional[bool] = None,
        normalize: Optional[bool] = None,
    ) -> np.ndarray:
        """Present one encoded sample; returns per-neuron spike counts.

        Passing an :class:`~repro.snn.stdp.STDPRule` enables learning
        (training mode); otherwise the run is pure inference with frozen
        adaptive thresholds.  ``normalize`` overrides the default
        post-sample column normalisation (fault-aware training applies
        it to the stored clean tensor instead of the corrupted copy).
        Only available on an unbatched network; use :meth:`run_batch`
        for batched evaluation.
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
        if adapt is None:
            adapt = stdp is not None
        self.reset_state(keep_theta=True)
        if stdp is not None:
            stdp.reset_state()
        if normalize is None:
            normalize = stdp is not None and p.weight_norm > 0
        counts = np.zeros(p.n_neurons, dtype=np.int64)
        for t in range(train.shape[0]):
            spikes = self.step(train[t], adapt=adapt)
            if stdp is not None:
                stdp.step(self.weights, train[t], spikes)
            counts += spikes
        if normalize and p.weight_norm > 0:
            normalize_columns(self.weights, p.weight_norm)
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
        bit-identical to looping :meth:`run_sample` over realizations
        and samples at the same installed weights (see module
        docstring).
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
        n_steps = trains.shape[1]
        gain = p.excitation_gain

        # All drives up front: one sparse spikes @ weights matmul per
        # realization over the whole chunk (rows are per-(sample, step)
        # and bit-identical to the scalar per-step index-sum).  Layout
        # (n_steps,) + batch_shape + (n_neurons,) so the time loop below
        # reads one contiguous, copy-free slab per step.
        if self.weights.ndim == 2:
            base = self._sample_drives(trains, self.weights)
            drives = (
                base
                if len(bs) == 1
                else np.broadcast_to(
                    base[:, None, :, :], (n_steps,) + bs + (p.n_neurons,)
                )
            )
        else:
            matrix = _drive_matrix(
                trains.reshape(n_batch * n_steps, p.n_input), self.dtype
            )
            n_stack = self.weights.shape[0]
            drives = np.empty(
                (n_steps,) + bs + (p.n_neurons,), dtype=self.dtype
            )
            base_rows = None
            if base_weights is not None:
                base_weights = np.asarray(base_weights, dtype=self.dtype)
                if base_weights.shape != (p.n_input, p.n_neurons):
                    raise ValueError(
                        f"base_weights must have shape {(p.n_input, p.n_neurons)}, "
                        f"got {base_weights.shape}"
                    )
                base_rows = _drive_rows(matrix, base_weights)
            for e in range(n_stack):
                if base_rows is None:
                    rows = _drive_rows(matrix, self.weights[e])
                else:
                    rows = _delta_drive_rows(
                        matrix, self.weights[e], base_weights, base_rows
                    )
                drives[:, e, :, :] = rows.reshape(
                    n_batch, n_steps, p.n_neurons
                ).transpose(1, 0, 2)
            drives *= gain

        self.reset_state(keep_theta=True)
        return self._run_batch_frozen(drives, n_steps)

    def prepare_drive_matrix(self, spike_trains: np.ndarray):
        """Prebuild the reusable sparse drive operator of a minibatch.

        The CSR matrix (or boolean fallback) that
        :meth:`run_batch_stdp` and :meth:`_sample_drives` would build
        from these trains — exposed so a caller presenting the *same*
        encoded minibatch repeatedly (the per-BER-stage amortization of
        :class:`repro.engine.trainer.StageEncodingCache`) pays the
        sparse-structure construction once.
        """
        trains = np.asarray(spike_trains, dtype=bool)
        if trains.ndim != 3 or trains.shape[2] != self.n_input:
            raise ValueError(
                f"spike trains must have shape (B, n_steps, {self.n_input}), "
                f"got {trains.shape}"
            )
        return _drive_matrix(
            trains.reshape(trains.shape[0] * trains.shape[1], self.n_input),
            self.dtype,
        )

    def _sample_drives(
        self, trains: np.ndarray, weights: np.ndarray, matrix=None
    ) -> np.ndarray:
        """Gain-scaled time-major drive slab of a chunk against one matrix.

        ``trains`` is boolean ``(B, n_steps, n_input)``; the result is a
        contiguous ``(n_steps, B, n_neurons)`` tensor whose rows are
        bit-identical to the scalar per-step index-sum (see
        :func:`sample_drive`).  ``matrix`` optionally supplies the
        prebuilt :meth:`prepare_drive_matrix` operator of these trains.
        Shared by :meth:`run_batch` (single matrix) and
        :meth:`run_batch_stdp`.
        """
        p = self.parameters
        n_batch, n_steps = trains.shape[0], trains.shape[1]
        if matrix is None:
            matrix = _drive_matrix(
                trains.reshape(n_batch * n_steps, p.n_input), self.dtype
            )
        rows = _drive_rows(matrix, weights)
        base = np.ascontiguousarray(
            rows.reshape(n_batch, n_steps, p.n_neurons).transpose(1, 0, 2)
        )
        base *= p.excitation_gain
        return base

    def run_batch_stdp(
        self,
        spike_trains: np.ndarray,
        stdp: STDPRule,
        delta: np.ndarray,
        workspace: Optional[FusedWorkspace] = None,
        matrix=None,
    ) -> np.ndarray:
        """Present a minibatch with learning against *frozen* weights.

        The batched half of the minibatch STDP engine
        (:class:`repro.engine.trainer.BatchedTrainer`): drives for the
        whole minibatch are precomputed from the single installed
        weight matrix with the same sparse CSR matmul as
        :meth:`run_batch`, the adaptive neurons advance with
        homeostasis on (``adapt=True``, per-lane thresholds), and each
        step's STDP updates are *accumulated* into ``delta`` against
        the frozen tensor instead of applied in place.  ``stdp`` must
        carry this network's batch shape ``(B,)``; its traces are reset
        at the start (one presentation per lane).  Returns per-lane
        spike counts ``(B, n_neurons)``.

        The time loop is the fused, allocation-free
        :meth:`_run_batch_stdp_fused`.  ``workspace`` optionally
        supplies its preallocated
        :class:`~repro.snn.kernels.FusedWorkspace` scratch (one is
        allocated per call otherwise); ``matrix`` the prebuilt
        :meth:`prepare_drive_matrix` operator.
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
        drives = self._sample_drives(trains, self.weights, matrix=matrix)
        bound = stdp.frozen_bound(self.weights)
        self.reset_state(keep_theta=True)
        stdp.reset_state()
        pre_steps = trains.transpose(1, 0, 2)  # (n_steps, B, n_input) view
        counts = np.zeros(bs + (p.n_neurons,), dtype=np.int64)
        return self._run_batch_stdp_fused(
            drives, pre_steps, stdp, delta, bound, counts, workspace
        )

    def _run_batch_stdp_fused(
        self,
        drives: np.ndarray,
        pre_steps: np.ndarray,
        stdp: STDPRule,
        delta: np.ndarray,
        bound: np.ndarray,
        counts: np.ndarray,
        workspace: Optional[FusedWorkspace],
    ) -> np.ndarray:
        """The training time loop, allocation-free.

        The training counterpart of :meth:`_run_batch_frozen`: per step
        the state kernel (:func:`repro.snn.kernels.numpy_state_step`)
        performs exactly the ufunc sequence of :meth:`_step_from_drive`
        with ``adapt=True`` plus the STDP trace decay/bump into
        preallocated workspace buffers, then the spiking-column
        accumulation (:meth:`~repro.snn.stdp.STDPRule.accumulate_step`)
        runs.  Bit-identity with the unfused reference loop of
        ``tests/snn_oracle.py`` is asserted in ``tests/test_snn_kernels``.
        """
        p = self.parameters
        n_batch = self.batch_shape[0]
        n_steps = drives.shape[0]
        ws = workspace
        if ws is None or not ws.matches(n_batch, p.n_neurons, p.n_input, self.dtype):
            ws = FusedWorkspace(n_batch, p.n_neurons, p.n_input, self.dtype)
        consts = FusedConstants.for_loop(self, stdp)
        g_e, g_i = self.g_excitatory.g, self.g_inhibitory.g
        v, refr = self.neurons.v, self.neurons.refractory_left
        theta, x_pre = self.neurons.theta, stdp.x_pre
        np.copyto(ws.last, self._last_spikes)
        last, spikes = ws.last, ws.spikes
        for t in range(n_steps):
            np.copyto(ws.pre, pre_steps[t])
            numpy_state_step(
                consts, ws, drives[t], g_e, g_i, v, refr, theta, x_pre,
                last, spikes, counts,
            )
            stdp.accumulate_step(spikes, delta, bound, ws.offset)
            last, spikes = spikes, last
        self._last_spikes = last.copy()
        return counts

    def _run_batch_frozen(self, drives: np.ndarray, n_steps: int) -> np.ndarray:
        """The inference time loop, allocation-free.

        Performs exactly the ufunc sequence of
        :meth:`_step_from_drive` + :meth:`AdaptiveLIFLayer.step` (with
        frozen thresholds), element for element — same operations, same
        operand order, written into preallocated scratch buffers.  Cuts
        the per-step cost several-fold by eliminating the temporary
        arrays the expression forms would allocate; bit-identity with
        the per-sample ``run_sample`` loop is covered by the oracle
        tests of ``tests/test_engine.py``.
        """
        p = self.parameters
        lif = p.lif
        shape = self.batch_shape + (p.n_neurons,)
        k = p.dt_ms / lif.tau_membrane_ms
        g_e, g_i = self.g_excitatory, self.g_inhibitory
        v, refr = self.neurons.v, self.neurons.refractory_left
        # Frozen thresholds: v_threshold + theta is step-invariant.
        thr = lif.v_threshold + self.neurons.theta
        s1 = np.empty(shape, dtype=self.dtype)
        s2 = np.empty(shape, dtype=self.dtype)
        active = np.empty(shape, dtype=bool)
        spikes = np.empty(shape, dtype=bool)
        last = self._last_spikes
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
        self._last_spikes = last.copy()
        return counts


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
