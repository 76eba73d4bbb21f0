"""Fused per-step state kernel of the minibatch STDP training loop.

The training time loop of
:meth:`repro.snn.network.DiehlCookNetwork.run_batch_stdp` advances, per
timestep, the full dynamic state of ``B`` network lanes — conductances,
membrane potentials, refractory clocks, adaptive thresholds and the
presynaptic STDP traces.  Written as numpy expressions that is a dozen
temporary arrays per step; :func:`numpy_state_step` performs the exact
ufunc sequence of ``DiehlCookNetwork._step_from_drive`` +
``AdaptiveLIFLayer.step`` + the STDP trace decay/bump into a
preallocated :class:`FusedWorkspace` instead (the training analogue of
the allocation-free inference loop ``_run_batch_frozen``).

The kernel is **bit-identical** to the unfused reference step: every
ufunc call below has the same operands, operand order and output dtype
as the reference expression form.  The column-restricted STDP
*accumulation* (a BLAS matmul) stays in
:meth:`repro.snn.stdp.STDPRule.accumulate_step`, which the reference
loop (``tests/snn_oracle.py``) shares.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class FusedWorkspace:
    """Preallocated scratch of the fused training time loop.

    One workspace serves every step of every minibatch of a given shape
    — :class:`repro.engine.trainer.BatchedTrainer` keeps one per
    minibatch size, so steady-state training allocates nothing inside
    the time loop (the ``workspace-discipline`` lint rule guards the
    loop bodies themselves).

    Buffers (``B`` lanes × ``n`` neurons × ``n_pre`` inputs):

    - ``s1``/``s2``/``thr`` — dtype scratch for the membrane chain and
      the per-step threshold ``v_threshold + theta``;
    - ``active``/``spikes``/``last`` — boolean masks (``last`` and
      ``spikes`` swap roles every step, exactly like the inference
      loop's double buffer);
    - ``row_count``/``row_inh`` — the ``(B, 1)`` lateral-inhibition
      row reductions (int64 spike count, float64 scaled total);
    - ``pre`` — contiguous copy of the step's presynaptic spikes;
    - ``offset`` — the ``x_pre - trace_offset`` operand of the
      column-restricted STDP accumulation.
    """

    def __init__(self, n_batch: int, n_neurons: int, n_pre: int, dtype: np.dtype):
        if n_batch < 1 or n_neurons < 1 or n_pre < 1:
            raise ValueError("workspace dims must be >= 1")
        self.n_batch = int(n_batch)
        self.n_neurons = int(n_neurons)
        self.n_pre = int(n_pre)
        self.dtype = np.dtype(dtype)
        shape = (self.n_batch, self.n_neurons)
        self.s1 = np.empty(shape, dtype=self.dtype)
        self.s2 = np.empty(shape, dtype=self.dtype)
        self.thr = np.empty(shape, dtype=self.dtype)
        self.active = np.empty(shape, dtype=bool)
        self.spikes = np.empty(shape, dtype=bool)
        self.last = np.empty(shape, dtype=bool)
        self.row_count = np.empty((self.n_batch, 1), dtype=np.int64)
        self.row_inh = np.empty((self.n_batch, 1), dtype=np.float64)
        self.pre = np.empty((self.n_batch, self.n_pre), dtype=bool)
        self.offset = np.empty((self.n_batch, self.n_pre), dtype=self.dtype)

    def matches(self, n_batch: int, n_neurons: int, n_pre: int, dtype) -> bool:
        """Whether this workspace fits a minibatch of the given shape."""
        return (
            self.n_batch == n_batch
            and self.n_neurons == n_neurons
            and self.n_pre == n_pre
            and self.dtype == np.dtype(dtype)
        )


@dataclass(frozen=True)
class FusedConstants:
    """Pre-cast step constants of the fused kernel.

    Every constant that meets a compute-dtype array is stored as a
    numpy scalar of that dtype — under NEP 50 a weak python float
    behaves exactly as-if cast to the array's dtype, so pre-casting
    reproduces the reference expressions bit for bit.  ``inhibition``
    alone stays float64: the reference inhibition chain mixes an int64
    row reduction with a python float, which numpy evaluates in float64
    before the store downcasts.
    """

    decay_e: np.number
    decay_i: np.number
    inhibition: np.float64
    v_rest: np.number
    e_excitatory: np.number
    e_inhibitory: np.number
    k: np.number
    v_threshold: np.number
    v_reset: np.number
    dt_ms: np.number
    refractory_ms: np.number
    theta_decay: np.number
    theta_plus: np.number
    trace_decay: np.number
    one: np.number

    @classmethod
    def for_loop(cls, network, stdp) -> "FusedConstants":
        """Constants of one ``run_batch_stdp`` fused loop."""
        p = network.parameters
        lif = p.lif
        D = network.dtype.type
        return cls(
            decay_e=network.g_excitatory._decay,
            decay_i=network.g_inhibitory._decay,
            inhibition=np.float64(p.inhibition_strength),
            v_rest=D(lif.v_rest),
            e_excitatory=D(lif.e_excitatory),
            e_inhibitory=D(lif.e_inhibitory),
            k=D(p.dt_ms / lif.tau_membrane_ms),
            v_threshold=D(lif.v_threshold),
            v_reset=D(lif.v_reset),
            dt_ms=D(p.dt_ms),
            refractory_ms=D(lif.refractory_ms),
            theta_decay=network.neurons._theta_decay,
            theta_plus=D(lif.theta_plus),
            trace_decay=stdp._trace_decay,
            one=D(1.0),
        )


def numpy_state_step(
    c: FusedConstants,
    ws: FusedWorkspace,
    drive: np.ndarray,
    g_e: np.ndarray,
    g_i: np.ndarray,
    v: np.ndarray,
    refr: np.ndarray,
    theta: np.ndarray,
    x_pre: np.ndarray,
    last: np.ndarray,
    spikes: np.ndarray,
    counts: np.ndarray,
) -> None:
    """One fused training step, allocation-free.

    Performs exactly the ufunc sequence of ``_step_from_drive`` with
    ``adapt=True`` plus the STDP trace decay/bump — same operations,
    same operand order, written into ``ws``'s scratch
    buffers.  ``ws.pre`` must already hold this step's presynaptic
    spikes; ``spikes`` receives the postsynaptic result (the caller
    swaps ``last``/``spikes`` afterwards, like the inference loop).
    """
    g_e *= c.decay_e
    g_e += drive
    # Lateral inhibition: row totals in int64/float64 exactly as the
    # reference `last.sum(axis=-1, keepdims=True) * inhibition` chain.
    np.sum(last, axis=-1, keepdims=True, out=ws.row_count)
    np.multiply(ws.row_count, c.inhibition, out=ws.row_inh)
    np.multiply(last, c.inhibition, out=ws.s1)
    np.subtract(ws.row_inh, ws.s1, out=ws.s1)
    g_i *= c.decay_i
    g_i += ws.s1
    np.less_equal(refr, 0.0, out=ws.active)
    np.subtract(c.v_rest, v, out=ws.s1)
    np.subtract(c.e_excitatory, v, out=ws.s2)
    ws.s2 *= g_e
    ws.s1 += ws.s2
    np.subtract(c.e_inhibitory, v, out=ws.s2)
    ws.s2 *= g_i
    ws.s1 += ws.s2
    ws.s1 *= c.k
    # Masked write, not `v += dv * active`: a non-finite dv (float32
    # overflow from unclipped corrupted weights) must leave refractory
    # neurons untouched exactly as the reference np.where does.
    ws.s1 += v
    np.copyto(v, ws.s1, where=ws.active)
    np.add(c.v_threshold, theta, out=ws.thr)
    np.greater_equal(v, ws.thr, out=spikes)
    spikes &= ws.active
    # Masked scalar writes: same elements, same values as the
    # boolean-indexed assignments of the reference step, minus the
    # index-array extraction those perform.
    np.copyto(v, c.v_reset, where=spikes)
    refr -= c.dt_ms
    np.maximum(refr, 0.0, out=refr)
    np.copyto(refr, c.refractory_ms, where=spikes)
    theta *= c.theta_decay
    np.add(theta, c.theta_plus, out=theta, where=spikes)
    x_pre *= c.trace_decay
    np.copyto(x_pre, c.one, where=ws.pre)
    counts += spikes


__all__ = [
    "FusedConstants",
    "FusedWorkspace",
    "numpy_state_step",
]
