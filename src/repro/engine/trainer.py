"""The batched minibatch STDP training engine.

:class:`BatchedTrainer` is the training counterpart of
:class:`repro.engine.BatchedEvaluator`: instead of presenting one
sample per Python-loop iteration (encode, step ``n_steps`` times, apply
STDP in place, normalize), it presents a minibatch of ``B`` samples in
one vectorized pass —

1. **Encode** the minibatch in one Poisson draw
   (:func:`repro.engine.encoding.encode_spike_trains`, the rate code
   at :data:`repro.snn.encoding.MAX_RATE_HZ`), consuming exactly the
   random stream of ``B`` per-sample draws;
2. **Read** the weights once per minibatch: the fault-aware hook
   (``corrupt_weights``) produces one corrupted realization per
   minibatch read, modelling one DRAM burst read serving the whole
   batch;
3. **Drives** from the frozen read tensor, streamed in blocks of steps
   with the same sparse CSR ``spikes @ weights`` matmul as the
   evaluator (:meth:`repro.snn.network.DiehlCookNetwork.run_batch_stdp`);
4. **Accumulate** STDP deltas across all lanes and timesteps against
   the frozen tensor, with per-lane adaptive-threshold (theta)
   dynamics.  The time loop is fused and allocation-free: it allocates
   its scratch once per minibatch, before the loop
   (:meth:`~repro.snn.network.DiehlCookNetwork._run_batch_stdp_fused`);
5. **Apply** once per minibatch: the summed delta is credited back to
   the stored clean tensor, clipped to the physical range and
   column-normalized
   (:func:`repro.snn.training.apply_post_sample_update`); theta
   advances by the sum of the per-lane increments.

Exactness contract
------------------
``batch_size=1`` runs the reference sequential presentation — the same
in-place STDP + post-sample update ufunc sequence and the same RNG
stream as the historical sequential training loop
(``reference_sequential_train`` in ``tests/snn_oracle.py``) — and is
therefore **bit-identical** to it (covered by
``tests/test_engine_trainer.py``; the reference's presentations run the
historical per-step loop ``reference_run_sample`` rather than the lean
loop of :meth:`~repro.snn.network.DiehlCookNetwork.run_sample`).

``batch_size>1`` is a *documented approximation*, not an equivalent
reordering: within a minibatch, samples no longer see each other's
weight and theta updates (drives and STDP bounds are evaluated against
the frozen minibatch read, updates are summed and applied once), and
per-step clipping becomes per-minibatch clipping.  The permutation and
encoding draws are still byte-for-byte the sequential stream (a
``corrupt_weights`` hook that draws from the shared generator is the
exception: it is called once per minibatch instead of once per sample,
so fault-aware runs consume fewer injection draws), and the trained
weights differ — which is why ``train_batch_size`` is part of the
pipeline's stage cache fingerprints.  The fused loop itself is exact:
it reproduces the unfused minibatch loop of ``tests/snn_oracle.py`` bit
for bit.  See ``docs/training.md`` for the full semantics.

Encode-once-per-BER-stack amortization
--------------------------------------
Fault-aware training (Algorithm 1) trains the *same* sample stream
through several ascending BER stages.  A :class:`StageEncodingCache`
passed to :meth:`BatchedTrainer.train` records each epoch's
permutation-ordered encoded minibatches (and their CSR drive
operators) on first execution and replays them on every later call —
so an E-stage stack pays the Poisson encoding and sparse-structure
construction once instead of E times.  Replayed stages skip the
permutation and encoding draws, so the RNG stream differs from fresh
re-encoding: ``stage_encoding`` is a result-changing, fingerprinted
config knob (see ``docs/training.md``).
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.engine.encoding import EncodedMinibatch, encode_spike_trains
from repro.rng import ensure_rng
from repro.snn.encoding import poisson_rate_code
from repro.snn.network import DiehlCookNetwork, make_stdp
from repro.snn.stdp import STDPParameters
from repro.snn.training import apply_post_sample_update
from repro.telemetry import get_metrics, span

#: Valid values of the ``stage_encoding`` switch (config layer mirrors
#: this tuple; see SparkXDConfig.stage_encoding).
STAGE_ENCODINGS = ("fresh", "shared")


class StageEncodingCache:
    """Replayable record of one training call's encoded sample stream.

    Records, per epoch, the permutation-ordered
    :class:`~repro.engine.encoding.EncodedMinibatch` sequence of the
    first :meth:`BatchedTrainer.train` call it participates in, and
    replays it verbatim for every later call — the
    encode-once-per-BER-stack amortization of fault-aware training.
    The first (recording) call is bit-identical to running without the
    cache; replaying calls skip the permutation and encoding draws.

    Memory holds every encoded epoch: roughly
    ``epochs x n_train x n_steps x n_input`` bytes of boolean trains
    plus the cached CSR operators (similar size) — sized for the
    CPU-scale reproductions this repo targets, not for full MNIST.
    """

    def __init__(self):
        self._epochs: List[List[EncodedMinibatch]] = []

    def __len__(self) -> int:
        return len(self._epochs)

    def has_epoch(self, epoch: int) -> bool:
        return epoch < len(self._epochs)

    def minibatches(self, epoch: int) -> Tuple[EncodedMinibatch, ...]:
        return tuple(self._epochs[epoch])

    def record_epoch(self, epoch: int, minibatches: List[EncodedMinibatch]) -> None:
        if epoch != len(self._epochs):
            raise ValueError(
                f"epochs must be recorded in order; expected epoch "
                f"{len(self._epochs)}, got {epoch}"
            )
        self._epochs.append(list(minibatches))


class BatchedTrainer:
    """Minibatch STDP training of one (unbatched) network.

    Samples are presented as Poisson rate-coded spike trains
    (:func:`~repro.snn.encoding.poisson_rate_code`, firing at most
    :data:`~repro.snn.encoding.MAX_RATE_HZ`), the only encoder.

    Parameters
    ----------
    network:
        The live :class:`~repro.snn.network.DiehlCookNetwork` being
        trained (``batch_shape=()``).  Weights and adaptive thresholds
        are updated in place; the compute dtype follows the network's.
    stdp_parameters:
        Constants of the plasticity rule; defaults to the rule sized
        for ``network`` (see :func:`repro.snn.network.make_stdp`).
    batch_size:
        Samples per presentation.  ``1`` (default) is the bit-exact
        sequential reference; larger values trade exactness for one
        vectorized pass per minibatch (see module docstring).
    corrupt_weights:
        Fault-aware read hook: maps the stored clean tensor to what a
        DRAM read returns.  Called once per presentation — per sample
        at ``batch_size=1``, per minibatch otherwise.
    """

    def __init__(
        self,
        network: DiehlCookNetwork,
        stdp_parameters: Optional[STDPParameters] = None,
        batch_size: int = 1,
        corrupt_weights: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    ):
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if network.batch_shape != ():
            raise ValueError(
                "BatchedTrainer trains an unbatched network "
                f"(batch_shape {network.batch_shape})"
            )
        self.network = network
        self.batch_size = int(batch_size)
        self.corrupt_weights = corrupt_weights
        self.stdp = make_stdp(network, stdp_parameters)

    # ------------------------------------------------------------------
    def train(
        self,
        images: np.ndarray,
        n_steps: int,
        epochs: int = 1,
        rng: Optional[np.random.Generator] = None,
        encoding_cache: Optional[StageEncodingCache] = None,
    ) -> None:
        """Run the full training loop over ``images`` in place.

        Every epoch draws one sample permutation from ``rng`` and then
        encodes samples in permutation order — the identical stream
        whether presentations happen one at a time or per minibatch.

        ``encoding_cache`` (minibatch mode only) records this call's
        encoded epochs, or — if it already holds them — replays the
        recorded stream instead of drawing permutations and encodings
        (see :class:`StageEncodingCache`).
        """
        if n_steps <= 0:
            raise ValueError(f"n_steps must be > 0, got {n_steps}")
        if epochs <= 0:
            raise ValueError(f"epochs must be > 0, got {epochs}")
        if encoding_cache is not None and self.batch_size == 1:
            raise ValueError(
                "encoding_cache requires batch_size > 1: the bit-exact "
                "sequential reference always re-encodes (stage_encoding="
                "'shared' is a minibatch-mode approximation)"
            )
        rng = ensure_rng(rng)
        images = np.asarray(images)
        for epoch in range(epochs):
            with span(
                "train.epoch",
                epoch=epoch,
                batch_size=self.batch_size,
                samples=len(images),
            ):
                if encoding_cache is not None and encoding_cache.has_epoch(epoch):
                    for prepared in encoding_cache.minibatches(epoch):
                        self.present_minibatch(None, n_steps, rng, prepared=prepared)
                    continue
                order = rng.permutation(len(images))
                if self.batch_size == 1:
                    for i in order:
                        self.present_sample(images[i], n_steps, rng)
                else:
                    recorded: Optional[List[EncodedMinibatch]] = (
                        [] if encoding_cache is not None else None
                    )
                    for start in range(0, len(order), self.batch_size):
                        batch = order[start : start + self.batch_size]
                        prepared = self.present_minibatch(images[batch], n_steps, rng)
                        if recorded is not None:
                            recorded.append(prepared)
                    if recorded is not None:
                        encoding_cache.record_epoch(epoch, recorded)

    # ------------------------------------------------------------------
    def present_sample(
        self, image: np.ndarray, n_steps: int, rng: np.random.Generator
    ) -> None:
        """The reference sequential presentation (``batch_size=1`` path).

        Preserves the historical loop exactly: encode, run with in-place
        STDP (the network computes with the corrupted read under the
        fault-aware hook), credit deltas back to the stored clean
        tensor, clip, normalize.  Under the hook the network trains a
        private copy of the read; the write-back credits only the columns
        STDP changed and turns that copy, in place, into the new clean
        tensor, so neither the read nor the old clean tensor is written.
        """
        net = self.network
        train = poisson_rate_code(image, n_steps, rng=rng)
        if self.corrupt_weights is not None:
            # The network computes with the *corrupted* weights (what a
            # DRAM read returns); the STDP deltas it produces are then
            # credited back to the stored clean tensor (what the
            # training write-back updates).
            clean = net.weights
            read = self.corrupt_weights(clean)
            net.weights = np.array(read, dtype=net.dtype, order="C")
            counts = net.run_sample(train, self.stdp)
            apply_post_sample_update(
                net, base=clean, read=read, columns=np.flatnonzero(counts)
            )
        else:
            net.run_sample(train, self.stdp)
            apply_post_sample_update(net)

    def present_minibatch(
        self,
        images: Optional[np.ndarray],
        n_steps: int,
        rng: np.random.Generator,
        prepared: Optional[EncodedMinibatch] = None,
    ) -> EncodedMinibatch:
        """One vectorized minibatch presentation (``batch_size>1`` path).

        ``prepared`` replays an already-encoded minibatch (the
        :class:`StageEncodingCache` flow) instead of encoding
        ``images``; either way the presented
        :class:`~repro.engine.encoding.EncodedMinibatch` — trains plus
        lazily-built sparse drive operator — is returned so callers can
        record it.

        Each call builds its own shell network and batched rule: neither
        carries state from one presentation to the next, and a shell
        built with ``init_weights=False`` draws nothing from the RNG.
        """
        net = self.network
        if prepared is None:
            trains = encode_spike_trains(images, n_steps, rng)
            prepared = EncodedMinibatch(trains=trains)
        trains = prepared.trains
        n_batch = trains.shape[0]
        shell = DiehlCookNetwork(
            net.parameters,
            w_max=net.w_max,
            batch_shape=(n_batch,),
            init_weights=False,
            dtype=net.dtype,
        )
        stdp = make_stdp(net, self.stdp.parameters, batch_shape=(n_batch,))
        if prepared.matrix is None:
            prepared.matrix = shell.prepare_drive_matrix(trains)
        clean = net.weights
        if self.corrupt_weights is not None:
            # One corrupted realization per minibatch read: the whole
            # batch computes from the same faulty DRAM read.
            read = np.asarray(self.corrupt_weights(clean), dtype=net.dtype)
        else:
            read = clean
        theta0 = np.asarray(net.theta, dtype=net.dtype).reshape(-1)
        shell.theta = np.broadcast_to(theta0, shell.state_shape).copy()
        shell.set_weights(read)
        delta = np.zeros_like(clean)
        kernel_t0 = time.perf_counter()
        shell.run_batch_stdp(trains, stdp, delta, matrix=prepared.matrix)
        get_metrics().histogram("engine.kernel_step_s").observe(
            time.perf_counter() - kernel_t0
        )
        # Homeostasis: every lane's theta advanced independently from
        # theta0; the stored thresholds take the summed increments, the
        # minibatch analogue of B successive per-sample adaptations.
        net.theta = theta0 + (shell.theta - theta0).sum(axis=0)
        apply_post_sample_update(net, delta=delta, base=clean)
        return prepared
