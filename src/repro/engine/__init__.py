"""Batched vectorized evaluation engine.

One simulation pass for many samples and many error realizations: the
paper's tolerance curves (Fig. 8) and accuracy-vs-BER sweeps (Fig. 11)
evaluate one trained network under dozens of corrupted weight copies —
this package turns those N independent slow loops into a single
vectorized pass over ``(E, B, n_neurons)`` state, with chunking to
bound peak memory.  Spike counts are bit-identical to the per-sample
loop at the same seed; :class:`BatchedTrainer` is the minibatch
training counterpart.

See ``docs/engine.md`` for the batching model and ``docs/training.md``
for training.
"""

from repro.engine.chunking import ChunkPolicy
from repro.engine.encoding import encode_spike_trains
from repro.engine.evaluator import BatchedEvaluator
from repro.engine.trainer import BatchedTrainer

__all__ = [
    "BatchedEvaluator",
    "BatchedTrainer",
    "ChunkPolicy",
    "encode_spike_trains",
]
