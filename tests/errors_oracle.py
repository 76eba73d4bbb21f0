"""Reference flip samplers: the oracles the error models and injector must match.

The production models sample the structured error models (Model-1,
Model-2, EDEN) only at their thinning candidates, and the injector flips
and decodes the word buffers it owns.  The per-bit forms they replaced
live here, verbatim, so tests and ``benchmarks/perf_training.py --quick``
can compare flips, corrupted weights and random-stream end states byte
for byte:

- :class:`ReferenceBitContext` — the dataclass of explicit per-bit
  arrays every model used to read;
- :func:`reference_context_for` — ``ErrorInjector._context_for`` as it
  was: it materialises positions, line ids and unpacked stored values
  for every bit of a region;
- :func:`reference_sample_flips` — the historical ``sample_flips``
  bodies of Model-0 … Model-3 and EDEN over that context;
- :class:`OracleInjector` — an :class:`ErrorInjector` whose ``_inject``
  is the historical body (out-of-place ``flip_bits`` and ``decode``) on
  the reference context and samplers.  Its public ``inject_uniform``,
  ``inject_by_region`` and ``inject_stack`` are the library's.

One deliberate correction: the historical injector handed a
data-dependent model the first ``n_weights`` stored words of an
ECC-protected tensor and read bit ``c`` as bit ``c % bits_per_weight``
of word ``c // bits_per_weight`` — but ECC stores one bit per word.
:class:`OracleInjector` forms the bit space from the representation's
``word_bits`` instead (identical for every representation that stores
one word per weight).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.errors.injection import ErrorInjector, InjectionReport
from repro.errors.models import ONE_TO_ZERO_RATIO


@dataclass(frozen=True)
class ReferenceBitContext:
    """Bits of one equal-base-rate region, with their DRAM geometry.

    ``n_bits`` bits are indexed ``0 … n_bits-1`` in data order.
    ``bitline_of`` / ``wordline_of`` give each bit's physical lane and
    row; the injector derives them from the mapping.  ``values`` is the
    current content of each bit (only required by Model-3).
    """

    n_bits: int
    base_rate: float
    bitline_of: Optional[np.ndarray] = None
    wordline_of: Optional[np.ndarray] = None
    values: Optional[np.ndarray] = None


def reference_binomial_positions(n_bits, rate, rng):
    """Draw Binomial(n, p) flip count, then uniform distinct positions."""
    if n_bits == 0 or rate <= 0.0:
        return np.empty(0, dtype=np.int64)
    if rate >= 1.0:
        return np.arange(n_bits, dtype=np.int64)
    count = rng.binomial(n_bits, rate)
    if count == 0:
        return np.empty(0, dtype=np.int64)
    return np.sort(rng.choice(n_bits, size=count, replace=False).astype(np.int64))


def reference_unit_factors(model, unit_ids):
    """Deterministic lognormal severity per structural unit id."""
    rng = np.random.default_rng(0)
    # Draw enough factors to cover the largest unit id seen.
    factors = rng.lognormal(mean=0.0, sigma=model.sigma, size=int(unit_ids.max()) + 1)
    per_bit = factors[unit_ids]
    mean = per_bit.mean()
    return per_bit / mean if mean > 0 else per_bit


def _reference_structured_flips(model, context, unit_ids, rng):
    if context.n_bits == 0 or context.base_rate <= 0:
        return np.empty(0, dtype=np.int64)
    probabilities = np.clip(
        context.base_rate * reference_unit_factors(model, unit_ids), 0.0, 1.0
    )
    # Thinning: draw from the max rate, then accept proportionally.
    p_max = float(probabilities.max())
    candidates = reference_binomial_positions(context.n_bits, p_max, rng)
    if candidates.size == 0:
        return candidates
    accept = rng.random(candidates.size) < probabilities[candidates] / p_max
    return candidates[accept]


def _reference_model3(model, context, rng):
    if context.values is None:
        raise ValueError("ErrorModel3 requires BitContext.values")
    if context.n_bits == 0 or context.base_rate <= 0:
        return np.empty(0, dtype=np.int64)
    r = ONE_TO_ZERO_RATIO
    p_one = min(1.0, context.base_rate * 2.0 * r / (r + 1.0))
    p_zero = min(1.0, context.base_rate * 2.0 / (r + 1.0))
    ones = np.flatnonzero(context.values != 0)
    zeros = np.flatnonzero(context.values == 0)
    pick_ones = reference_binomial_positions(ones.size, p_one, rng)
    pick_zeros = reference_binomial_positions(zeros.size, p_zero, rng)
    flips = np.concatenate([ones[pick_ones], zeros[pick_zeros]])
    return np.sort(flips.astype(np.int64))


def _reference_eden(model, context, rng):
    if context.wordline_of is None:
        raise ValueError("ErrorModelEden requires BitContext.wordline_of")
    if context.values is None:
        raise ValueError("ErrorModelEden requires BitContext.values")
    if context.n_bits == 0 or context.base_rate <= 0:
        return np.empty(0, dtype=np.int64)
    r = ONE_TO_ZERO_RATIO
    value_factor = np.where(
        context.values != 0, 2.0 * r / (r + 1.0), 2.0 / (r + 1.0)
    )
    probabilities = np.clip(
        context.base_rate
        * reference_unit_factors(model, context.wordline_of)
        * value_factor,
        0.0,
        1.0,
    )
    # Thinning: draw from the max rate, then accept proportionally.
    p_max = float(probabilities.max())
    candidates = reference_binomial_positions(context.n_bits, p_max, rng)
    if candidates.size == 0:
        return candidates
    accept = rng.random(candidates.size) < probabilities[candidates] / p_max
    return candidates[accept]


def reference_sample_flips(model, context, rng):
    """The historical ``model.sample_flips(context, rng)``, by model name."""
    if model.name == "model0":
        return reference_binomial_positions(context.n_bits, context.base_rate, rng)
    if model.name == "model1":
        if context.bitline_of is None:
            raise ValueError("ErrorModel1 requires BitContext.bitline_of")
        return _reference_structured_flips(model, context, context.bitline_of, rng)
    if model.name == "model2":
        if context.wordline_of is None:
            raise ValueError("ErrorModel2 requires BitContext.wordline_of")
        return _reference_structured_flips(model, context, context.wordline_of, rng)
    if model.name == "model3":
        return _reference_model3(model, context, rng)
    if model.name == "eden":
        return _reference_eden(model, context, rng)
    raise ValueError(f"no reference sampler for {model.name!r}")


#: The optional :class:`BitContext` fields each model reads, by name.
CONTEXT_FIELDS = {
    "model1": ("bitline_of",),
    "model2": ("wordline_of",),
    "model3": ("values",),
    "eden": ("wordline_of", "values"),
}


def reference_context_for(injector, member_words, bpw, rate):
    """The historical ``ErrorInjector._context_for``, verbatim."""
    n_bits = member_words.size * bpw
    fields = CONTEXT_FIELDS.get(injector.model.name, ())
    needs_lanes = "bitline_of" in fields
    needs_rows = "wordline_of" in fields
    needs_values = "values" in fields
    bitline_of = wordline_of = values = None
    if needs_lanes or needs_rows:
        # Bits of consecutive member weights stream into consecutive
        # DRAM columns; lane = position within the column width,
        # wordline advances every row_bits bits.
        positions = np.arange(n_bits, dtype=np.int64)
        if needs_lanes:
            bitline_of = positions % injector.lane_bits
        if needs_rows:
            wordline_of = positions // injector.row_bits
    if needs_values:
        # Bit b of a word is bit b % 8 of its little-endian byte b // 8;
        # bits past the word's width read as 0.
        word_dtype = member_words.dtype
        width = 8 * word_dtype.itemsize
        little = member_words.astype(word_dtype.newbyteorder("<"), copy=False)
        bits = np.unpackbits(little.view(np.uint8), bitorder="little")
        bits = bits.reshape(member_words.size, width)
        if width < bpw:
            bits = np.pad(bits, ((0, 0), (0, bpw - width)))
        values = bits[:, :bpw].ravel()
    return ReferenceBitContext(
        n_bits=n_bits,
        base_rate=rate,
        bitline_of=bitline_of,
        wordline_of=wordline_of,
        values=values,
    )


class OracleInjector(ErrorInjector):
    """:class:`ErrorInjector` on the historical per-bit injection path."""

    def _inject(self, weights, regions, rng):
        rng = rng if rng is not None else self._rng
        weights = np.asarray(weights)
        n_weights = int(weights.size)
        rep = self.representation
        bpw = rep.bits_per_weight
        words_flat = np.ravel(rep.encode(weights))
        # The correction (see the module docstring): each weight owns
        # bpw // word_bits stored words of word_bits bits each.
        word_bits = rep.word_bits
        per_weight = bpw // word_bits
        stored = words_flat[: n_weights * per_weight].reshape(n_weights, per_weight)

        all_flips: list[np.ndarray] = []
        per_region: Dict[int, int] = {}
        mean_rate = 0.0
        for region, rate, members in regions:
            if members is None:
                member_words = stored.ravel()
            else:
                member_words = stored[members].ravel()
            context = reference_context_for(self, member_words, word_bits, rate)
            mean_rate += rate * context.n_bits
            local_flips = reference_sample_flips(self.model, context, rng)
            per_region[region] = int(local_flips.size)
            if local_flips.size:
                if members is not None:
                    # local bit index -> (member weight, bit) -> global bit
                    local_flips = members[local_flips // bpw] * bpw + local_flips % bpw
                all_flips.append(local_flips)

        total_bits = n_weights * bpw
        if all_flips:
            flat_bits = np.concatenate(all_flips)
            corrupted_words = rep.flip_bits(words_flat, flat_bits)
        else:
            flat_bits = np.empty(0, dtype=np.int64)
            corrupted_words = words_flat
        corrupted = rep.decode(corrupted_words).reshape(weights.shape)
        report = InjectionReport(
            total_bits=total_bits,
            flipped_bits=int(flat_bits.size),
            requested_ber=mean_rate / total_bits if total_bits else 0.0,
            per_region_flips=per_region,
        )
        return corrupted, report
