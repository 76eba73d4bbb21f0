"""The four probabilistic error models of Section III.

All four models follow the EDEN characterisation of real approximate
DRAM.  Each one answers the same question — *which stored bits flip?* —
but with a different spatial structure:

- **Model-0** — uniform random across a DRAM bank.  The product of the
  weak-cell density and the per-weak-cell failure probability is the bit
  error rate; every bit is equally likely to flip.
- **Model-1** — *vertical* structure: error probability varies per
  **bitline**; weak bitlines concentrate the flips.
- **Model-2** — *horizontal* structure: error probability varies per
  **wordline** (row).
- **Model-3** — *data-dependent*: uniform random, but bits currently
  holding ``1`` fail with a different probability than bits holding
  ``0`` (true-cell vs anti-cell asymmetry).

SparkXD itself uses Model-0 (fast software injection, good approximation
of the others — Section III), but all four are implemented so the
ablation benchmark can compare them.

Every model receives a :class:`BitContext` describing the bits of one
*region* that shares a base error rate (in practice: the bits mapped to
one subarray), and returns the flat indices of the bits that flip.  The
structured models evaluate their per-bit probabilities only at the
thinning candidates, so a read costs O(stored words + candidates).
"""

from __future__ import annotations

import abc
import mmap
from typing import Optional

import numpy as np

from repro.registry import Registry


class BitContext:
    """Bits of one equal-base-rate region, with their DRAM geometry.

    ``n_bits`` bits are indexed ``0 … n_bits-1`` in data order, described
    field by field either by explicit per-bit arrays (``bitline_of``,
    ``wordline_of``, ``values``; irregular ones included) or by the
    geometry the injector passes: bit ``c`` is bit ``c % word_bits`` of
    stored word ``c // word_bits`` (0 past the word's width), on bitline
    ``c % lane_bits`` and wordline ``c // row_bits``.  Models sample
    through the query methods, which the geometry form answers in
    O(stored words + positions asked) and the explicit form by indexing;
    the per-bit attributes stay readable (derived in the geometry form).
    """

    def __init__(
        self, n_bits: int, base_rate: float, bitline_of=None, wordline_of=None,
        values=None, *, words=None, word_bits: int = 0, lane_bits=None, row_bits=None,
    ):
        if n_bits < 0:
            raise ValueError(f"n_bits must be >= 0, got {n_bits}")
        if not 0.0 <= base_rate <= 1.0:
            raise ValueError(f"base_rate must be in [0, 1], got {base_rate}")
        self.n_bits, self.base_rate = n_bits, base_rate
        self._arrays = {"bitline_of": bitline_of, "wordline_of": wordline_of, "values": values}
        for name, arr in self._arrays.items():
            if arr is not None and arr.shape != (n_bits,):
                raise ValueError(f"{name} must have shape ({n_bits},)")
        self._spans = {"bitline_of": lane_bits, "wordline_of": row_bits}
        self._words, self._word_bits = words, word_bits
        if words is not None and words.size * word_bits != n_bits:
            raise ValueError(f"{words.size} words of {word_bits} bits are not {n_bits} bits")
        if words is not None and 8 * words.dtype.itemsize > word_bits:
            # Only the low word_bits bits of a word are in the bit space.
            self._words = words & words.dtype.type((1 << word_bits) - 1)

    bitline_of = property(lambda self: self._array("bitline_of"))
    wordline_of = property(lambda self: self._array("wordline_of"))
    values = property(lambda self: self._array("values"))

    def _array(self, name: str) -> Optional[np.ndarray]:
        """The explicit per-bit array, or one derived from the geometry."""
        if self._arrays[name] is not None or not self.provides(name):
            return self._arrays[name]
        if name != "values":
            return self.lines_at(name, np.arange(self.n_bits, dtype=np.int64))
        # Bit b of a word is bit b % 8 of its little-endian byte b // 8;
        # bits past the word's width read as 0.
        words, word_bits = self._words, self._word_bits
        width = 8 * words.dtype.itemsize
        little = words.astype(words.dtype.newbyteorder("<"), copy=False)
        bits = np.unpackbits(little.view(np.uint8), bitorder="little")
        bits = bits.reshape(words.size, width)
        if width < word_bits:
            bits = np.pad(bits, ((0, 0), (0, word_bits - width)))
        return bits[:, :word_bits].ravel()

    def provides(self, name: str) -> bool:
        """Whether the per-bit attribute ``name`` is explicit or derivable."""
        derivable = self._words if name == "values" else self._spans[name]
        return self._arrays[name] is not None or derivable is not None

    def span(self, name: str) -> Optional[int]:
        """The geometry span of a line axis, or ``None`` if it is explicit."""
        return None if self._arrays[name] is not None else self._spans[name]

    def n_lines(self, name: str) -> int:
        """One past the largest line id."""
        span = self.span(name)
        if span is None:
            return int(self._arrays[name].max()) + 1
        return min(self.n_bits, span) if name == "bitline_of" else (self.n_bits - 1) // span + 1

    def line_mean(self, name: str, table: np.ndarray) -> float:
        """Mean of ``table[line id]`` over every bit, from the per-bit
        array (numpy sums pairwise).  The geometry form builds it in an
        anonymous mapping: freed to malloc, a one-off temporary this large
        raises glibc's mmap threshold and +20 MB of ``grid-sweep`` peak RSS."""
        span = self.span(name)
        if span is None:
            return table[self._arrays[name]].mean()
        width = span if name == "wordline_of" else table.size
        rows = -(-self.n_bits // width)
        grid = np.frombuffer(mmap.mmap(-1, 8 * rows * width)).reshape(rows, width)
        grid[:] = table[:, None] if name == "wordline_of" else table
        return grid.reshape(-1)[: self.n_bits].mean()

    def lines_at(self, name: str, positions: np.ndarray) -> np.ndarray:
        """Line ids of the bits at ``positions``."""
        span = self.span(name)
        if span is None:
            return self._arrays[name][positions]
        return positions % span if name == "bitline_of" else positions // span

    def values_at(self, positions: np.ndarray) -> np.ndarray:
        """Whether each bit at ``positions`` stores a 1."""
        if self._arrays["values"] is not None:
            return self._arrays["values"][positions] != 0
        words = self._words[positions // self._word_bits].astype(np.uint64)
        shifts = (positions % self._word_bits).astype(np.uint64)
        return ((words >> shifts) & np.uint64(1)) != 0

    def line_presence(self, name: str, by_value: bool = False) -> np.ndarray:
        """Which lines hold bits, ``(n_lines,)``; with ``by_value``,
        ``(2, n_lines)``: row 0 holds a 0, row 1 holds a 1."""
        span, n_lines = self.span(name), self.n_lines(name)
        if span is not None and not by_value:
            return np.ones(n_lines, dtype=bool)  # consecutive bits: every line
        if span is not None and name == "wordline_of" and self._arrays["values"] is None:
            # A wordline is a run of consecutive bits: count its 1-bits
            # from a per-word popcount prefix plus the partial head word.
            bounds = np.minimum(np.arange(n_lines + 1, dtype=np.int64) * span, self.n_bits)
            words = self._words
            prefix = np.concatenate(([0], np.cumsum(np.bitwise_count(words), dtype=np.int64)))
            index, shift = np.divmod(bounds, self._word_bits)
            head = words[np.minimum(index, words.size - 1)].astype(np.uint64)
            mask = (np.uint64(1) << shift.astype(np.uint64)) - np.uint64(1)
            ones = np.diff(prefix[index] + np.bitwise_count(head & mask))
            return np.stack([ones < np.diff(bounds), ones > 0])
        lines = self._array(name)
        if not by_value:
            return np.bincount(lines, minlength=n_lines) > 0
        one = self._array("values") != 0
        return np.stack([np.bincount(lines[m], minlength=n_lines) > 0 for m in (~one, one)])


class ErrorModel(abc.ABC):
    """Base class: sample the flat indices of flipped bits in a region."""

    name: str = "base"
    #: Optional :class:`BitContext` fields this model reads
    #: (``"bitline_of"``, ``"wordline_of"``, ``"values"``).
    context_fields: tuple = ()

    @abc.abstractmethod
    def sample_flips(self, context: BitContext, rng: np.random.Generator) -> np.ndarray:
        """Return sorted unique flat bit indices that flip."""

    @staticmethod
    def _binomial_positions(
        n_bits: int, rate: float, rng: np.random.Generator
    ) -> np.ndarray:
        """Draw Binomial(n, p) flip count, then uniform distinct positions.

        Exactly equivalent to n independent Bernoulli draws but O(count)
        instead of O(n) for the small rates the paper sweeps (10⁻⁹…10⁻³).
        """
        if n_bits == 0 or rate <= 0.0:
            return np.empty(0, dtype=np.int64)
        if rate >= 1.0:
            return np.arange(n_bits, dtype=np.int64)
        count = rng.binomial(n_bits, rate)
        if count == 0:
            return np.empty(0, dtype=np.int64)
        return np.sort(rng.choice(n_bits, size=count, replace=False).astype(np.int64))


class ErrorModel0(ErrorModel):
    """Uniform random errors across the bank (the model SparkXD uses)."""

    name = "model0"

    def sample_flips(self, context: BitContext, rng: np.random.Generator) -> np.ndarray:
        return self._binomial_positions(context.n_bits, context.base_rate, rng)


class _StructuredModel(ErrorModel):
    """Shared machinery for per-bitline / per-wordline severity.

    Severity factors for each structural unit are drawn per unit id from
    a deterministic per-model stream, then normalised so the *mean*
    error rate stays equal to the base rate (the structure redistributes
    errors, it does not add them); they are memoized per geometry.
    Thinning draws Binomial(n_bits, p_max) candidates and accepts each
    with probability ``p / p_max``: ``p_max`` is a maximum over the (line,
    stored value) pairs that occur, and ``p`` is evaluated at candidates.
    """

    def __init__(self, sigma: float = 1.0, structure_seed: int = 0):
        if sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {sigma}")
        self.sigma = sigma
        self.structure_seed = structure_seed
        self._factor_memo: dict = {}

    def _unit_factors(self, unit_ids: np.ndarray) -> np.ndarray:
        """Deterministic lognormal severity of every bit, by unit id."""
        context = BitContext(unit_ids.size, 0.0, wordline_of=unit_ids)
        return self._line_factors(context, "wordline_of")[unit_ids]

    def _line_factors(self, context: BitContext, name: str) -> np.ndarray:
        """Severity per line id, normalised to a per-bit mean of 1."""
        span = context.span(name)
        key = (name, context.n_bits, span, self.sigma, self.structure_seed)
        factors = self._factor_memo.get(key)
        if factors is None:
            rng = np.random.default_rng(self.structure_seed)
            # Draw enough factors to cover the largest unit id seen.
            factors = rng.lognormal(mean=0.0, sigma=self.sigma, size=context.n_lines(name))
            mean = context.line_mean(name, factors)
            factors = factors / mean if mean > 0 else factors
            if span is not None:  # geometry-form lines: a pure function of key
                self._factor_memo[key] = factors
        return factors

    def _structured_flips(
        self, context: BitContext, name: str, rng: np.random.Generator, value_factors=None
    ) -> np.ndarray:
        """Thinned flips; ``value_factors`` scales bits storing (0, 1)."""
        if context.n_bits == 0 or context.base_rate <= 0:
            return np.empty(0, dtype=np.int64)
        rates = context.base_rate * self._line_factors(context, name)
        by_value = value_factors is not None
        table = rates * np.array(value_factors)[:, None] if by_value else rates
        present = context.line_presence(name, by_value)
        p_max = float(np.clip(table[present], 0.0, 1.0).max())
        candidates = self._binomial_positions(context.n_bits, p_max, rng)
        if candidates.size == 0:
            return candidates
        probabilities = rates[context.lines_at(name, candidates)]
        if by_value:
            zero, one = value_factors
            probabilities = probabilities * np.where(context.values_at(candidates), one, zero)
        accept = rng.random(candidates.size) < np.clip(probabilities, 0.0, 1.0) / p_max
        return candidates[accept]


class ErrorModel1(_StructuredModel):
    """Vertical distribution: severity varies across bitlines."""

    name = "model1"
    context_fields = ("bitline_of",)

    def sample_flips(self, context: BitContext, rng: np.random.Generator) -> np.ndarray:
        if not context.provides("bitline_of"):
            raise ValueError("ErrorModel1 requires BitContext.bitline_of")
        return self._structured_flips(context, "bitline_of", rng)


class ErrorModel2(_StructuredModel):
    """Horizontal distribution: severity varies across wordlines."""

    name = "model2"
    context_fields = ("wordline_of",)

    def sample_flips(self, context: BitContext, rng: np.random.Generator) -> np.ndarray:
        if not context.provides("wordline_of"):
            raise ValueError("ErrorModel2 requires BitContext.wordline_of")
        return self._structured_flips(context, "wordline_of", rng)


class ErrorModel3(ErrorModel):
    """Data-dependent errors: ``1`` bits and ``0`` bits fail differently.

    ``one_to_zero_ratio`` is the relative failure likelihood of a bit
    holding 1 versus a bit holding 0.  Rates are scaled so that the
    overall expected BER equals the base rate on balanced data.
    """

    name = "model3"
    context_fields = ("values",)

    def __init__(self, one_to_zero_ratio: float = 4.0):
        if one_to_zero_ratio <= 0:
            raise ValueError(f"ratio must be > 0, got {one_to_zero_ratio}")
        self.one_to_zero_ratio = one_to_zero_ratio

    def sample_flips(self, context: BitContext, rng: np.random.Generator) -> np.ndarray:
        if not context.provides("values"):
            raise ValueError("ErrorModel3 requires BitContext.values")
        if context.n_bits == 0 or context.base_rate <= 0:
            return np.empty(0, dtype=np.int64)
        r = self.one_to_zero_ratio
        p_one = min(1.0, context.base_rate * 2.0 * r / (r + 1.0))
        p_zero = min(1.0, context.base_rate * 2.0 / (r + 1.0))
        values = context.values  # derived from the words in the geometry form
        ones = np.flatnonzero(values != 0)
        zeros = np.flatnonzero(values == 0)
        pick_ones = self._binomial_positions(ones.size, p_one, rng)
        pick_zeros = self._binomial_positions(zeros.size, p_zero, rng)
        flips = np.concatenate([ones[pick_ones], zeros[pick_zeros]])
        return np.sort(flips.astype(np.int64))


class ErrorModelEden(_StructuredModel):
    """EDEN-style composite variant: row severity × cell asymmetry.

    The EDEN characterisation observes that real reduced-voltage DRAM
    combines *both* spatial structure (weak rows concentrate failures)
    and data dependence (true-cells holding ``1`` fail more often than
    anti-cells holding ``0``).  This model composes Model-2's
    per-wordline lognormal severity with Model-3's value asymmetry,
    normalised so the expected BER on balanced data stays at the base
    rate — structure redistributes errors, it does not add them.
    """

    name = "eden"
    context_fields = ("wordline_of", "values")

    def __init__(
        self,
        sigma: float = 0.6,
        structure_seed: int = 0,
        one_to_zero_ratio: float = 4.0,
    ):
        super().__init__(sigma=sigma, structure_seed=structure_seed)
        if one_to_zero_ratio <= 0:
            raise ValueError(f"ratio must be > 0, got {one_to_zero_ratio}")
        self.one_to_zero_ratio = one_to_zero_ratio

    def sample_flips(self, context: BitContext, rng: np.random.Generator) -> np.ndarray:
        if not context.provides("wordline_of"):
            raise ValueError("ErrorModelEden requires BitContext.wordline_of")
        if not context.provides("values"):
            raise ValueError("ErrorModelEden requires BitContext.values")
        r = self.one_to_zero_ratio
        return self._structured_flips(
            context, "wordline_of", rng, value_factors=(2.0 / (r + 1.0), 2.0 * r / (r + 1.0))
        )


#: Registry of the Section III error models; new spatial structures
#: plug in with ``@ERROR_MODELS.register("model4")`` and are then
#: constructible by name everywhere (CLI, sweeps, ablations).
ERROR_MODELS = Registry("error model")
ERROR_MODELS.register("model0", ErrorModel0, aliases=("uniform",))
ERROR_MODELS.register("model1", ErrorModel1, aliases=("bitline", "vertical"))
ERROR_MODELS.register("model2", ErrorModel2, aliases=("wordline", "horizontal"))
ERROR_MODELS.register("model3", ErrorModel3, aliases=("data-dependent",))
ERROR_MODELS.register("eden", ErrorModelEden, aliases=("model4", "eden-composite"))


def make_error_model(name: str, **kwargs) -> ErrorModel:
    """Construct an error model by its paper name ('model0' … 'model3')."""
    key = name.lower().replace("-", "").replace("_", "").replace("errormodel", "model")
    if key not in ERROR_MODELS:
        key = name
    return ERROR_MODELS.get(key)(**kwargs)
