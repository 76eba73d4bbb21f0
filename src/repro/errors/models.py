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
one subarray), and returns the flat indices of the bits that flip.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.registry import Registry


@dataclass(frozen=True)
class BitContext:
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

    def __post_init__(self):
        if self.n_bits < 0:
            raise ValueError(f"n_bits must be >= 0, got {self.n_bits}")
        if not 0.0 <= self.base_rate <= 1.0:
            raise ValueError(f"base_rate must be in [0, 1], got {self.base_rate}")
        for name in ("bitline_of", "wordline_of", "values"):
            arr = getattr(self, name)
            if arr is not None and arr.shape != (self.n_bits,):
                raise ValueError(f"{name} must have shape ({self.n_bits},)")


class ErrorModel(abc.ABC):
    """Base class: sample the flat indices of flipped bits in a region."""

    name: str = "base"
    #: Optional :class:`BitContext` fields this model reads
    #: (``"bitline_of"``, ``"wordline_of"``, ``"values"``).  The
    #: injector only materialises what the model declares.
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

    Severity factors for each structural unit are drawn lazily per unit
    id from a deterministic per-model stream, then normalised so the
    *mean* error rate stays equal to the base rate (the structure
    redistributes errors, it does not add them).
    """

    def __init__(self, sigma: float = 1.0, structure_seed: int = 0):
        if sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {sigma}")
        self.sigma = sigma
        self.structure_seed = structure_seed

    def _unit_factors(self, unit_ids: np.ndarray) -> np.ndarray:
        """Deterministic lognormal severity per structural unit id."""
        rng = np.random.default_rng(self.structure_seed)
        # Draw enough factors to cover the largest unit id seen.
        factors = rng.lognormal(mean=0.0, sigma=self.sigma, size=int(unit_ids.max()) + 1)
        per_bit = factors[unit_ids]
        mean = per_bit.mean()
        return per_bit / mean if mean > 0 else per_bit

    def _structured_flips(
        self, context: BitContext, unit_ids: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        if context.n_bits == 0 or context.base_rate <= 0:
            return np.empty(0, dtype=np.int64)
        probabilities = np.clip(
            context.base_rate * self._unit_factors(unit_ids), 0.0, 1.0
        )
        # Thinning: draw from the max rate, then accept proportionally.
        p_max = float(probabilities.max())
        candidates = self._binomial_positions(context.n_bits, p_max, rng)
        if candidates.size == 0:
            return candidates
        accept = rng.random(candidates.size) < probabilities[candidates] / p_max
        return candidates[accept]


class ErrorModel1(_StructuredModel):
    """Vertical distribution: severity varies across bitlines."""

    name = "model1"
    context_fields = ("bitline_of",)

    def sample_flips(self, context: BitContext, rng: np.random.Generator) -> np.ndarray:
        if context.bitline_of is None:
            raise ValueError("ErrorModel1 requires BitContext.bitline_of")
        return self._structured_flips(context, context.bitline_of, rng)


class ErrorModel2(_StructuredModel):
    """Horizontal distribution: severity varies across wordlines."""

    name = "model2"
    context_fields = ("wordline_of",)

    def sample_flips(self, context: BitContext, rng: np.random.Generator) -> np.ndarray:
        if context.wordline_of is None:
            raise ValueError("ErrorModel2 requires BitContext.wordline_of")
        return self._structured_flips(context, context.wordline_of, rng)


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
        if context.values is None:
            raise ValueError("ErrorModel3 requires BitContext.values")
        if context.n_bits == 0 or context.base_rate <= 0:
            return np.empty(0, dtype=np.int64)
        r = self.one_to_zero_ratio
        p_one = min(1.0, context.base_rate * 2.0 * r / (r + 1.0))
        p_zero = min(1.0, context.base_rate * 2.0 / (r + 1.0))
        ones = np.flatnonzero(context.values != 0)
        zeros = np.flatnonzero(context.values == 0)
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
        if context.wordline_of is None:
            raise ValueError("ErrorModelEden requires BitContext.wordline_of")
        if context.values is None:
            raise ValueError("ErrorModelEden requires BitContext.values")
        if context.n_bits == 0 or context.base_rate <= 0:
            return np.empty(0, dtype=np.int64)
        r = self.one_to_zero_ratio
        value_factor = np.where(
            context.values != 0, 2.0 * r / (r + 1.0), 2.0 / (r + 1.0)
        )
        probabilities = np.clip(
            context.base_rate
            * self._unit_factors(context.wordline_of)
            * value_factor,
            0.0,
            1.0,
        )
        # Thinning: draw from the max rate, then accept proportionally.
        p_max = float(probabilities.max())
        candidates = self._binomial_positions(context.n_bits, p_max, rng)
        if candidates.size == 0:
            return candidates
        accept = rng.random(candidates.size) < probabilities[candidates] / p_max
        return candidates[accept]


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
