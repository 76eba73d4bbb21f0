"""Statistical validation of the error models (test helpers).

Section III justifies Error Model-0 by its similarity to real
approximate-DRAM error patterns.  These utilities quantify the
statistical properties each model is supposed to have, so the claim is
testable in this reproduction (``test_errors_validation.py`` and
``test_errors_models.py`` use them):

- :func:`uniformity_pvalue` — chi-square test that Model-0's flips are
  uniform over the bit space;
- :func:`structure_score` — how concentrated flips are along a given
  structural axis (bitlines for Model-1, wordlines for Model-2),
  normalised against the uniform expectation;
- :func:`data_dependence_ratio` — observed 1-bit vs 0-bit failure
  ratio for Model-3.
"""

from __future__ import annotations

import numpy as np
from scipy import stats

from repro.errors.models import BitContext, ErrorModel


def make_context(
    n_bits: int = 100_000,
    rate: float = 1e-3,
    lanes: int = 64,
    rows: int = 4096,
    values: np.ndarray | None = None,
    word_bits: int = 1,
) -> BitContext:
    """A synthetic bit space: ``lanes`` bits per bitline period, ``rows``
    bits per wordline, bit ``c`` storing ``values[c] != 0`` (0 without
    ``values``).  Each bit is a 1-bit word, the layout of ECC-stored
    bits, so every ``n_bits`` fits; ``word_bits=8`` packs the bits
    eight to a little-endian byte, the layout of a uint8 tensor."""
    bits = np.zeros(n_bits, dtype=bool) if values is None else np.asarray(values) != 0
    words = bits.astype(np.uint8) if word_bits == 1 else np.packbits(bits, bitorder="little")
    return BitContext(
        n_bits, rate, words=words, word_bits=word_bits, lane_bits=lanes, row_bits=rows,
    )


def sample_flip_positions(
    model: ErrorModel,
    n_bits: int,
    ber: float,
    rng: np.random.Generator,
    lane_bits: int = 64,
    row_bits: int = 4096,
    values: np.ndarray | None = None,
) -> np.ndarray:
    """Draw one flip set from a model over a synthetic bit space."""
    context = make_context(n_bits, ber, lane_bits, row_bits, values)
    return model.sample_flips(context, rng)


def uniformity_pvalue(
    flips: np.ndarray, n_bits: int, n_buckets: int = 16
) -> float:
    """Chi-square p-value that flips are uniform over the bit space.

    High p-values (>> 0.01) are consistent with uniformity; structured
    models produce vanishing p-values on the matching axis.
    """
    if n_bits <= 0 or n_buckets <= 1:
        raise ValueError("need n_bits > 0 and n_buckets > 1")
    if flips.size < n_buckets * 5:
        raise ValueError(
            f"too few flips ({flips.size}) for a {n_buckets}-bucket test"
        )
    buckets = np.minimum(flips * n_buckets // n_bits, n_buckets - 1)
    observed = np.bincount(buckets, minlength=n_buckets)
    return float(stats.chisquare(observed).pvalue)


def structure_score(
    flips: np.ndarray, unit_of_bit: np.ndarray
) -> float:
    """Concentration of flips across structural units, vs uniform.

    Returns the ratio of the observed per-unit flip-count variance to
    the variance a uniform (multinomial) distribution would produce.
    ~1 means unstructured; >> 1 means the flips cluster on weak units.
    """
    if flips.size == 0:
        raise ValueError("need at least one flip")
    units = unit_of_bit[flips]
    n_units = int(unit_of_bit.max()) + 1
    counts = np.bincount(units, minlength=n_units).astype(np.float64)
    n = counts.sum()
    p = 1.0 / n_units
    expected_variance = n * p * (1 - p)
    observed_variance = counts.var()
    if expected_variance <= 0:
        raise ValueError("degenerate unit structure")
    return float(observed_variance / expected_variance)


def data_dependence_ratio(
    flips: np.ndarray, values: np.ndarray
) -> float:
    """Observed failure-rate ratio of 1-bits to 0-bits.

    ~1 for data-independent models; matches
    :data:`~repro.errors.models.ONE_TO_ZERO_RATIO` (in expectation) for
    Model-3.
    """
    if flips.size == 0:
        raise ValueError("need at least one flip")
    ones_total = int((values != 0).sum())
    zeros_total = values.size - ones_total
    if ones_total == 0 or zeros_total == 0:
        raise ValueError("values must contain both 0s and 1s")
    flipped_ones = int((values[flips] != 0).sum())
    flipped_zeros = flips.size - flipped_ones
    rate_ones = flipped_ones / ones_total
    rate_zeros = max(flipped_zeros / zeros_total, 1e-12)
    return float(rate_ones / rate_zeros)
