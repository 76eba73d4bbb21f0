"""Procedural garment-silhouette dataset with the Fashion-MNIST interface.

The ten Fashion-MNIST classes (t-shirt, trouser, pullover, dress, coat,
sandal, shirt, sneaker, bag, ankle boot) are represented by 7×7 binary
silhouettes rendered and augmented exactly like the digit dataset.
Fashion-MNIST is the harder of the two workloads (the paper's Fig. 11b
accuracies sit well below the MNIST ones); the silhouettes here are
correspondingly more mutually confusable than the digit glyphs (several
share the torso-with-sleeves layout).
"""

from __future__ import annotations

import numpy as np

from repro.datasets.base import Dataset, build_dataset, render_glyph

# Sparse outline silhouettes.  A rate-coded STDP network separates
# classes by *which* pixels are active, so the glyphs keep density near
# the digit set's (~0.35-0.45) and occupy distinct canvas regions
# (tops: upper half; shoes: lower half; trousers/coats: full height).
_CLASS_ROWS = {
    0: ("1101011", "1111111", "0100010", "0100010", "0111110", "0000000", "0000000"),  # t-shirt
    1: ("0111110", "0100010", "0100010", "0100010", "0100010", "0100010", "0100010"),  # trouser
    2: ("0011100", "1111111", "1000001", "1000001", "1111111", "0000000", "0000000"),  # pullover
    3: ("0001000", "0010100", "0010100", "0100010", "0100010", "1000001", "1111111"),  # dress
    4: ("1111111", "1000001", "1001001", "1001001", "1001001", "1000001", "1000001"),  # coat
    5: ("0000000", "0000000", "0000001", "0000110", "0011000", "1100000", "1111111"),  # sandal
    6: ("1100011", "0111110", "0001000", "0101010", "0001000", "0101010", "0111110"),  # shirt
    7: ("0000000", "0001110", "0010010", "0100010", "1111111", "0000000", "0000000"),  # sneaker
    8: ("0011100", "0100010", "1111111", "1000001", "1000001", "1111111", "0000000"),  # bag
    9: ("0110000", "0110000", "0110000", "0110000", "0111111", "0100001", "0111111"),  # ankle boot
}

def fashion_bitmap(cls: int) -> np.ndarray:
    """The 7×7 binary silhouette of one garment class."""
    if cls not in _CLASS_ROWS:
        raise ValueError(f"class must be 0-9, got {cls}")
    rows = _CLASS_ROWS[cls]
    return np.array([[int(ch) for ch in row] for row in rows], dtype=np.float64)


def fashion_prototypes() -> np.ndarray:
    """Soft 28×28 prototypes of all ten garment classes."""
    return np.stack([render_glyph(fashion_bitmap(c)) for c in range(10)])


def load_synthetic_fashion(
    n_train: int = 500, n_test: int = 200, seed: int = 13
) -> Dataset:
    """A balanced procedural garment dataset (flattened, float32, [0,1])."""
    return build_dataset(
        "synthetic-fashion", fashion_prototypes(), n_train, n_test, seed
    )
