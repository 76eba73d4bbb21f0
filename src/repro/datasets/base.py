"""Dataset container and the shared procedural-generation pipeline."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

IMAGE_SIDE = 28
N_PIXELS = IMAGE_SIDE * IMAGE_SIDE
N_CLASSES = 10


@dataclass(frozen=True)
class Dataset:
    """A labelled image dataset, flattened to (n, 784) float32 in [0,1]."""

    name: str
    train_images: np.ndarray
    train_labels: np.ndarray
    test_images: np.ndarray
    test_labels: np.ndarray

    def __post_init__(self):
        for images, labels, split in (
            (self.train_images, self.train_labels, "train"),
            (self.test_images, self.test_labels, "test"),
        ):
            if images.ndim != 2 or images.shape[1] != N_PIXELS:
                raise ValueError(f"{split} images must have shape (n, {N_PIXELS})")
            if labels.shape != (images.shape[0],):
                raise ValueError(f"{split} labels must align with images")
            if images.size and (images.min() < 0.0 or images.max() > 1.0):
                raise ValueError(f"{split} pixel values must lie in [0, 1]")

    @property
    def n_train(self) -> int:
        return len(self.train_labels)

    @property
    def n_test(self) -> int:
        return len(self.test_labels)


def render_glyph(bitmap: np.ndarray) -> np.ndarray:
    """Upscale a small binary glyph bitmap 4× to a soft 28×28 image."""
    bitmap = np.asarray(bitmap, dtype=np.float64)
    enlarged = np.kron(bitmap, np.ones((4, 4)))
    canvas = np.zeros((IMAGE_SIDE, IMAGE_SIDE))
    h, w = enlarged.shape
    if h > IMAGE_SIDE or w > IMAGE_SIDE:
        raise ValueError("glyph too large for the canvas")
    top = (IMAGE_SIDE - h) // 2
    left = (IMAGE_SIDE - w) // 2
    canvas[top : top + h, left : left + w] = enlarged
    return ndimage.gaussian_filter(canvas, sigma=0.9)


def augment(prototype: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One jittered sample from a class prototype (28×28 → 784 floats):
    shifted up to 2 pixels, blurred, scaled to 75–100% intensity, with
    Gaussian noise of standard deviation 0.05."""
    shift_y = int(rng.integers(-2, 3))
    shift_x = int(rng.integers(-2, 3))
    image = ndimage.shift(prototype, (shift_y, shift_x), order=1, mode="constant")
    blur = float(rng.uniform(0.0, 0.6))
    if blur > 0.05:
        image = ndimage.gaussian_filter(image, sigma=blur)
    intensity = float(rng.uniform(0.75, 1.0))
    image = image * intensity
    image = image + rng.normal(0.0, 0.05, image.shape)
    peak = image.max()
    if peak > 1.0:
        image = image / peak
    return np.clip(image, 0.0, 1.0).astype(np.float32).ravel()


def build_dataset(
    name: str,
    prototypes: np.ndarray,
    n_train: int,
    n_test: int,
    seed: int,
) -> Dataset:
    """Assemble a balanced dataset by augmenting per-class prototypes.

    ``prototypes`` has shape (N_CLASSES, 28, 28).  Train and test use
    disjoint RNG streams so the splits never share samples.
    """
    if len(prototypes) != N_CLASSES:
        raise ValueError(f"need {N_CLASSES} class prototypes, got {len(prototypes)}")
    if n_train <= 0 or n_test <= 0:
        raise ValueError("n_train and n_test must be > 0")
    train_rng = np.random.default_rng(seed)
    test_rng = np.random.default_rng(seed + 1_000_003)

    def make_split(n: int, rng: np.random.Generator):
        labels = np.arange(n) % N_CLASSES
        rng.shuffle(labels)
        images = np.stack([augment(prototypes[c], rng) for c in labels])
        return images.astype(np.float32), labels.astype(np.int64)

    train_images, train_labels = make_split(n_train, train_rng)
    test_images, test_labels = make_split(n_test, test_rng)
    return Dataset(
        name=name,
        train_images=train_images,
        train_labels=train_labels,
        test_images=test_images,
        test_labels=test_labels,
    )
