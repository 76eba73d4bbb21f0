"""Tests of the synthetic workloads."""

import numpy as np
import pytest

from repro.datasets import (
    Dataset,
    load_dataset,
    load_synthetic_fashion,
    load_synthetic_mnist,
)
from repro.datasets.base import N_PIXELS, augment, build_dataset, render_glyph
from repro.datasets.synthetic_fashion import fashion_bitmap, fashion_prototypes
from repro.datasets.synthetic_mnist import digit_bitmap, digit_prototypes


class TestShapesAndRanges:
    @pytest.mark.parametrize("loader", [load_synthetic_mnist, load_synthetic_fashion])
    def test_shapes(self, loader):
        ds = loader(n_train=40, n_test=20, seed=1)
        assert ds.train_images.shape == (40, N_PIXELS)
        assert ds.test_images.shape == (20, N_PIXELS)
        assert ds.train_labels.shape == (40,)
        assert ds.train_images.dtype == np.float32

    def test_pixel_range(self):
        ds = load_synthetic_mnist(30, 10, seed=2)
        assert ds.train_images.min() >= 0.0
        assert ds.train_images.max() <= 1.0

    @pytest.mark.parametrize("loader", [load_synthetic_mnist, load_synthetic_fashion])
    def test_labels_cover_ten_classes(self, loader):
        ds = loader(100, 50, seed=3)
        assert set(ds.train_labels.tolist()) == set(range(10))

    @pytest.mark.parametrize("loader", [load_synthetic_mnist, load_synthetic_fashion])
    def test_classes_balanced(self, loader):
        ds = loader(100, 50, seed=3)
        counts = np.bincount(ds.train_labels, minlength=10)
        assert counts.max() - counts.min() <= 1


class TestDeterminismAndSplits:
    def test_same_seed_same_data(self):
        a = load_synthetic_mnist(20, 10, seed=5)
        b = load_synthetic_mnist(20, 10, seed=5)
        assert np.array_equal(a.train_images, b.train_images)
        assert np.array_equal(a.test_labels, b.test_labels)

    def test_different_seed_different_data(self):
        a = load_synthetic_mnist(20, 10, seed=5)
        b = load_synthetic_mnist(20, 10, seed=6)
        assert not np.array_equal(a.train_images, b.train_images)

    def test_train_and_test_disjoint(self):
        ds = load_synthetic_mnist(30, 30, seed=4)
        train_set = {img.tobytes() for img in ds.train_images}
        overlap = sum(img.tobytes() in train_set for img in ds.test_images)
        assert overlap == 0


class TestClassStructure:
    def test_prototypes_distinct(self):
        protos = digit_prototypes().reshape(10, -1)
        # all pairwise distances comfortably above zero
        for i in range(10):
            for j in range(i + 1, 10):
                assert np.linalg.norm(protos[i] - protos[j]) > 0.5

    def test_fashion_prototypes_distinct(self):
        protos = fashion_prototypes().reshape(10, -1)
        for i in range(10):
            for j in range(i + 1, 10):
                assert np.linalg.norm(protos[i] - protos[j]) > 0.3

    def test_same_class_closer_than_other_class(self):
        # Nearest-prototype structure must be learnable.
        ds = load_synthetic_mnist(200, 10, seed=0)
        protos = digit_prototypes().reshape(10, -1)
        correct = 0
        for image, label in zip(ds.train_images, ds.train_labels):
            nearest = np.argmin(np.linalg.norm(protos - image, axis=1))
            correct += nearest == label
        assert correct / len(ds.train_labels) > 0.8

    def test_digit_bitmap_validation(self):
        with pytest.raises(ValueError):
            digit_bitmap(10)

    def test_fashion_bitmap_validation(self):
        with pytest.raises(ValueError):
            fashion_bitmap(10)


class TestPipelineHelpers:
    def test_render_glyph_shape(self):
        img = render_glyph(np.ones((7, 5)))
        assert img.shape == (28, 28)
        assert img.max() > 0

    def test_render_glyph_too_large(self):
        with pytest.raises(ValueError):
            render_glyph(np.ones((10, 10)))

    def test_augment_output_contract(self, rng):
        proto = render_glyph(np.ones((7, 5)))
        sample = augment(proto, rng)
        assert sample.shape == (N_PIXELS,)
        assert sample.dtype == np.float32
        assert 0.0 <= sample.min() and sample.max() <= 1.0

    def test_build_dataset_validation(self):
        protos = digit_prototypes()
        with pytest.raises(ValueError):
            build_dataset("x", protos[:5], 10, 5, 0)
        with pytest.raises(ValueError):
            build_dataset("x", protos, 0, 5, 0)

    def test_dataset_validation(self):
        with pytest.raises(ValueError):
            Dataset(
                name="bad",
                train_images=np.zeros((2, 3), dtype=np.float32),
                train_labels=np.zeros(2, dtype=np.int64),
                test_images=np.zeros((1, N_PIXELS), dtype=np.float32),
                test_labels=np.zeros(1, dtype=np.int64),
            )

    def test_dataset_rejects_misaligned_labels(self):
        with pytest.raises(ValueError, match="test labels must align"):
            Dataset(
                name="bad",
                train_images=np.zeros((2, N_PIXELS), dtype=np.float32),
                train_labels=np.zeros(2, dtype=np.int64),
                test_images=np.zeros((3, N_PIXELS), dtype=np.float32),
                test_labels=np.zeros(2, dtype=np.int64),
            )

    def test_dataset_rejects_out_of_range_pixels(self):
        with pytest.raises(ValueError, match=r"train pixel values must lie in \[0, 1\]"):
            Dataset(
                name="bad",
                train_images=np.full((2, N_PIXELS), 1.5, dtype=np.float32),
                train_labels=np.zeros(2, dtype=np.int64),
                test_images=np.zeros((1, N_PIXELS), dtype=np.float32),
                test_labels=np.zeros(1, dtype=np.int64),
            )


class TestLoader:
    @pytest.mark.parametrize(
        "alias,expected",
        [
            ("mnist", "synthetic-mnist"),
            ("MNIST", "synthetic-mnist"),
            ("fashion-mnist", "synthetic-fashion"),
            ("synthetic-fashion", "synthetic-fashion"),
        ],
    )
    def test_aliases(self, alias, expected):
        assert load_dataset(alias, 10, 5).name == expected

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            load_dataset("cifar", 10, 5)
