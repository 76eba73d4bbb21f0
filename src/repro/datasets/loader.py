"""Unified dataset loading by name, backed by the dataset registry.

New workloads plug in without touching this module::

    from repro.datasets.loader import DATASETS

    @DATASETS.register("blobs")
    def load_blobs(n_train, n_test, seed=None):
        return Dataset(...)

Registered loaders take ``(n_train, n_test, seed)`` where ``seed`` may
be ``None`` to request the workload's default seed.
"""

from __future__ import annotations

from repro.datasets.base import Dataset
from repro.datasets.synthetic_fashion import load_synthetic_fashion
from repro.datasets.synthetic_mnist import load_synthetic_mnist
from repro.registry import Registry

DATASETS = Registry("dataset")


@DATASETS.register("mnist", aliases=("synthetic-mnist",))
def _load_mnist(n_train: int, n_test: int, seed: int | None) -> Dataset:
    return load_synthetic_mnist(n_train, n_test, seed if seed is not None else 7)


@DATASETS.register("fashion", aliases=("fashion-mnist", "synthetic-fashion"))
def _load_fashion(n_train: int, n_test: int, seed: int | None) -> Dataset:
    return load_synthetic_fashion(n_train, n_test, seed if seed is not None else 13)


def load_dataset(
    name: str, n_train: int = 500, n_test: int = 200, seed: int | None = None
) -> Dataset:
    """Load a workload by registered name (e.g. 'mnist', with aliases)."""
    loader = DATASETS.get(name)
    return loader(n_train, n_test, seed)
