"""Synthetic workloads standing in for MNIST and Fashion-MNIST.

The paper evaluates on MNIST and Fashion-MNIST (Section V).  This
environment has no network access, so the real archives cannot be
downloaded; instead we generate *procedural* 28×28 10-class datasets
with the same shapes, value range and API:

- :func:`load_synthetic_mnist` — stroke-rendered digit glyphs with
  per-sample jitter (translation, thickness, noise, intensity);
- :func:`load_synthetic_fashion` — garment silhouettes with the same
  augmentation pipeline.

Every accuracy trend the paper reports depends on *class structure*
(weight corruption scrambles learned receptive fields; fault-aware
training restores robustness), not on natural-image statistics, so
these stand-ins preserve the experiments' behaviour.
"""

from repro.datasets.base import Dataset
from repro.datasets.synthetic_mnist import load_synthetic_mnist
from repro.datasets.synthetic_fashion import load_synthetic_fashion
from repro.datasets.loader import load_dataset, DATASETS

__all__ = [
    "Dataset",
    "load_synthetic_mnist",
    "load_synthetic_fashion",
    "load_dataset",
    "DATASETS",
]
