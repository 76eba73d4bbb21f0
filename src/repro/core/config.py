"""Configuration of a full SparkXD run."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Mapping, Tuple

from repro.core.mapping_policy import MAPPING_POLICIES
from repro.dram.specs import DramSpec, LPDDR3_1600_4GB, spec_from_dict, spec_to_dict
from repro.errors.models import ERROR_MODELS

#: Valid compute precisions (numpy dtype names; the config layer stays
#: import-light, stages convert via ``np.dtype``).
COMPUTE_DTYPES = ("float64", "float32")

#: Valid values of the ``stage_encoding`` switch (mirrors
#: ``repro.engine.trainer.STAGE_ENCODINGS``; duplicated so the config
#: layer stays import-light).
STAGE_ENCODING_CHOICES = ("fresh", "shared")

#: The reduced supply voltages of the paper's Fig. 12(a).
PAPER_VOLTAGES = (1.325, 1.250, 1.175, 1.100, 1.025)
#: The BER decades swept by the paper's Fig. 11.
PAPER_BER_RATES = (1e-9, 1e-7, 1e-5, 1e-3)


@dataclass(frozen=True)
class SparkXDConfig:
    """Everything a :class:`repro.pipeline.ExperimentPipeline` run needs.

    The defaults follow the paper's setup (Section V) at a compute scale
    a CPU can train: the paper's GPU runs use the full 60k-sample MNIST;
    here the synthetic workloads default to a few hundred samples.  Use
    :meth:`paper` for the faithful parameterisation and :meth:`small`
    for second-scale smoke runs.
    """

    # workload
    dataset: str = "mnist"
    n_train: int = 300
    n_test: int = 150
    dataset_seed: int = 7

    # SNN
    n_neurons: int = 400
    n_steps: int = 100
    baseline_epochs: int = 1
    epochs_per_rate: int = 1
    #: Samples per STDP presentation (see docs/training.md).  1 is the
    #: bit-exact sequential reference; >1 trains in vectorized
    #: minibatches — a result-changing approximation, so this knob is
    #: part of the stage cache fingerprints.
    train_batch_size: int = 1
    #: Simulation/training precision ("float64" or "float32").  float32
    #: halves memory bandwidth but changes results, so it is
    #: fingerprint-relevant too.
    compute_dtype: str = "float64"
    #: Per-BER-stage encoding of fault-aware training: "fresh" re-draws
    #: the sample permutations and Poisson encodings at every stage;
    #: "shared" (requires train_batch_size > 1) encodes once at the
    #: first stage and replays the recorded minibatches at every later
    #: stage (see docs/training.md).  Result-changing, so
    #: fingerprint-relevant.
    stage_encoding: str = "fresh"

    # SparkXD error schedule and accuracy target
    ber_rates: Tuple[float, ...] = PAPER_BER_RATES
    accuracy_bound: float = 0.01
    tolerance_trials: int = 1
    #: DRAM error model injected during training/tolerance analysis
    #: (a :data:`repro.errors.models.ERROR_MODELS` name).
    error_model: str = "model0"

    # storage + DRAM
    representation: str = "float32"
    dram_spec: DramSpec = field(default_factory=lambda: LPDDR3_1600_4GB)
    voltages: Tuple[float, ...] = PAPER_VOLTAGES
    mapping_policy: str = "sparkxd"
    weak_cell_sigma: float = 0.8
    weak_cell_seed: int = 0
    refetch_passes: int = 1

    # reproducibility
    seed: int = 42

    def __post_init__(self):
        if self.n_train <= 0 or self.n_test <= 0:
            raise ValueError("n_train and n_test must be > 0")
        if self.n_neurons <= 0 or self.n_steps <= 0:
            raise ValueError("n_neurons and n_steps must be > 0")
        if self.baseline_epochs <= 0 or self.epochs_per_rate <= 0:
            raise ValueError("epoch counts must be > 0")
        if not self.ber_rates:
            raise ValueError("need at least one BER rate")
        if any(not 0 <= r <= 1 for r in self.ber_rates):
            raise ValueError("BER rates must lie in [0, 1]")
        if self.accuracy_bound < 0:
            raise ValueError("accuracy_bound must be >= 0")
        if not self.voltages:
            raise ValueError("need at least one reduced voltage")
        v_nom = self.dram_spec.electrical.v_nominal_volts
        if any(v <= 0 or v > v_nom for v in self.voltages):
            raise ValueError(f"voltages must lie in (0, {v_nom}]")
        MAPPING_POLICIES.canonical_name(self.mapping_policy)  # raises if unknown
        ERROR_MODELS.canonical_name(self.error_model)  # raises if unknown
        if self.train_batch_size < 1:
            raise ValueError(
                f"train_batch_size must be >= 1, got {self.train_batch_size}"
            )
        if self.compute_dtype not in COMPUTE_DTYPES:
            raise ValueError(
                f"unknown compute_dtype {self.compute_dtype!r}; "
                f"choose from {list(COMPUTE_DTYPES)}"
            )
        if self.stage_encoding not in STAGE_ENCODING_CHOICES:
            raise ValueError(
                f"unknown stage_encoding {self.stage_encoding!r}; "
                f"choose from {list(STAGE_ENCODING_CHOICES)}"
            )
        if self.stage_encoding == "shared" and self.train_batch_size == 1:
            raise ValueError(
                "stage_encoding='shared' requires train_batch_size > 1 "
                "(the bit-exact sequential reference always re-encodes)"
            )

    # ------------------------------------------------------------------
    @property
    def v_nominal(self) -> float:
        return self.dram_spec.electrical.v_nominal_volts

    def with_overrides(self, **kwargs) -> "SparkXDConfig":
        return replace(self, **kwargs)

    # ------------------------------------------------------------------
    # Wire form: a JSON-safe dict that survives ``json.dumps`` →
    # ``json.loads`` across hosts and rebuilds an identical config —
    # identical down to every stage cache fingerprint, which is what the
    # cluster protocol (docs/cluster.md) relies on to dedupe jobs.

    #: Fields whose tuple-ness JSON flattens to lists and ``from_wire``
    #: must restore (the dataclass declares them as tuples).
    _WIRE_TUPLE_FIELDS = ("ber_rates", "voltages")

    def to_wire(self) -> Dict[str, Any]:
        """Serialise to a JSON-safe dict (see :meth:`from_wire`)."""
        payload = {
            f.name: getattr(self, f.name) for f in dataclasses.fields(self)
        }
        payload["dram_spec"] = spec_to_dict(self.dram_spec)
        for name in self._WIRE_TUPLE_FIELDS:
            payload[name] = list(payload[name])
        return payload

    @classmethod
    def from_wire(cls, data: Mapping[str, Any]) -> "SparkXDConfig":
        """Rebuild a config from :meth:`to_wire` output.

        Unknown keys are rejected (a typo'd field silently dropped would
        desynchronise fingerprints between coordinator and worker).
        """
        payload = dict(data)
        payload["dram_spec"] = spec_from_dict(payload["dram_spec"])
        for name in cls._WIRE_TUPLE_FIELDS:
            payload[name] = tuple(payload[name])
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(f"unknown config fields in wire payload: {unknown}")
        return cls(**payload)

    @classmethod
    def small(cls, **overrides) -> "SparkXDConfig":
        """A sub-minute configuration for smoke tests and examples.

        The accuracy bound is relaxed from the paper's 1% to 5%: with
        under a hundred test samples, evaluation noise alone exceeds 1%.
        """
        base = cls(
            n_train=150,
            n_test=80,
            n_neurons=60,
            n_steps=80,
            baseline_epochs=2,
            ber_rates=(1e-5, 1e-3),
            accuracy_bound=0.05,
            tolerance_trials=2,
        )
        return base.with_overrides(**overrides) if overrides else base

    @classmethod
    def paper(cls, n_neurons: int = 400, **overrides) -> "SparkXDConfig":
        """The paper's Section V parameterisation (CPU-scaled workload)."""
        base = cls(
            n_neurons=n_neurons,
            n_train=500,
            n_test=200,
            n_steps=100,
            ber_rates=PAPER_BER_RATES,
            voltages=PAPER_VOLTAGES,
        )
        return base.with_overrides(**overrides) if overrides else base
