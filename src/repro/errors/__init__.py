"""Approximate-DRAM error modelling and bit-level error injection.

Implements the probabilistic error models of the paper's Section III
(Error Models 0–3, following the EDEN characterisation of real
reduced-voltage DRAM), a BER-versus-supply-voltage curve with the shape
of Fig. 2(c), per-subarray weak-cell profiles, and the machinery to flip
bits of synaptic weights according to where they live in DRAM.
"""

from repro.errors.ber import BerVoltageCurve, DEFAULT_BER_CURVE
from repro.errors.weak_cells import SubarrayErrorProfile, WeakCellMap
from repro.errors.models import (
    ErrorModel,
    ErrorModel0,
    ErrorModel1,
    ErrorModel2,
    ErrorModel3,
    ERROR_MODELS,
    make_error_model,
)
from repro.errors.injection import ErrorInjector, InjectionReport
from repro.errors.ecc import (
    EccProtectedRepresentation,
    ECC_OVERHEAD,
    decode_words,
    encode_words,
)

__all__ = [
    "EccProtectedRepresentation",
    "ECC_OVERHEAD",
    "decode_words",
    "encode_words",
    "BerVoltageCurve",
    "DEFAULT_BER_CURVE",
    "SubarrayErrorProfile",
    "WeakCellMap",
    "ErrorModel",
    "ErrorModel0",
    "ErrorModel1",
    "ErrorModel2",
    "ErrorModel3",
    "ERROR_MODELS",
    "make_error_model",
    "ErrorInjector",
    "InjectionReport",
]
