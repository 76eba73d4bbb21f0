"""Numpy SNN simulator substrate.

Implements the SNN stack of the paper's Section II-A: Leaky
Integrate-and-Fire neurons with adaptive thresholds, conductance-based
synapses, Poisson rate coding (the encoder of the paper's evaluation),
trace-based STDP, and the fully-connected architecture with lateral
inhibition of Fig. 4(a) (Diehl & Cook style, as used by the paper's
reference [7] and by BindsNET, the paper's simulation substrate [16]).

:class:`DiehlCookNetwork` is the one object that holds the network's
weights and state and runs its time loops; :mod:`repro.engine` trains
(``BatchedTrainer``) and scores (``BatchedEvaluator``) it.
"""

from repro.snn.neurons import LIFParameters
from repro.snn.synapses import ConductanceParameters
from repro.snn.encoding import MAX_RATE_HZ, poisson_rate_code
from repro.snn.stdp import STDPParameters, STDPRule
from repro.snn.network import NetworkParameters, DiehlCookNetwork
from repro.snn.training import TrainedModel, assign_labels
from repro.snn.quantization import (
    WeightRepresentation,
    Float32Representation,
    FixedPointRepresentation,
)
from repro.snn.serialization import save_model, load_model
from repro.snn.diagnostics import TrainingHealth, check_training_health

__all__ = [
    "save_model",
    "load_model",
    "TrainingHealth",
    "check_training_health",
    "LIFParameters",
    "ConductanceParameters",
    "MAX_RATE_HZ",
    "poisson_rate_code",
    "STDPParameters",
    "STDPRule",
    "NetworkParameters",
    "DiehlCookNetwork",
    "TrainedModel",
    "assign_labels",
    "WeightRepresentation",
    "Float32Representation",
    "FixedPointRepresentation",
]
