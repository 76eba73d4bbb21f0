"""Magnitude-based weight pruning.

The paper's Fig. 2(a) shows that the approximate-DRAM savings *compose*
with existing techniques such as weight pruning: pruning removes
synaptic connections (fewer weights → fewer DRAM accesses), voltage
scaling then cuts the energy of each remaining access.  This module
provides the pruning half of that combination: how many weights a
connectivity level keeps.
"""

from __future__ import annotations

import numpy as np


def pruned_weight_count(n_weights: int, target_connectivity: float) -> int:
    """Number of weights remaining after pruning to a connectivity level."""
    if n_weights < 0:
        raise ValueError(f"n_weights must be >= 0, got {n_weights}")
    if not 0.0 < target_connectivity <= 1.0:
        raise ValueError(
            f"target_connectivity must be in (0, 1], got {target_connectivity}"
        )
    return int(np.ceil(target_connectivity * n_weights))
