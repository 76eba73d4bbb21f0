"""Weak-cell profiles: spatial variation of error rates across subarrays.

Real reduced-voltage DRAM error rates are *spatially non-uniform*: some
subarrays contain more weak cells (cells that fail when timing/voltage
margins shrink) than others.  SparkXD's mapping (Section IV-D) exploits
exactly this: subarrays whose error rate exceeds the tolerable BER are
skipped, the rest store weights.

:class:`WeakCellMap` draws a per-subarray *relative severity* factor from
a lognormal distribution (mean 1 across the device), seeded and
reproducible.  Multiplying by the device-level BER(V) from
:mod:`repro.errors.ber` yields the per-subarray error rates that the
paper's Algorithm 2 consumes (``subarray_rate``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dram.organization import DramOrganization
from repro.errors.ber import DEFAULT_BER_CURVE


class WeakCellMap:
    """Per-subarray relative weak-cell severity for one physical device.

    Parameters
    ----------
    organization:
        The device whose subarrays are being profiled.
    sigma:
        Log-space standard deviation of the severity factors.  ``0``
        gives a perfectly uniform device; ``~0.8`` gives the order-of-
        magnitude spread real devices show.
    seed:
        Seed of the per-device profile ("manufacturing randomness").
    """

    def __init__(
        self,
        organization: DramOrganization,
        sigma: float = 0.8,
        seed: int = 0,
    ):
        if sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {sigma}")
        self.organization = organization
        self.sigma = sigma
        self.seed = seed
        rng = np.random.default_rng(seed)
        n = organization.total_subarrays
        if sigma == 0:
            factors = np.ones(n)
        else:
            factors = rng.lognormal(mean=0.0, sigma=sigma, size=n)
            factors /= factors.mean()  # keep the device-level BER unbiased
        self.severity = factors

    def profile_at(self, v_supply: float) -> "SubarrayErrorProfile":
        """Per-subarray error rates at one supply voltage."""
        device_ber = DEFAULT_BER_CURVE.ber_at(v_supply)
        rates = np.clip(self.severity * device_ber, 0.0, 1.0)
        return SubarrayErrorProfile(
            organization=self.organization,
            v_supply=v_supply,
            device_ber=device_ber,
            rates=rates,
        )


@dataclass(frozen=True)
class SubarrayErrorProfile:
    """Error rate of every subarray at one operating voltage.

    ``rates[i]`` is the bit error rate of the subarray with flat index
    ``i``: the subarray holding slots ``i * slots_per_subarray`` up to
    ``(i + 1) * slots_per_subarray - 1`` (see
    :meth:`repro.dram.organization.DramOrganization.slots_per_subarray`).
    """

    organization: DramOrganization
    v_supply: float
    device_ber: float
    rates: np.ndarray

    def __post_init__(self):
        if self.rates.shape != (self.organization.total_subarrays,):
            raise ValueError(
                f"rates must have one entry per subarray "
                f"({self.organization.total_subarrays}), got {self.rates.shape}"
            )
        if np.any(self.rates < 0) or np.any(self.rates > 1):
            raise ValueError("subarray rates must lie in [0, 1]")

    def safe_mask(self, ber_threshold: float) -> np.ndarray:
        """Boolean mask of subarrays with rate <= the tolerable BER."""
        return self.rates <= ber_threshold

    def safe_fraction(self, ber_threshold: float) -> float:
        return float(self.safe_mask(ber_threshold).mean())
