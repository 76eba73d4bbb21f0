"""Bit-error injection into DRAM-resident synaptic weights.

This is the "Error Generator & Injection" box of the paper's toolflow
(Fig. 10): given the weights, their storage representation, where each
weight lives in DRAM, and the per-location error rates, it flips the
corresponding stored bits and returns the corrupted weights.

Two operating modes cover the paper's uses:

- **uniform** (training, Section IV-B Steps 1-2): one device-level BER,
  Error Model-0, baseline sequential mapping — every stored bit is
  equally likely to flip.  The whole tensor is one region, sampled in
  one model call without a region map;
- **per-subarray** (mapping evaluation, Section IV-D): each weight is
  assigned to a subarray with its own error rate; flips are sampled
  region by region.  With every weight in region 0 this mode is the
  reference the uniform mode matches draw for draw.

A read costs O(stored words + flip candidates): the models sample from
a geometry-form :class:`~repro.errors.models.BitContext` over the encoded
words, and the injector XORs the flips into them and decodes in place.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.errors.bitops import flip_bits_uint
from repro.errors.models import BitContext, ErrorModel, ErrorModel0


@dataclass(frozen=True)
class InjectionReport:
    """What one injection pass actually did."""

    total_bits: int
    flipped_bits: int
    requested_ber: float
    per_region_flips: Dict[int, int] = field(default_factory=dict)


class ErrorInjector:
    """Injects DRAM bit errors into a weight tensor.

    Parameters
    ----------
    representation:
        A weight representation from :mod:`repro.snn.quantization`
        (``encode``/``decode``/``bits_per_weight``/``flip_bits``).
    model:
        One of the Section III error models; defaults to Model-0, which
        is what SparkXD uses.
    lane_bits:
        Number of distinct bitlines a slot spans (used to derive each
        bit's bitline index for Model-1).
    row_bits:
        Bits per DRAM row (used to derive wordline indices for Model-2).
    seed:
        Seed for the flip sampling stream.  Each call to
        :meth:`inject` advances the stream unless an explicit ``rng``
        is supplied.
    """

    def __init__(
        self,
        representation,
        model: Optional[ErrorModel] = None,
        lane_bits: int = 64,
        row_bits: int = 65536,
        seed: Optional[int] = None,
    ):
        if lane_bits <= 0 or row_bits <= 0:
            raise ValueError("lane_bits and row_bits must be > 0")
        self.representation = representation
        self.model = model or ErrorModel0()
        self.lane_bits = lane_bits
        self.row_bits = row_bits
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------
    def inject_uniform(
        self,
        weights: np.ndarray,
        ber: float,
        rng: Optional[np.random.Generator] = None,
    ) -> Tuple[np.ndarray, InjectionReport]:
        """Flip stored bits with one uniform BER (training mode).

        The whole tensor is region 0: the same draws, arrays and report
        as :meth:`inject_by_region` with an all-zeros region map, without
        building or scanning that map.
        """
        rate = float(ber)
        if rate < 0 or rate > 1:
            raise ValueError("region rates must lie in [0, 1]")
        regions = [(0, rate, None)] if np.size(weights) else []
        return self._inject(weights, regions, rng)

    def inject_stack(
        self,
        weights: np.ndarray,
        bers,
        n_realizations: int = 1,
        rng: Optional[np.random.Generator] = None,
    ) -> Tuple[np.ndarray, List[InjectionReport]]:
        """Produce a stack of independently corrupted weight copies.

        The E-axis the batched engine consumes in one call: for every
        BER in ``bers`` (a scalar or a sequence), ``n_realizations``
        independent error masks are sampled, giving a stack of shape
        ``(len(bers) * n_realizations, *weights.shape)`` in BER-major
        order (all realizations of ``bers[0]`` first).  Random draws
        happen in exactly that order from ``rng`` (or the injector's own
        stream), so the stack matches an equivalent sequence of
        :meth:`inject_uniform` calls bit for bit.

        Returns ``(stack, reports)`` with one
        :class:`InjectionReport` per stack entry.
        """
        if n_realizations <= 0:
            raise ValueError(f"n_realizations must be > 0, got {n_realizations}")
        bers = np.atleast_1d(np.asarray(bers, dtype=float))
        if bers.ndim != 1 or bers.size == 0:
            raise ValueError("bers must be a scalar or a non-empty 1-D sequence")
        weights = np.asarray(weights)
        stack = np.empty((bers.size * n_realizations,) + weights.shape, dtype=np.float64)
        reports: List[InjectionReport] = []
        index = 0
        for ber in bers:
            for _ in range(n_realizations):
                corrupted, report = self.inject_uniform(weights, float(ber), rng=rng)
                stack[index] = corrupted
                reports.append(report)
                index += 1
        return stack, reports

    def inject_by_region(
        self,
        weights: np.ndarray,
        region_of_weight: np.ndarray,
        region_rates: np.ndarray,
        rng: Optional[np.random.Generator] = None,
    ) -> Tuple[np.ndarray, InjectionReport]:
        """Flip stored bits with per-region (e.g. per-subarray) rates.

        ``region_of_weight[i]`` is the region index of flattened weight
        ``i``; ``region_rates[r]`` is region ``r``'s bit error rate.
        Returns ``(corrupted_weights, report)``; the input is untouched.
        """
        n_weights = int(np.size(weights))
        region_of_weight = np.asarray(region_of_weight, dtype=np.int64).ravel()
        if region_of_weight.shape != (n_weights,):
            raise ValueError(
                f"region_of_weight must have one entry per weight "
                f"({n_weights}), got {region_of_weight.shape}"
            )
        region_rates = np.asarray(region_rates, dtype=float)
        if region_of_weight.size and (
            region_of_weight.min() < 0 or region_of_weight.max() >= region_rates.size
        ):
            raise IndexError("region index out of range of region_rates")
        if np.any(region_rates < 0) or np.any(region_rates > 1):
            raise ValueError("region rates must lie in [0, 1]")

        regions = (
            (int(region), float(region_rates[region]),
             np.flatnonzero(region_of_weight == region))
            for region in np.unique(region_of_weight)
        )
        return self._inject(weights, regions, rng)

    # ------------------------------------------------------------------
    def _inject(
        self,
        weights: np.ndarray,
        regions: Iterable[Tuple[int, float, Optional[np.ndarray]]],
        rng: Optional[np.random.Generator],
    ) -> Tuple[np.ndarray, InjectionReport]:
        """Encode, flip each region's sampled bits, decode and report.

        ``regions`` yields ``(region, rate, members)``: the flat indices
        of the region's weights, or ``None`` for every weight.  The
        encoded words are this call's own buffer: the flips are XORed
        into it and it is decoded in place.
        """
        rng = rng if rng is not None else self._rng
        weights = np.asarray(weights)
        n_weights = int(weights.size)
        rep = self.representation
        bpw, word_bits = rep.bits_per_weight, rep.word_bits
        words_flat = rep.encode(weights).reshape(-1)
        # One stored word per weight, except under ECC (one bit per word).
        per_weight = bpw // word_bits
        stored = words_flat[: n_weights * per_weight].reshape(n_weights, per_weight)

        all_flips: list[np.ndarray] = []
        per_region: Dict[int, int] = {}
        mean_rate = 0.0
        for region, rate, members in regions:
            member_words = (stored if members is None else stored[members]).ravel()
            context = self._context_for(member_words, word_bits, rate)
            mean_rate += rate * context.n_bits
            local_flips = self.model.sample_flips(context, rng)
            per_region[region] = int(local_flips.size)
            if local_flips.size:
                if members is not None:
                    # local bit index -> (member weight, bit) -> global bit
                    local_flips = members[local_flips // bpw] * bpw + local_flips % bpw
                all_flips.append(local_flips)

        total_bits = n_weights * bpw
        if all_flips:
            flip_bits_uint(words_flat, np.concatenate(all_flips), word_bits, out=words_flat)
        corrupted = rep.decode_in_place(words_flat).reshape(weights.shape)
        report = InjectionReport(
            total_bits=total_bits,
            flipped_bits=sum(per_region.values()),
            requested_ber=mean_rate / total_bits if total_bits else 0.0,
            per_region_flips=per_region,
        )
        return corrupted, report

    def _context_for(
        self, member_words: np.ndarray, word_bits: int, rate: float
    ) -> BitContext:
        """The geometry-form BitContext of one region's stored words: their
        bits stream into consecutive DRAM columns and rows."""
        return BitContext(
            member_words.size * word_bits,
            rate,
            words=member_words,
            word_bits=word_bits,
            lane_bits=self.lane_bits,
            row_bits=self.row_bits,
        )
