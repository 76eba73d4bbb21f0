"""SEC-DED ECC: the conventional alternative to fault-aware training.

The classic way to run DRAM at reduced voltage is to protect it with
error-correcting codes — the EDEN work SparkXD builds on discusses
exactly this comparator.  This module implements the standard
**Hamming(72,64) SEC-DED** scheme used by ECC DRAM: 8 check bits per
64-bit word, correcting any single bit error and detecting (but not
correcting) double errors.

It exists so the ablation benchmarks can compare SparkXD's approach
(make the *model* tolerate errors; zero storage overhead) against the
hardware approach (correct the errors; +12.5% storage, energy and
bandwidth, and failure beyond one flip per word).

The implementation is a bit-matrix Hamming code over numpy:

- ``encode_words`` appends check bits to 64-bit data words;
- ``decode_words`` recomputes the syndrome, corrects single-bit
  errors, flags uncorrectable (double-bit) words;
- :class:`EccProtectedRepresentation` wraps any weight representation
  so the error injector exercises the full store→corrupt→correct path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

DATA_BITS = 64
CHECK_BITS = 8  # SEC-DED for 64 data bits
CODE_BITS = DATA_BITS + CHECK_BITS
#: storage/energy/bandwidth overhead of the code.
ECC_OVERHEAD = CHECK_BITS / DATA_BITS


def _parity_check_matrix() -> np.ndarray:
    """H matrix (CHECK_BITS x CODE_BITS) of an extended Hamming code.

    Columns 0..63 carry the data bits, columns 64..71 the check bits.
    Data column ``i`` encodes the binary pattern of a distinct non-power
    -of-two integer (classic Hamming construction) plus an overall
    parity row that upgrades SEC to SEC-DED.
    """
    # distinct 7-bit values with >= 2 bits set, one per data bit
    values = [v for v in range(3, 128) if bin(v).count("1") >= 2][:DATA_BITS]
    h = np.zeros((CHECK_BITS, CODE_BITS), dtype=np.uint8)
    for column, value in enumerate(values):
        for row in range(CHECK_BITS - 1):
            h[row, column] = (value >> row) & 1
    for check in range(CHECK_BITS - 1):
        h[check, DATA_BITS + check] = 1
    h[CHECK_BITS - 1, :] = 1  # overall parity row (the SEC-DED extension)
    return h


_H = _parity_check_matrix()
#: syndrome value (as integer) -> correctable bit position
_SYNDROME_TO_BIT = {}
for _bit in range(CODE_BITS):
    _syndrome = 0
    for _row in range(CHECK_BITS):
        _syndrome |= int(_H[_row, _bit]) << _row
    _SYNDROME_TO_BIT[_syndrome] = _bit


def _bits_of_words(words: np.ndarray) -> np.ndarray:
    """uint64 word array -> (n, 64) bit matrix (LSB first)."""
    shifts = np.arange(DATA_BITS, dtype=np.uint64)
    return ((words[:, None] >> shifts[None, :]) & np.uint64(1)).astype(np.uint8)


def _words_of_bits(bits: np.ndarray) -> np.ndarray:
    shifts = np.arange(DATA_BITS, dtype=np.uint64)
    return (bits.astype(np.uint64) << shifts[None, :]).sum(axis=1, dtype=np.uint64)


def encode_words(data: np.ndarray) -> np.ndarray:
    """Encode uint64 data words into (n, 72) codeword bit matrices."""
    data = np.ascontiguousarray(data, dtype=np.uint64).ravel()
    data_bits = _bits_of_words(data)
    code = np.zeros((data.size, CODE_BITS), dtype=np.uint8)
    code[:, :DATA_BITS] = data_bits
    # check bits chosen so H @ code = 0 (mod 2); because each check bit
    # appears in exactly its own row (plus the parity row), solve rows
    # 0..6 first, then the parity bit.
    for check in range(CHECK_BITS - 1):
        mask = _H[check, :DATA_BITS].astype(bool)
        code[:, DATA_BITS + check] = data_bits[:, mask].sum(axis=1) % 2
    code[:, CODE_BITS - 1] = code[:, : CODE_BITS - 1].sum(axis=1) % 2
    return code


@dataclass(frozen=True)
class DecodeReport:
    """What the ECC decoder observed for one batch of words."""

    corrected_words: int
    uncorrectable_words: int
    total_words: int


def decode_words(code: np.ndarray) -> Tuple[np.ndarray, DecodeReport]:
    """Correct single-bit errors; flag double-bit errors.

    Returns ``(data_words, report)``.  Uncorrectable words are returned
    with their (corrupted) data bits as stored — mirroring a memory
    controller that signals the error but must still return data.
    """
    code = np.ascontiguousarray(code, dtype=np.uint8)
    if code.ndim != 2 or code.shape[1] != CODE_BITS:
        raise ValueError(f"codewords must have shape (n, {CODE_BITS})")
    code = code.copy()
    syndromes = (code @ _H.T) % 2
    syndrome_values = (syndromes.astype(np.int64) * (1 << np.arange(CHECK_BITS))).sum(axis=1)
    overall_parity = syndromes[:, CHECK_BITS - 1]

    corrected = 0
    uncorrectable = 0
    for i in np.flatnonzero(syndrome_values):
        value = int(syndrome_values[i])
        if overall_parity[i] == 1:
            # odd number of flips -> single-bit error, correctable
            bit = _SYNDROME_TO_BIT.get(value)
            if bit is not None:
                code[i, bit] ^= 1
                corrected += 1
            else:  # triple+ error aliasing; count as uncorrectable
                uncorrectable += 1
        else:
            # non-zero syndrome with even parity -> double-bit error
            uncorrectable += 1

    report = DecodeReport(
        corrected_words=corrected,
        uncorrectable_words=uncorrectable,
        total_words=code.shape[0],
    )
    return _words_of_bits(code[:, :DATA_BITS]), report


class EccProtectedRepresentation:
    """Wrap a weight representation with Hamming(72,64) protection.

    Weights are packed into 64-bit data words, encoded to 72-bit
    codewords; the stored bit space seen by the error injector is the
    *codeword* space (check bits can flip too); decoding corrects
    single-bit errors per word before handing the data back to the
    wrapped representation.

    ``bits_per_weight`` reflects the true storage cost including the
    12.5% check-bit overhead (scaled by 9/8), so DRAM traffic and
    energy comparisons automatically account for it.
    """

    name = "ecc-protected"
    #: the stored words are single bits (one uint8 0/1 per stored bit).
    word_bits = 1

    def __init__(self, inner):
        if DATA_BITS % inner.bits_per_weight != 0:
            raise ValueError(
                f"inner representation width {inner.bits_per_weight} must "
                f"divide {DATA_BITS}"
            )
        if (inner.bits_per_weight * CODE_BITS) % DATA_BITS != 0:
            raise ValueError("inner width must give a whole number of coded bits")
        self.inner = inner
        self.weights_per_word = DATA_BITS // inner.bits_per_weight
        self.last_decode_report: DecodeReport | None = None
        self._last_n_weights: int | None = None

    @property
    def bits_per_weight(self) -> int:
        """Stored bits per weight including the 12.5% check-bit share."""
        return self.inner.bits_per_weight * CODE_BITS // DATA_BITS

    # -- paths used by the error injector ------------------------------
    def encode(self, weights: np.ndarray) -> np.ndarray:
        """Weights -> flat codeword *bit* array (uint8 0/1)."""
        inner_words = np.ravel(self.inner.encode(weights))
        self._last_n_weights = inner_words.size
        padded = self._pack_words(inner_words)
        return encode_words(padded).ravel()

    def decode(self, stored_bits: np.ndarray) -> np.ndarray:
        """Flat codeword bits -> weights (correcting single-bit flips).

        Trimmed to the weight count of the last :meth:`encode` call so
        padding weights never leak back (odd tensor sizes pad the final
        64-bit data word).
        """
        bits = np.ascontiguousarray(stored_bits, dtype=np.uint8)
        if bits.size % CODE_BITS != 0:
            raise ValueError("stored bit count is not a whole number of codewords")
        data_words, report = decode_words(bits.reshape(-1, CODE_BITS))
        self.last_decode_report = report
        inner_words = self._unpack_words(data_words)
        if self._last_n_weights is not None:
            inner_words = inner_words[: self._last_n_weights]
        return self.inner.decode(inner_words)

    #: :meth:`decode` never writes its input, so the owned form is the same.
    decode_in_place = decode

    def flip_bits(self, stored_bits: np.ndarray, flat_bit_indices: np.ndarray) -> np.ndarray:
        out = np.ravel(stored_bits).copy()
        idx = np.asarray(flat_bit_indices, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= out.size):
            raise IndexError("bit index out of stored range")
        # bits are stored unpacked (one uint8 per bit), so a flip is XOR 1
        np.logical_xor.at(out, idx, True)
        return out

    # -- packing helpers ------------------------------------------------
    def _pack_words(self, inner_words: np.ndarray) -> np.ndarray:
        bpw = self.inner.bits_per_weight
        n = inner_words.size
        n_words = -(-n // self.weights_per_word)
        padded = np.zeros(n_words * self.weights_per_word, dtype=np.uint64)
        padded[:n] = inner_words.astype(np.uint64)
        grouped = padded.reshape(n_words, self.weights_per_word)
        shifts = (np.arange(self.weights_per_word, dtype=np.uint64) * np.uint64(bpw))
        return (grouped << shifts[None, :]).sum(axis=1, dtype=np.uint64)

    def _unpack_words(self, data_words: np.ndarray) -> np.ndarray:
        bpw = self.inner.bits_per_weight
        shifts = (np.arange(self.weights_per_word, dtype=np.uint64) * np.uint64(bpw))
        mask = np.uint64((1 << bpw) - 1) if bpw < 64 else np.uint64(0xFFFFFFFFFFFFFFFF)
        pieces = (data_words[:, None] >> shifts[None, :]) & mask
        return pieces.ravel().astype(self.inner.word_dtype)
