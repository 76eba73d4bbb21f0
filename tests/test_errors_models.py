"""Tests of the Section III error models (Models 0-3)."""

import numpy as np
import pytest
from errors_oracle import ReferenceBitContext, reference_sample_flips
from errors_validation import make_context, sample_flip_positions

from repro.errors.models import (
    ERROR_MODELS,
    BitContext,
    ErrorModel0,
    ErrorModel1,
    ErrorModel2,
    ErrorModel3,
    ErrorModelEden,
    make_error_model,
)


def _words(n_words):
    """BitContext geometry arguments over ``n_words`` zero bytes."""
    return dict(
        words=np.zeros(n_words, dtype=np.uint8), word_bits=8, lane_bits=64, row_bits=4096
    )


class TestBitContext:
    def test_validation_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            make_context(n_bits=10, rate=1.5)

    def test_word_geometry_must_cover_the_bits(self):
        with pytest.raises(ValueError, match="3 words of 8 bits are not 32 bits"):
            BitContext(32, 0.1, **_words(3))

    def test_negative_bits_rejected(self):
        with pytest.raises(ValueError):
            BitContext(-1, 0.1, **_words(0))


class TestModel0:
    def test_achieved_rate_close_to_requested(self):
        model = ErrorModel0()
        ctx = make_context(n_bits=500_000, rate=1e-3)
        rng = np.random.default_rng(0)
        flips = model.sample_flips(ctx, rng)
        achieved = flips.size / ctx.n_bits
        assert achieved == pytest.approx(1e-3, rel=0.2)

    def test_zero_rate_no_flips(self):
        flips = ErrorModel0().sample_flips(
            make_context(rate=0.0), np.random.default_rng(0)
        )
        assert flips.size == 0

    def test_rate_one_flips_everything(self):
        ctx = make_context(n_bits=100, rate=1.0)
        flips = ErrorModel0().sample_flips(ctx, np.random.default_rng(0))
        assert np.array_equal(flips, np.arange(100))

    def test_flips_sorted_unique_in_range(self):
        ctx = make_context(n_bits=10_000, rate=0.01)
        flips = ErrorModel0().sample_flips(ctx, np.random.default_rng(1))
        assert np.all(np.diff(flips) > 0)
        assert flips.min() >= 0 and flips.max() < ctx.n_bits

    def test_empty_context(self):
        ctx = make_context(n_bits=0, rate=0.5)
        assert ErrorModel0().sample_flips(ctx, np.random.default_rng(0)).size == 0


class TestModel1:
    def test_errors_concentrate_on_weak_bitlines(self):
        # Vertical structure: flip counts per bitline should be far more
        # dispersed than a uniform model would produce.
        model = ErrorModel1()
        ctx = make_context(n_bits=640_000, rate=5e-3, lanes=64)
        rng = np.random.default_rng(0)
        flips = model.sample_flips(ctx, rng)
        per_lane = np.bincount(flips % 64, minlength=64)
        uniform = ErrorModel0().sample_flips(ctx, np.random.default_rng(1))
        per_lane_uniform = np.bincount(uniform % 64, minlength=64)
        assert per_lane.std() > 2 * per_lane_uniform.std()

    def test_mean_rate_preserved(self):
        model = ErrorModel1()
        ctx = make_context(n_bits=400_000, rate=2e-3)
        flips = model.sample_flips(ctx, np.random.default_rng(2))
        assert flips.size / ctx.n_bits == pytest.approx(2e-3, rel=0.3)


class TestModel2:
    def test_errors_concentrate_on_weak_wordlines(self):
        model = ErrorModel2()
        n_bits, row_bits = 400_000, 10_000
        ctx = make_context(n_bits=n_bits, rate=5e-3, rows=row_bits)
        flips = model.sample_flips(ctx, np.random.default_rng(0))
        per_row = np.bincount(flips // row_bits, minlength=n_bits // row_bits)
        uniform = ErrorModel0().sample_flips(ctx, np.random.default_rng(1))
        per_row_uniform = np.bincount(uniform // row_bits, minlength=n_bits // row_bits)
        assert per_row.std() > 2 * per_row_uniform.std()


class TestModel3:
    def test_ones_fail_more_than_zeros(self):
        n = 400_000
        values = (np.arange(n) % 2).astype(np.uint8)  # half ones
        ctx = make_context(n_bits=n, rate=2e-3, values=values)
        model = ErrorModel3()
        flips = model.sample_flips(ctx, np.random.default_rng(0))
        flipped_ones = int(values[flips].sum())
        flipped_zeros = flips.size - flipped_ones
        assert flipped_ones > 2 * flipped_zeros

    def test_overall_rate_preserved_on_balanced_data(self):
        n = 400_000
        values = (np.arange(n) % 2).astype(np.uint8)
        ctx = make_context(n_bits=n, rate=2e-3, values=values)
        flips = ErrorModel3().sample_flips(ctx, np.random.default_rng(1))
        assert flips.size / n == pytest.approx(2e-3, rel=0.3)

class TestFactory:
    @pytest.mark.parametrize(
        "name,cls",
        [
            ("model0", ErrorModel0),
            ("Model-1", ErrorModel1),
            ("error_model_2", ErrorModel2),
            ("MODEL3", ErrorModel3),
        ],
    )
    def test_names_resolve(self, name, cls):
        assert isinstance(make_error_model(name), cls)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown error model"):
            make_error_model("model9")


class TestEdenModel:
    def _context(self, n_bits=20000, rate=0.01, seed=0):
        rng = np.random.default_rng(seed)
        return make_context(
            n_bits=n_bits, rate=rate, rows=100, values=rng.random(n_bits) < 0.5
        )

    def test_mean_rate_near_base(self):
        from repro.errors.models import ErrorModelEden

        model = ErrorModelEden()
        context = self._context(n_bits=200000, rate=0.01)
        flips = model.sample_flips(context, np.random.default_rng(1))
        achieved = flips.size / context.n_bits
        assert 0.005 < achieved < 0.02

    def test_ones_fail_more_than_zeros(self):
        from repro.errors.models import ErrorModelEden

        model = ErrorModelEden()
        context = self._context(n_bits=200000, rate=0.02)
        flips = model.sample_flips(context, np.random.default_rng(2))
        flipped_values = context.values[flips]
        ones = int((flipped_values != 0).sum())
        zeros = int((flipped_values == 0).sum())
        assert ones > 3 * zeros

    def test_injector_builds_eden_context(self):
        from repro.errors.injection import ErrorInjector
        from repro.errors.models import ErrorModelEden
        from repro.snn.quantization import FixedPointRepresentation

        injector = ErrorInjector(
            FixedPointRepresentation(8), model=ErrorModelEden(), seed=4
        )
        weights = np.random.default_rng(3).random((40, 30))
        corrupted, report = injector.inject_uniform(weights, 0.01)
        assert corrupted.shape == weights.shape
        assert report.flipped_bits > 0


class _WideModel1(ErrorModel1):
    """Model-1 with twice its severity spread."""

    sigma = 2.0


class _FlatEden(ErrorModelEden):
    """The EDEN model without spatial structure: every line factor is 1."""

    sigma = 0.0


class TestSamplersMatchOracle:
    """Every model against its historical per-bit ``sample_flips`` body
    (``tests/errors_oracle.py``): same flips, same random-stream end
    state, on the contexts :func:`errors_validation.make_context` and
    :func:`errors_validation.sample_flip_positions` build, against the
    per-bit arrays they stand for."""

    N_BITS = 50_000
    BERS = (0.0, 1e-9, 1e-5, 1e-3, 0.3, 1.0)
    #: Every registered model, plus two severity spreads no workload
    #: runs, as test-only subclasses that move the thinning sampler off
    #: its fixed operating points: "model1-wide" (sigma 2: on 64
    #: bitlines ``p_max`` sits ten times above the mean line rate, not
    #: four, and at BER 0.3 six lines clip at rate 1, not three) and
    #: "eden-flat" (sigma 0: only the stored value sets a bit's rate).
    MODELS = {
        **{name: (lambda name=name: make_error_model(name)) for name in ERROR_MODELS},
        "model1-wide": _WideModel1,
        "eden-flat": _FlatEden,
    }

    #: (bits per bitline period, bits per wordline, bits per word, random
    #: values or all zero) per kind: make_context's defaults,
    #: TestEdenModel's rows of 100 bits, all-zero values, and odd spans
    #: (a partial last wordline) over values packed eight to a byte.
    KINDS = {
        "regular": (64, 4096, 1, True),
        "irregular": (37, 999, 8, True),
        "eden-rows": (64, 100, 1, True),
        "zero-values": (64, 4096, 1, False),
    }

    @staticmethod
    def _assert_same_draws(flips, ref, rng, ref_rng):
        assert flips.dtype == ref.dtype and flips.tobytes() == ref.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("kind", sorted(KINDS))
    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_value_layouts(self, model, kind):
        n, (lanes, rows, word_bits, random_values) = self.N_BITS, self.KINDS[kind]
        positions = np.arange(n, dtype=np.int64)
        values = (np.random.default_rng(6).random(n) < 0.4).astype(np.uint8)
        if not random_values:
            values = np.zeros(n, dtype=np.uint8)
        sampler = self.MODELS[model]()
        rng, ref_rng = np.random.default_rng(1), np.random.default_rng(1)
        for ber in self.BERS:
            flips = sampler.sample_flips(
                make_context(n, ber, lanes, rows, values, word_bits), rng
            )
            ref = reference_sample_flips(
                sampler,
                ReferenceBitContext(n, ber, positions % lanes, positions // rows, values),
                ref_rng,
            )
            self._assert_same_draws(flips, ref, rng, ref_rng)

    @pytest.mark.parametrize("geometry", [(64, 4096), (24, 1000)])
    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_validation_geometry(self, model, geometry):
        lane_bits, row_bits = geometry
        n = self.N_BITS + 7
        positions = np.arange(n, dtype=np.int64)
        values = (positions % 3 == 0).astype(np.uint8)
        sampler = self.MODELS[model]()
        rng, ref_rng = np.random.default_rng(2), np.random.default_rng(2)
        for ber in self.BERS:
            flips = sample_flip_positions(
                sampler, n, ber, rng, lane_bits=lane_bits, row_bits=row_bits,
                values=values,
            )
            ref = reference_sample_flips(
                sampler,
                ReferenceBitContext(
                    n, ber, positions % lane_bits, positions // row_bits, values
                ),
                ref_rng,
            )
            self._assert_same_draws(flips, ref, rng, ref_rng)


class TestGeometryForm:
    """A context answers every query exactly as the per-bit arrays it
    stands for (line ids, and the shift form of the words) would."""

    CASES = {
        # name: (dtype, word_bits, lane_bits, row_bits)
        "float32-words": (np.uint32, 32, 64, 1001),
        "int8-words": (np.uint8, 8, 12, 800),
        "int16-words": (np.uint16, 16, 24, 100),
        "ecc-bits": (np.uint8, 1, 64, 77),
        "wider-than-word": (np.uint8, 36, 64, 1001),
        "narrower-than-word": (np.uint32, 12, 5, 97),
    }

    @classmethod
    def _words(cls, case):
        dtype, word_bits = cls.CASES[case][:2]
        rng = np.random.default_rng(9)
        top = 2 if word_bits == 1 else np.iinfo(dtype).max + 1
        words = rng.integers(0, top, size=3000, dtype=np.uint64).astype(dtype)
        # Runs of all-zero and all-one words, each followed by a word
        # whose lowest bit is set, so line boundaries fall next to them.
        ones = 1 if word_bits == 1 else np.iinfo(dtype).max
        words[100:900], words[900] = 0, 1
        words[1200:2100], words[2100] = ones, 1
        return words

    def _pair(self, case):
        _, word_bits, lane_bits, row_bits = self.CASES[case]
        words = self._words(case)
        n_bits = words.size * word_bits
        geometry = BitContext(
            n_bits, 0.01, words=words, word_bits=word_bits,
            lane_bits=lane_bits, row_bits=row_bits,
        )
        shifts = np.arange(word_bits, dtype=np.uint64)
        values = ((words.astype(np.uint64)[:, None] >> shifts) & 1).astype(np.uint8)
        positions = np.arange(n_bits, dtype=np.int64)
        per_bit = ReferenceBitContext(
            n_bits, 0.01, positions % lane_bits, positions // row_bits, values.ravel()
        )
        return geometry, per_bit

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_queries_match_per_bit_arrays(self, case):
        geometry, per_bit = self._pair(case)
        assert geometry.values.dtype == per_bit.values.dtype
        assert np.array_equal(geometry.values, per_bit.values)
        positions = np.random.default_rng(1).integers(0, geometry.n_bits, 500)
        assert np.array_equal(geometry.values_at(positions), per_bit.values[positions] != 0)
        table = np.random.default_rng(2).random(geometry.n_bits)
        one = per_bit.values != 0
        for name in ("bitline_of", "wordline_of"):
            lines = getattr(per_bit, name)
            n_lines = int(lines.max()) + 1
            assert geometry.n_lines(name) == n_lines
            assert np.array_equal(geometry.lines_at(name, positions), lines[positions])
            # Exactly numpy's pairwise sum over the per-bit array.
            assert geometry.line_mean(name, table[:n_lines]) == table[lines].mean()
            assert np.array_equal(
                geometry.line_presence(name), np.bincount(lines, minlength=n_lines) > 0
            )
            assert np.array_equal(
                geometry.line_presence(name, by_value=True),
                np.stack([np.bincount(lines[m], minlength=n_lines) > 0 for m in (~one, one)]),
            )

    def test_a_line_of_ones_holds_no_zero(self):
        rows = BitContext(
            16, 0.01, words=np.array([255, 255], dtype=np.uint8), word_bits=8,
            lane_bits=64, row_bits=8,
        )
        assert rows.line_presence("wordline_of", by_value=True).tolist() == [
            [False, False], [True, True],
        ]

    @pytest.mark.parametrize("case", ["int8-words", "ecc-bits", "wider-than-word"])
    def test_eden_matches_oracle_on_runs(self, case):
        # Ones fail more often: counting the absent (line, 1) pair of a
        # line of zeros would raise p_max.
        geometry, per_bit = self._pair(case)
        model = ErrorModelEden()
        rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
        for ber in (1e-4, 1e-2, 0.5):
            geometry.base_rate = ber
            reference = ReferenceBitContext(
                per_bit.n_bits, ber, wordline_of=per_bit.wordline_of,
                values=per_bit.values,
            )
            flips = model.sample_flips(geometry, rng)
            ref = reference_sample_flips(model, reference, ref_rng)
            assert flips.tobytes() == ref.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state
