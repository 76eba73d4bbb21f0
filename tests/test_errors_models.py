"""Tests of the Section III error models (Models 0-3)."""

import numpy as np
import pytest
from errors_oracle import ReferenceBitContext, reference_sample_flips
from errors_validation import sample_flip_positions

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


def make_context(n_bits=100_000, rate=1e-3, lanes=64, rows=4096, values=None):
    positions = np.arange(n_bits, dtype=np.int64)
    return BitContext(
        n_bits=n_bits,
        base_rate=rate,
        bitline_of=positions % lanes,
        wordline_of=positions // rows,
        values=values,
    )


class TestBitContext:
    def test_validation_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            BitContext(n_bits=10, base_rate=1.5)

    def test_validation_rejects_mismatched_arrays(self):
        with pytest.raises(ValueError):
            BitContext(n_bits=10, base_rate=0.1, bitline_of=np.zeros(5, dtype=int))

    def test_word_geometry_must_cover_the_bits(self):
        with pytest.raises(ValueError, match="3 words of 8 bits are not 32 bits"):
            BitContext(n_bits=32, base_rate=0.1, words=np.zeros(3, dtype=np.uint8), word_bits=8)

    def test_negative_bits_rejected(self):
        with pytest.raises(ValueError):
            BitContext(n_bits=-1, base_rate=0.1)


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
        ctx = BitContext(n_bits=0, base_rate=0.5)
        assert ErrorModel0().sample_flips(ctx, np.random.default_rng(0)).size == 0


class TestModel1:
    def test_requires_bitlines(self):
        ctx = BitContext(n_bits=100, base_rate=0.1)
        with pytest.raises(ValueError, match="bitline"):
            ErrorModel1().sample_flips(ctx, np.random.default_rng(0))

    def test_errors_concentrate_on_weak_bitlines(self):
        # Vertical structure: flip counts per bitline should be far more
        # dispersed than a uniform model would produce.
        model = ErrorModel1(sigma=2.0, structure_seed=7)
        ctx = make_context(n_bits=640_000, rate=5e-3, lanes=64)
        rng = np.random.default_rng(0)
        flips = model.sample_flips(ctx, rng)
        per_lane = np.bincount(flips % 64, minlength=64)
        uniform = ErrorModel0().sample_flips(ctx, np.random.default_rng(1))
        per_lane_uniform = np.bincount(uniform % 64, minlength=64)
        assert per_lane.std() > 2 * per_lane_uniform.std()

    def test_mean_rate_preserved(self):
        model = ErrorModel1(sigma=1.0, structure_seed=3)
        ctx = make_context(n_bits=400_000, rate=2e-3)
        flips = model.sample_flips(ctx, np.random.default_rng(2))
        assert flips.size / ctx.n_bits == pytest.approx(2e-3, rel=0.3)


    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError, match="sigma"):
            ErrorModel1(sigma=-0.5)


class TestModel2:
    def test_requires_wordlines(self):
        ctx = BitContext(n_bits=100, base_rate=0.1)
        with pytest.raises(ValueError, match="wordline"):
            ErrorModel2().sample_flips(ctx, np.random.default_rng(0))

    def test_errors_concentrate_on_weak_wordlines(self):
        model = ErrorModel2(sigma=2.0, structure_seed=11)
        n_bits, row_bits = 400_000, 10_000
        positions = np.arange(n_bits, dtype=np.int64)
        ctx = BitContext(
            n_bits=n_bits, base_rate=5e-3, wordline_of=positions // row_bits
        )
        flips = model.sample_flips(ctx, np.random.default_rng(0))
        per_row = np.bincount(flips // row_bits, minlength=n_bits // row_bits)
        uniform = ErrorModel0().sample_flips(ctx, np.random.default_rng(1))
        per_row_uniform = np.bincount(uniform // row_bits, minlength=n_bits // row_bits)
        assert per_row.std() > 2 * per_row_uniform.std()


class TestModel3:
    def test_requires_values(self):
        ctx = BitContext(n_bits=100, base_rate=0.1)
        with pytest.raises(ValueError, match="values"):
            ErrorModel3().sample_flips(ctx, np.random.default_rng(0))

    def test_ones_fail_more_than_zeros(self):
        n = 400_000
        values = (np.arange(n) % 2).astype(np.uint8)  # half ones
        ctx = BitContext(n_bits=n, base_rate=2e-3, values=values)
        model = ErrorModel3(one_to_zero_ratio=4.0)
        flips = model.sample_flips(ctx, np.random.default_rng(0))
        flipped_ones = int(values[flips].sum())
        flipped_zeros = flips.size - flipped_ones
        assert flipped_ones > 2 * flipped_zeros

    def test_overall_rate_preserved_on_balanced_data(self):
        n = 400_000
        values = (np.arange(n) % 2).astype(np.uint8)
        ctx = BitContext(n_bits=n, base_rate=2e-3, values=values)
        flips = ErrorModel3().sample_flips(ctx, np.random.default_rng(1))
        assert flips.size / n == pytest.approx(2e-3, rel=0.3)

    def test_invalid_ratio_rejected(self):
        with pytest.raises(ValueError):
            ErrorModel3(one_to_zero_ratio=0.0)


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
        return BitContext(
            n_bits=n_bits,
            base_rate=rate,
            wordline_of=np.repeat(np.arange(n_bits // 100), 100).astype(np.int64),
            values=(rng.random(n_bits) < 0.5).astype(np.uint8),
        )

    def test_requires_wordlines_and_values(self):
        from repro.errors.models import ErrorModelEden

        model = ErrorModelEden()
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            model.sample_flips(BitContext(10, 0.1, values=np.zeros(10, np.uint8)), rng)
        with pytest.raises(ValueError):
            model.sample_flips(
                BitContext(10, 0.1, wordline_of=np.zeros(10, np.int64)), rng
            )

    def test_mean_rate_near_base(self):
        from repro.errors.models import ErrorModelEden

        model = ErrorModelEden(sigma=0.4)
        context = self._context(n_bits=200000, rate=0.01)
        flips = model.sample_flips(context, np.random.default_rng(1))
        achieved = flips.size / context.n_bits
        assert 0.005 < achieved < 0.02

    def test_ones_fail_more_than_zeros(self):
        from repro.errors.models import ErrorModelEden

        model = ErrorModelEden(sigma=0.0, one_to_zero_ratio=8.0)
        context = self._context(n_bits=200000, rate=0.02)
        flips = model.sample_flips(context, np.random.default_rng(2))
        flipped_values = context.values[flips]
        ones = int((flipped_values != 0).sum())
        zeros = int((flipped_values == 0).sum())
        assert ones > 3 * zeros

    def test_ratio_validation(self):
        from repro.errors.models import ErrorModelEden

        with pytest.raises(ValueError):
            ErrorModelEden(one_to_zero_ratio=0.0)

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


class TestSamplersMatchOracle:
    """Every model against its historical per-bit ``sample_flips`` body
    (``tests/errors_oracle.py``): same flips, same random-stream end
    state, on explicit-array contexts and on the geometry form that
    :func:`errors_validation.sample_flip_positions` builds."""

    N_BITS = 50_000
    BERS = (0.0, 1e-9, 1e-5, 1e-3, 0.3, 1.0)
    MODELS = {
        **{name: (lambda name=name: make_error_model(name)) for name in ERROR_MODELS},
        "model1-wide": lambda: ErrorModel1(sigma=2.0, structure_seed=7),
        "eden-flat": lambda: ErrorModelEden(sigma=0.0, one_to_zero_ratio=8.0),
    }

    @classmethod
    def _arrays(cls, kind):
        n = cls.N_BITS
        positions = np.arange(n, dtype=np.int64)
        rng = np.random.default_rng(6)
        values = (rng.random(n) < 0.4).astype(np.uint8)
        if kind == "irregular":
            return dict(
                bitline_of=rng.integers(3, 40, n),
                wordline_of=rng.integers(5, 60, n),
                values=values * 3,
            )
        if kind == "eden-rows":  # TestEdenModel's context
            return dict(
                bitline_of=positions % 64,
                wordline_of=np.repeat(np.arange(n // 100), 100).astype(np.int64),
                values=values,
            )
        return dict(  # make_context's, with all-zero values for "zero-values"
            bitline_of=positions % 64,
            wordline_of=positions // 4096,
            values=values if kind == "regular" else np.zeros(n, dtype=np.uint8),
        )

    @staticmethod
    def _assert_same_draws(flips, ref, rng, ref_rng):
        assert flips.dtype == ref.dtype and flips.tobytes() == ref.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("kind", ["regular", "irregular", "eden-rows", "zero-values"])
    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_explicit_arrays(self, model, kind):
        arrays = self._arrays(kind)
        sampler = self.MODELS[model]()
        rng, ref_rng = np.random.default_rng(1), np.random.default_rng(1)
        for ber in self.BERS:
            flips = sampler.sample_flips(BitContext(self.N_BITS, ber, **arrays), rng)
            ref = reference_sample_flips(
                sampler, ReferenceBitContext(self.N_BITS, ber, **arrays), ref_rng
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
    """A geometry-form context answers every query exactly as the
    explicit per-bit arrays it stands for (the shift form of the words)."""

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
        explicit = BitContext(
            n_bits, 0.01, bitline_of=positions % lane_bits,
            wordline_of=positions // row_bits, values=values.ravel(),
        )
        return geometry, explicit

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_queries_match_explicit_arrays(self, case):
        geometry, explicit = self._pair(case)
        for name in ("bitline_of", "wordline_of", "values"):
            derived = getattr(geometry, name)
            assert derived.dtype == getattr(explicit, name).dtype
            assert np.array_equal(derived, getattr(explicit, name))
        positions = np.random.default_rng(1).integers(0, geometry.n_bits, 500)
        assert np.array_equal(geometry.values_at(positions), explicit.values_at(positions))
        table = np.random.default_rng(2).random(geometry.n_bits)
        for name in ("bitline_of", "wordline_of"):
            assert geometry.n_lines(name) == explicit.n_lines(name)
            assert np.array_equal(
                geometry.lines_at(name, positions), explicit.lines_at(name, positions)
            )
            n_lines = geometry.n_lines(name)
            assert geometry.line_mean(name, table[:n_lines]) == explicit.line_mean(
                name, table[:n_lines]
            )
            for by_value in (False, True):
                assert np.array_equal(
                    geometry.line_presence(name, by_value),
                    explicit.line_presence(name, by_value),
                )

    def test_a_line_of_ones_holds_no_zero(self):
        rows = BitContext(
            16, 0.01, words=np.array([255, 255], dtype=np.uint8), word_bits=8,
            row_bits=8,
        )
        assert rows.line_presence("wordline_of", by_value=True).tolist() == [
            [False, False], [True, True],
        ]

    @pytest.mark.parametrize("ratio", [0.25, 4.0])
    @pytest.mark.parametrize("case", ["int8-words", "ecc-bits", "wider-than-word"])
    def test_eden_matches_oracle_on_runs(self, case, ratio):
        # With ratio < 1 zeros fail more often: counting the absent
        # (line, 0) pair of a line of ones would raise p_max.
        geometry, explicit = self._pair(case)
        model = ErrorModelEden(sigma=0.8, structure_seed=3, one_to_zero_ratio=ratio)
        rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
        for ber in (1e-4, 1e-2, 0.5):
            geometry.base_rate = ber
            reference = ReferenceBitContext(
                explicit.n_bits, ber, wordline_of=explicit.wordline_of,
                values=explicit.values,
            )
            flips = model.sample_flips(geometry, rng)
            ref = reference_sample_flips(model, reference, ref_rng)
            assert flips.tobytes() == ref.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state
