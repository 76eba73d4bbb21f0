"""Tests of the Section III error models (Models 0-3)."""

import numpy as np
import pytest

from repro.errors.models import (
    BitContext,
    ErrorModel0,
    ErrorModel1,
    ErrorModel2,
    ErrorModel3,
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

    def test_unit_factors_match_unique_form(self):
        model = ErrorModel2(sigma=0.6, structure_seed=3)
        unit_ids = np.random.default_rng(4).integers(5, 60, size=5000)
        factors = np.random.default_rng(3).lognormal(
            mean=0.0, sigma=0.6, size=int(np.unique(unit_ids).max()) + 1
        )
        per_bit = factors[unit_ids]
        assert np.array_equal(model._unit_factors(unit_ids), per_bit / per_bit.mean())


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

    def test_declared_context_fields(self):
        from repro.errors.models import ErrorModelEden

        assert ErrorModelEden.context_fields == ("wordline_of", "values")

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
