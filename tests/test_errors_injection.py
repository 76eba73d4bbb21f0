"""Tests of bit-error injection into weight tensors."""

import numpy as np
import pytest
from errors_oracle import OracleInjector

from repro.errors.ecc import EccProtectedRepresentation
from repro.errors.injection import ErrorInjector
from repro.errors.models import ERROR_MODELS, ErrorModel3, make_error_model
from repro.snn.quantization import FixedPointRepresentation, Float32Representation


@pytest.fixture
def weights(rng):
    return rng.random((50, 40)).astype(np.float32)


class TestUniformInjection:
    def test_zero_ber_is_identity(self, weights):
        injector = ErrorInjector(Float32Representation(), seed=0)
        out, report = injector.inject_uniform(weights, 0.0)
        assert np.array_equal(out, weights)
        assert report.flipped_bits == 0

    def test_achieved_ber_close_to_requested(self, weights):
        injector = ErrorInjector(Float32Representation(sanitize=False), seed=0)
        out, report = injector.inject_uniform(weights, 0.01)
        assert report.total_bits == weights.size * 32
        assert report.flipped_bits / report.total_bits == pytest.approx(0.01, rel=0.5)

    def test_flip_count_matches_bit_difference(self, weights):
        injector = ErrorInjector(Float32Representation(sanitize=False), seed=1)
        out, report = injector.inject_uniform(weights, 0.005)
        diff = np.bitwise_xor(weights.view(np.uint32), out.view(np.uint32))
        assert int(np.unpackbits(diff.view(np.uint8)).sum()) == report.flipped_bits

    def test_input_untouched(self, weights):
        original = weights.copy()
        ErrorInjector(Float32Representation(), seed=0).inject_uniform(weights, 0.01)
        assert np.array_equal(weights, original)

    def test_shape_preserved(self, weights):
        out, _ = ErrorInjector(Float32Representation(), seed=0).inject_uniform(
            weights, 0.01
        )
        assert out.shape == weights.shape

    def test_deterministic_with_explicit_rng(self, weights):
        injector = ErrorInjector(Float32Representation(), seed=0)
        a, _ = injector.inject_uniform(weights, 0.01, rng=np.random.default_rng(9))
        b, _ = injector.inject_uniform(weights, 0.01, rng=np.random.default_rng(9))
        assert np.array_equal(a, b)

    def test_internal_stream_advances(self, weights):
        injector = ErrorInjector(Float32Representation(), seed=0)
        a, _ = injector.inject_uniform(weights, 0.01)
        b, _ = injector.inject_uniform(weights, 0.01)
        assert not np.array_equal(a, b)

    def test_sanitize_removes_nonfinite(self, weights):
        injector = ErrorInjector(Float32Representation(sanitize=True), seed=0)
        out, _ = injector.inject_uniform(weights, 0.05)
        assert np.all(np.isfinite(out))

    def test_clip_range_respected(self, weights):
        rep = Float32Representation(clip_range=(0.0, 1.0))
        out, _ = ErrorInjector(rep, seed=0).inject_uniform(weights, 0.05)
        assert out.min() >= 0.0 and out.max() <= 1.0


class TestUniformMatchesRegionOracle:
    """``inject_uniform`` is ``inject_by_region`` with one all-zeros region
    map: same arrays, same reports, same draws."""

    REPRESENTATIONS = {
        "float32": lambda: Float32Representation(clip_range=(0.0, 1.0)),
        "int8": lambda: FixedPointRepresentation(bits=8),
    }
    TENSORS = {
        "784xN": lambda: np.random.default_rng(5).random((784, 4)) * 0.3,
        "784xN-float32": lambda: (
            np.random.default_rng(5).random((784, 4)) * 0.3
        ).astype(np.float32),
        "empty": lambda: np.empty((0, 4)),
    }

    @pytest.mark.parametrize("tensor", sorted(TENSORS))
    @pytest.mark.parametrize("ber", [0.0, 1e-9, 1e-5, 1e-2, 1.0])
    @pytest.mark.parametrize("representation", sorted(REPRESENTATIONS))
    @pytest.mark.parametrize("model", sorted(ERROR_MODELS))
    def test_successive_calls_match(self, model, representation, ber, tensor):
        weights = self.TENSORS[tensor]()
        original = weights.copy()
        injector = ErrorInjector(
            self.REPRESENTATIONS[representation](),
            model=make_error_model(model),
            row_bits=8192,
        )
        region_of_weight = np.zeros(weights.size, dtype=np.int64)
        uniform_rng, region_rng = np.random.default_rng(3), np.random.default_rng(3)
        for _ in range(20):
            out, report = injector.inject_uniform(weights, ber, rng=uniform_rng)
            expected, expected_report = injector.inject_by_region(
                weights, region_of_weight, [ber], rng=region_rng
            )
            assert out.dtype == expected.dtype
            assert np.array_equal(out, expected)
            assert report == expected_report
        assert uniform_rng.bit_generator.state == region_rng.bit_generator.state
        assert np.array_equal(weights, original)

    @pytest.mark.parametrize("ber", [-0.1, 1.5])
    def test_same_rate_error(self, ber):
        weights = self.TENSORS["784xN"]()
        injector = ErrorInjector(Float32Representation(), seed=0)
        with pytest.raises(ValueError) as uniform:
            injector.inject_uniform(weights, ber)
        with pytest.raises(ValueError) as region:
            injector.inject_by_region(
                weights, np.zeros(weights.size, dtype=np.int64), [ber]
            )
        assert str(uniform.value) == str(region.value)

    @pytest.mark.parametrize(
        "representation",
        [
            FixedPointRepresentation(bits=8),
            FixedPointRepresentation(bits=16),
            Float32Representation(),
            # One stored bit per uint8 word, 36 bits per weight.
            EccProtectedRepresentation(Float32Representation()),
        ],
        ids=["8-bit", "16-bit", "32-bit", "ecc-36-bit"],
    )
    def test_values_match_shift_form(self, representation):
        rng = np.random.default_rng(8)
        words = np.ravel(representation.encode(rng.random(1000)))
        bpw = representation.bits_per_weight
        injector = ErrorInjector(representation, model=ErrorModel3())
        values = injector._context_for(words, bpw, 0.01).values
        shifts = np.arange(bpw, dtype=np.uint64)
        shifted = (words.astype(np.uint64)[:, None] >> shifts[None, :]) & 1
        assert values.dtype == np.uint8
        assert np.array_equal(values, shifted.astype(np.uint8).ravel())


class TestFixedPointInjection:
    def test_int8_flip_bounded_damage(self, rng):
        weights = rng.random(1000).astype(np.float32)
        rep = FixedPointRepresentation(bits=8, w_min=0.0, w_max=1.0)
        injector = ErrorInjector(rep, seed=0)
        out, report = injector.inject_uniform(weights, 0.01)
        clean = rep.decode(rep.encode(weights))
        # any single int8 bit flip moves a weight by at most the MSB step
        msb_step = (rep.w_max - rep.w_min) * 128 / 255
        assert np.max(np.abs(out - clean)) <= msb_step * 2 + 1e-6
        assert report.total_bits == weights.size * 8


class TestRegionInjection:
    def test_region_rates_respected(self, rng):
        weights = rng.random(20_000).astype(np.float32)
        regions = (np.arange(weights.size) >= weights.size // 2).astype(np.int64)
        rates = np.array([0.0, 0.02])
        injector = ErrorInjector(Float32Representation(sanitize=False), seed=0)
        out, report = injector.inject_by_region(weights, regions, rates)
        first_half = slice(0, weights.size // 2)
        second_half = slice(weights.size // 2, None)
        assert np.array_equal(out.ravel()[first_half], weights[first_half])
        assert not np.array_equal(out.ravel()[second_half], weights[second_half])
        assert report.per_region_flips[0] == 0
        assert report.per_region_flips[1] > 0

    def test_region_index_validation(self, rng):
        weights = rng.random(10).astype(np.float32)
        injector = ErrorInjector(Float32Representation(), seed=0)
        with pytest.raises(IndexError):
            injector.inject_by_region(
                weights, np.full(10, 3, dtype=np.int64), np.array([0.1])
            )

    def test_region_shape_validation(self, rng):
        weights = rng.random(10).astype(np.float32)
        injector = ErrorInjector(Float32Representation(), seed=0)
        with pytest.raises(ValueError):
            injector.inject_by_region(
                weights, np.zeros(5, dtype=np.int64), np.array([0.1])
            )

    def test_rate_range_validation(self, rng):
        weights = rng.random(10).astype(np.float32)
        injector = ErrorInjector(Float32Representation(), seed=0)
        with pytest.raises(ValueError):
            injector.inject_by_region(
                weights, np.zeros(10, dtype=np.int64), np.array([1.5])
            )


class TestStructuredModels:
    def test_model3_uses_stored_values(self, rng):
        # Data-dependent model: all-zero words can only see 0->1 flips.
        weights = np.zeros(5000, dtype=np.float32)
        injector = ErrorInjector(
            Float32Representation(sanitize=False),
            model=ErrorModel3(),
            seed=0,
        )
        out, report = injector.inject_uniform(weights, 0.01)
        assert report.flipped_bits > 0
        assert np.any(out != 0.0)

    @pytest.mark.parametrize("name", ["model0", "model1", "model2", "model3"])
    def test_all_models_work_through_injector(self, name, rng):
        weights = rng.random(4096).astype(np.float32)
        injector = ErrorInjector(
            Float32Representation(),
            model=make_error_model(name),
            lane_bits=64,
            row_bits=8192,
            seed=0,
        )
        out, report = injector.inject_uniform(weights, 0.01)
        assert out.shape == weights.shape
        assert report.flipped_bits >= 0

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            ErrorInjector(Float32Representation(), lane_bits=0)


@pytest.mark.filterwarnings("ignore:invalid value encountered in cast")
class TestInjectionMatchesOracle:
    """The injector against the historical per-bit path of
    ``tests/errors_oracle.py``: same corrupted bytes, same reports, same
    random-stream end state, for every model, representation, geometry,
    BER and entry point."""

    REPRESENTATIONS = {
        "float32": lambda: Float32Representation(clip_range=(0.0, 1.0)),
        "float32-raw": lambda: Float32Representation(sanitize=False),
        "int8": lambda: FixedPointRepresentation(bits=8),
        "int16": lambda: FixedPointRepresentation(bits=16),
    }
    #: (neurons, row_bits, lane_bits): every region ends on a partial
    #: wordline; 1001 and 12 are divided by no word width.
    GEOMETRIES = {
        "N3": (3, 8192, 64),
        "N3-odd": (3, 1001, 12),
        "N100": (100, 65536, 64),
    }
    BERS = (0.0, 1e-9, 1e-5, 1e-3, 0.3, 1.0)

    @staticmethod
    def _tensor(kind, n_neurons):
        weights = np.random.default_rng(5).random((784, n_neurons)) * 0.3
        if kind == "zero-block":
            weights[:, : max(1, n_neurons // 3)] = 0.0
        elif kind == "all-zero":
            weights[:] = 0.0
        elif kind == "non-finite":
            weights[::97, 0] = np.nan
            weights[5::89, 1] = np.inf
            weights[7::83, 2] = -np.inf
        return weights

    @staticmethod
    def _pair(representation, model, geometry):
        _, row_bits, lane_bits = geometry
        return [
            cls(
                TestInjectionMatchesOracle.REPRESENTATIONS[representation](),
                model=make_error_model(model),
                row_bits=row_bits,
                lane_bits=lane_bits,
            )
            for cls in (ErrorInjector, OracleInjector)
        ]

    @staticmethod
    def _assert_same(got, expected):
        (out, report), (ref, ref_report) = got, expected
        assert out.dtype == ref.dtype and out.shape == ref.shape
        assert out.tobytes() == ref.tobytes()
        assert report == ref_report

    def _check(self, representation, model, geometry, kind, bers):
        weights = self._tensor(kind, geometry[0])
        original = weights.copy()
        injector, oracle = self._pair(representation, model, geometry)
        regions = np.arange(weights.size) % 3 // 2  # two interleaved regions
        for ber in bers:
            rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
            for _ in range(2):
                self._assert_same(
                    injector.inject_uniform(weights, ber, rng=rng),
                    oracle.inject_uniform(weights, ber, rng=ref_rng),
                )
            self._assert_same(
                injector.inject_by_region(weights, regions, [ber, ber / 7], rng=rng),
                oracle.inject_by_region(weights, regions, [ber, ber / 7], rng=ref_rng),
            )
            stack, reports = injector.inject_stack(weights, [ber, ber / 2], rng=rng)
            ref_stack, ref_reports = oracle.inject_stack(weights, [ber, ber / 2], rng=ref_rng)
            assert stack.tobytes() == ref_stack.tobytes() and reports == ref_reports
            assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert np.array_equal(weights, original, equal_nan=True)

    @pytest.mark.parametrize(
        "representation,kind",
        [
            (representation, kind)
            for representation in sorted(REPRESENTATIONS)
            for kind in ("random", "zero-block", "all-zero", "non-finite")
            # fixed point cannot store NaN or inf
            if kind != "non-finite" or representation.startswith("float32")
        ],
    )
    @pytest.mark.parametrize("geometry", ["N3", "N3-odd"])
    @pytest.mark.parametrize("model", sorted(ERROR_MODELS))
    def test_small_geometries(self, model, geometry, representation, kind):
        self._check(representation, model, self.GEOMETRIES[geometry], kind, self.BERS)

    @pytest.mark.parametrize("kind", ["random", "zero-block"])
    @pytest.mark.parametrize("model", sorted(ERROR_MODELS))
    def test_n100(self, model, kind):
        self._check("float32", model, self.GEOMETRIES["N100"], kind, (1e-5, 1e-3))

    @pytest.mark.parametrize("model", ["model1", "model2", "model3", "eden"])
    def test_n400(self, model):
        weights = self._tensor("zero-block", 400)
        injector, oracle = self._pair("float32", model, (400, 65536, 64))
        rng, ref_rng = np.random.default_rng(8), np.random.default_rng(8)
        for ber in (1e-9, 1e-3):
            self._assert_same(
                injector.inject_uniform(weights, ber, rng=rng),
                oracle.inject_uniform(weights, ber, rng=ref_rng),
            )
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("model", ["model1", "model3", "eden"])
    def test_ecc_matches_corrected_oracle(self, model):
        weights = np.random.default_rng(2).random((64, 9))
        injector, oracle = (
            cls(
                EccProtectedRepresentation(Float32Representation()),
                model=make_error_model(model),
                row_bits=1001,
            )
            for cls in (ErrorInjector, OracleInjector)
        )
        regions = np.arange(weights.size) % 2
        rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
        for ber in (1e-5, 1e-2, 0.3):
            self._assert_same(
                injector.inject_uniform(weights, ber, rng=rng),
                oracle.inject_uniform(weights, ber, rng=ref_rng),
            )
            self._assert_same(
                injector.inject_by_region(weights, regions, [ber, ber / 3], rng=rng),
                oracle.inject_by_region(weights, regions, [ber, ber / 3], rng=ref_rng),
            )
        assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestEccBitSpace:
    def test_data_dependent_models_read_the_stored_bits(self):
        # ECC stores one bit per uint8 word: Model-3 must see the stored
        # codeword bits, not the first n_weights words read 36 bits wide.
        representation = EccProtectedRepresentation(Float32Representation())
        weights = np.random.default_rng(8).random(1000)
        seen = []

        class Recording(ErrorModel3):
            def sample_flips(self, context, rng):
                seen.append((context.n_bits, int(context.values.sum())))
                return super().sample_flips(context, rng)

        injector = ErrorInjector(representation, model=Recording(), seed=0)
        injector.inject_uniform(weights, 1e-3)
        stored = representation.encode(weights)
        assert seen == [(36_000, int(stored[:36_000].sum()))]
        assert seen[0][1] > 15_000  # about half of the stored bits are 1s
