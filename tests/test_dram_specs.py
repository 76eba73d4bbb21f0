"""Unit tests for DRAM device specifications."""

import dataclasses
import json

import pytest

from repro.dram.specs import (
    DramGeometry,
    ElectricalParameters,
    LPDDR3_1600_4GB,
    get_dram_spec,
    spec_from_dict,
    spec_to_dict,
    tiny_spec,
)


class TestDramGeometry:
    def test_default_geometry_is_valid(self):
        DramGeometry().validate()

    def test_capacity_chain_is_consistent(self):
        g = DramGeometry()
        assert g.rows_per_bank == g.subarrays_per_bank * g.rows_per_subarray
        assert g.row_size_bits == g.columns_per_row * g.column_width_bits
        assert g.subarray_size_bits == g.rows_per_subarray * g.row_size_bits
        assert g.bank_size_bits == g.subarrays_per_bank * g.subarray_size_bits
        assert g.chip_size_bits == g.banks_per_chip * g.bank_size_bits

    def test_total_size_multiplies_all_levels(self):
        g = DramGeometry(channels=2, ranks_per_channel=3, chips_per_rank=4)
        assert g.total_size_bits == 2 * 3 * 4 * g.chip_size_bits

    def test_total_subarrays(self):
        g = DramGeometry(channels=2, banks_per_chip=4, subarrays_per_bank=8)
        assert g.total_subarrays == 2 * 4 * 8

    @pytest.mark.parametrize("field", ["channels", "banks_per_chip", "rows_per_subarray"])
    def test_nonpositive_dimension_rejected(self, field):
        g = dataclasses.replace(DramGeometry(), **{field: 0})
        with pytest.raises(ValueError, match=field):
            g.validate()


class TestElectricalParameters:
    def test_defaults_valid(self):
        ElectricalParameters().validate()

    def test_vmin_above_nominal_rejected(self):
        bad = ElectricalParameters(v_nominal_volts=1.0, v_min_volts=1.2)
        with pytest.raises(ValueError):
            bad.validate()


class TestPaperSpec:
    def test_lpddr3_is_4_gigabit(self):
        # The paper's device: LPDDR3-1600 4Gb.
        assert LPDDR3_1600_4GB.geometry.total_size_bits == 4 * 2**30

    def test_lpddr3_nominal_voltage(self):
        assert LPDDR3_1600_4GB.electrical.v_nominal_volts == pytest.approx(1.35)
        assert LPDDR3_1600_4GB.electrical.v_min_volts == pytest.approx(1.025)

    def test_lpddr3_clock_matches_1600(self):
        # DDR-1600 -> 800 MHz -> 1.25 ns.
        assert LPDDR3_1600_4GB.timings.clock_ns == pytest.approx(1.25)

    def test_scaled_overrides_geometry_only(self):
        small = LPDDR3_1600_4GB.scaled(rows_per_subarray=4, columns_per_row=8)
        assert small.geometry.rows_per_subarray == 4
        assert small.geometry.columns_per_row == 8
        assert small.geometry.banks_per_chip == LPDDR3_1600_4GB.geometry.banks_per_chip
        assert small.timings == LPDDR3_1600_4GB.timings
        small.validate()


class TestWireForm:
    @pytest.mark.parametrize(
        "spec", [LPDDR3_1600_4GB, tiny_spec().scaled(rows_per_subarray=8)], ids=["lpddr3", "custom"]
    )
    def test_dict_roundtrip_through_json(self, spec):
        # Configs ship their spec to workers as JSON; an unregistered
        # custom device must arrive whole.
        assert spec_from_dict(json.loads(json.dumps(spec_to_dict(spec)))) == spec


class TestTinySpec:
    def test_tiny_spec_valid_and_small(self):
        spec = tiny_spec()
        spec.validate()
        assert spec.geometry.total_size_bits <= 64 * 1024

    def test_tiny_spec_custom_name(self):
        # How a test names its own tiny device (the DRAM oracle's
        # multi-chip spec): the name survives the wire form, and the
        # device is the tiny one otherwise.
        spec = dataclasses.replace(tiny_spec(), name="abc")
        spec.validate()
        assert spec_from_dict(json.loads(json.dumps(spec_to_dict(spec)))) == spec
        assert dataclasses.replace(spec, name=tiny_spec().name) == tiny_spec()


class TestDdr5Spec:
    def test_registered_and_valid(self):
        spec = get_dram_spec("ddr5-4800-8gb")
        spec.validate()
        assert get_dram_spec("ddr5").name == spec.name

    def test_capacity_is_8gb(self):
        spec = get_dram_spec("ddr5")
        assert spec.geometry.total_size_bits == 8 * 2**30

    def test_lower_nominal_voltage_than_lpddr3(self):
        ddr5 = get_dram_spec("ddr5")
        lpddr3 = get_dram_spec("lpddr3")
        assert ddr5.electrical.v_nominal_volts < lpddr3.electrical.v_nominal_volts
        assert ddr5.electrical.v_min_volts < ddr5.electrical.v_nominal_volts

    def test_doubled_burst_length(self):
        assert get_dram_spec("ddr5").timings.burst_length == 16

    def test_usable_in_config_with_scaled_voltages(self):
        from repro import SparkXDConfig

        config = SparkXDConfig.small(
            dram_spec=get_dram_spec("ddr5"), voltages=(1.1, 1.0, 0.9)
        )
        assert config.v_nominal == 1.1
