"""Tests of the plugin registries (datasets, error models, policies, specs)."""

import pytest

from repro.core.mapping_policy import MAPPING_POLICIES
from repro.datasets import DATASETS, load_dataset
from repro.dram.specs import DRAM_SPECS, get_dram_spec
from repro.errors.models import ERROR_MODELS, ErrorModel0, make_error_model
from repro.registry import Registry, RegistryError


class TestRegistry:
    def test_register_and_get(self):
        reg = Registry("thing")
        reg.register("alpha", 1)
        assert reg.get("alpha") == 1
        assert "alpha" in reg
        assert reg.names() == ("alpha",)

    def test_decorator_form(self):
        reg = Registry("thing")

        @reg.register("fn")
        def fn():
            return 7

        assert reg.get("fn") is fn

    def test_aliases_and_normalisation(self):
        reg = Registry("thing")
        reg.register("my-name", "value", aliases=("other",))
        assert reg.get("MY_NAME") == "value"
        assert reg.get("other") == "value"
        assert reg.canonical_name("other") == "my-name"

    def test_unknown_name_lists_choices(self):
        reg = Registry("gadget")
        reg.register("a", 1)
        reg.register("b", 2)
        with pytest.raises(RegistryError, match=r"unknown gadget 'c'.*'a'.*'b'"):
            reg.get("c")

    def test_registry_error_is_value_error(self):
        assert issubclass(RegistryError, ValueError)

    def test_duplicate_rejected(self):
        reg = Registry("thing")
        reg.register("x", 1)
        with pytest.raises(RegistryError):
            reg.register("x", 2)
        reg.register("x", 2, overwrite=True)
        assert reg.get("x") == 2

    def test_alias_collision_rejected(self):
        reg = Registry("thing")
        reg.register("a", 1, aliases=("shared",))
        with pytest.raises(RegistryError, match="alias 'shared'"):
            reg.register("b", 2, aliases=("shared",))
        with pytest.raises(RegistryError, match="alias 'a'"):
            reg.register("c", 3, aliases=("a",))
        assert reg.get("shared") == 1

    def test_overwrite_displaces_stale_alias(self):
        reg = Registry("thing")
        reg.register("a", 1, aliases=("b",))
        reg.register("b", 2, overwrite=True)
        assert reg.get("b") == 2
        assert reg.canonical_name("b") == "b"
        assert reg.get("a") == 1


class TestFrameworkRegistries:
    def test_datasets_registered(self):
        assert set(DATASETS.names()) >= {"mnist", "fashion"}
        dataset = load_dataset("fashion-mnist", 12, 8, seed=3)
        assert dataset.train_images.shape[0] == 12

    def test_unknown_dataset_raises_value_error(self):
        with pytest.raises(ValueError):
            load_dataset("imagenet", 10, 10)

    def test_error_models_registered(self):
        assert set(ERROR_MODELS.names()) == {
            "model0",
            "model1",
            "model2",
            "model3",
            "eden",
        }
        assert isinstance(make_error_model("model-0"), ErrorModel0)
        assert isinstance(make_error_model("uniform"), ErrorModel0)

    def test_eden_model_registered_with_aliases(self):
        from repro.errors.models import ErrorModelEden

        assert isinstance(make_error_model("eden"), ErrorModelEden)
        assert isinstance(ERROR_MODELS.get("model4")(), ErrorModelEden)

    def test_unknown_error_model_raises(self):
        with pytest.raises(ValueError):
            make_error_model("model9")

    def test_mapping_policies_registered(self):
        assert set(MAPPING_POLICIES.names()) == {"baseline", "sparkxd"}
        assert MAPPING_POLICIES.canonical_name("sparkxd-algorithm2") == "sparkxd"
        with pytest.raises(ValueError):
            MAPPING_POLICIES.get("random-scatter")

    def test_dram_specs_registered(self):
        assert "lpddr3-1600-4gb" in DRAM_SPECS.names()
        assert "ddr5-4800-8gb" in DRAM_SPECS.names()
        assert get_dram_spec("tiny").name == "tiny-test-dram"
        assert get_dram_spec("ddr5").name == "DDR5-4800 8Gb"
        with pytest.raises(ValueError):
            get_dram_spec("ddr6")

    def test_config_rejects_unknown_mapping_policy(self):
        from repro import SparkXDConfig

        with pytest.raises(ValueError):
            SparkXDConfig(mapping_policy="does-not-exist")
