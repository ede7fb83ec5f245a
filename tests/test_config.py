"""ModelConfig and TrainConfig check every field when they are built."""

from dataclasses import FrozenInstanceError, asdict, replace

import numpy as np
import pytest

from spantriplet.errors import ConfigurationError
from spantriplet.model import ModelConfig, config_from_dict
from spantriplet.training import TrainConfig, sweep_settings

SMALL = ModelConfig(embedding_dim=6, lstm_hidden=4, ffnn_hidden=5, width_dim=3,
                    distance_dim=3)


class TestModelConfigRules:
    @pytest.mark.parametrize("field, value", [
        # range rules
        ("embedding_dim", 0), ("lstm_hidden", 0), ("ffnn_hidden", 0), ("ffnn_layers", 0),
        ("width_dim", 0), ("distance_dim", 0), ("max_span_gap", -1),
        ("lstm_dropout", 1.0), ("lstm_dropout", -0.1), ("ffnn_dropout", 1.0),
        ("span_mode", "bogus"), ("channel_mode", "triple"), ("z", 0), ("z", -0.5),
        ("z", float("nan")), ("z", float("inf")), ("z", -float("inf")),
        # a wrong type for each field kind
        ("embedding_dim", "six"), ("max_span_gap", 2.5), ("lstm_dropout", "0.5"),
        ("z", None), ("use_width_distance", "no"), ("use_width_distance", 1),
        ("span_mode", 1), ("channel_mode", None),
        # a bool is not a number
        ("embedding_dim", True), ("z", True), ("ffnn_dropout", False),
    ])
    def test_bad_value_is_rejected_naming_the_field(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            ModelConfig(**{field: value})

    def test_numpy_scalars_and_int_for_float_pass(self):
        config = ModelConfig(embedding_dim=np.int64(6), lstm_dropout=np.float64(0.25), z=1)
        assert config.embedding_dim == 6 and config.z == 1

    def test_replace_rechecks(self):
        with pytest.raises(ConfigurationError, match="z"):
            replace(SMALL, z=0.0)

    @pytest.mark.parametrize("config, field", [(SMALL, "z"), (TrainConfig(), "epochs")],
                             ids=["model", "train"])
    def test_configs_are_frozen(self, config, field):
        with pytest.raises(FrozenInstanceError):
            setattr(config, field, 1)


class TestTrainConfigRules:
    @pytest.mark.parametrize("field, value", [
        ("epochs", 0), ("epochs", "2"), ("epochs", 1.5), ("epochs", True),
        ("seeds", ()), ("seeds", 3), ("seeds", ["a"]), ("seeds", [0, True]),
        ("seeds", "01"), ("seeds", [-1]), ("seeds", [0, -2]), ("seeds", [0, 0]),
        ("seeds", [1, 2, 1]), ("lr", None),
        ("weight_decay", float("inf")),
    ])
    def test_bad_value_is_rejected_naming_the_field(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            TrainConfig(**{field: value})

    def test_seed_list_is_stored_as_tuple(self):
        config = TrainConfig(seeds=[3, np.int64(4)])
        assert config.seeds == (3, 4) and isinstance(config.seeds, tuple)
        assert asdict(config)["seeds"] == (3, 4)


class TestConfigFromDict:
    def test_builds_each_config(self):
        assert config_from_dict(ModelConfig, asdict(SMALL)) == SMALL
        assert config_from_dict(TrainConfig, {"seeds": [1]}) == TrainConfig(seeds=(1,))

    @pytest.mark.parametrize("raw, message", [
        ({"bogus_field": 1}, "bogus_field"), ([], "JSON object"), ("z", "JSON object"),
    ])
    def test_rejects_unknown_fields_and_non_objects(self, raw, message):
        with pytest.raises(ConfigurationError, match=message):
            config_from_dict(ModelConfig, raw)


class TestSweepSettings:
    def test_settings_in_z_then_mode_order(self):
        settings = sweep_settings(SMALL, TrainConfig(seeds=(0,)), [0.25, 0.5],
                                  ["dual", "sc_adjusted"])
        assert [(z, mode, eff) for z, mode, eff, _ in settings] == [
            (0.25, "dual", 0.25), (0.25, "sc_adjusted", 0.5),
            (0.5, "dual", 0.5), (0.5, "sc_adjusted", 1.0)]
        assert [(c.z, c.channel_mode) for *_, c in settings] == [
            (0.25, "dual"), (0.5, "single"), (0.5, "dual"), (1.0, "single")]
        assert all(replace(c, z=SMALL.z, channel_mode="dual") == SMALL for *_, c in settings)

    @pytest.mark.parametrize("z_values, modes, seeds, message", [
        ([], ["dual"], (0,), "z_values"),
        ("0.5", ["dual"], (0,), "z_values"),
        ([True], ["sc_adjusted"], (0,), "z_values"),
        ([0], ["dual"], (0,), "z must be positive"),
        ([0.5], ["bogus"], (0,), "sweep_modes"),
        ([0.5], "dual", (0,), "sweep_modes"),
        ([0.5], [], (0,), r"sweep_modes must be a non-empty list.*got \[\]"),
        ([0.5], None, (0,), "sweep_modes.*got None"),
        ([0.5], ["dual"], (0, 1), "one seed"),
        ([0.5, 0.25, 0.5], ["dual"], (0,), r"z_values given more than once: \[0\.5\]"),
        ([0.5], ["dual", "single", "dual"], (0,), r"sweep_modes given more than once: \['dual'\]"),
    ])
    def test_bad_sweep_is_rejected(self, z_values, modes, seeds, message):
        with pytest.raises(ConfigurationError, match=message):
            sweep_settings(SMALL, TrainConfig(seeds=seeds), z_values, modes)
