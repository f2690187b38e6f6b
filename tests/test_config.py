import json

import pytest

from blobvid.config import Config, ENV_PREFIX, load_config
from blobvid.errors import RangeError, SchemaError


class TestConfigValidation:
    def test_defaults_valid(self):
        cfg = Config()
        assert cfg.feature_h == 16
        assert cfg.interp_method == "linear"

    @pytest.mark.parametrize("kwargs", [
        {"feature_h": 0},
        {"feature_w": -3},
        {"rescale": 0.0},
        {"rescale": -1.0},
        {"fourier_freqs": 0},
        {"seed": -1},
        {"interp_method": "cubic"},
        {"interp_orientation": "upside_down"},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(RangeError):
            Config(**kwargs)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            Config().seed = 5  # type: ignore[misc]


class TestLoadConfig:
    def test_defaults_when_nothing_given(self):
        assert load_config(env={}) == Config()

    def test_file_overrides_defaults(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"feature_h": 24, "rescale": 0.5}))
        cfg = load_config(str(p), env={})
        assert cfg.feature_h == 24 and cfg.rescale == 0.5
        assert cfg.feature_w == 16  # untouched default

    def test_env_overrides_file(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"seed": 3}))
        cfg = load_config(str(p), env={ENV_PREFIX + "SEED": "9"})
        assert cfg.seed == 9

    def test_overrides_beat_env_and_file(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"seed": 3}))
        cfg = load_config(str(p), env={ENV_PREFIX + "SEED": "9"}, overrides={"seed": 12})
        assert cfg.seed == 12

    def test_none_override_is_unset(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"seed": 3}))
        cfg = load_config(str(p), env={}, overrides={"seed": None})
        assert cfg.seed == 3

    def test_env_values_are_coerced(self):
        cfg = load_config(env={ENV_PREFIX + "RESCALE": "0.25",
                               ENV_PREFIX + "FEATURE_W": "32"})
        assert cfg.rescale == 0.25 and cfg.feature_w == 32

    def test_bad_env_value(self):
        with pytest.raises(SchemaError):
            load_config(env={ENV_PREFIX + "SEED": "not-a-number"})

    def test_unknown_file_key(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"sede": 3}))
        with pytest.raises(SchemaError):
            load_config(str(p), env={})

    def test_unknown_override_key(self):
        with pytest.raises(SchemaError):
            load_config(env={}, overrides={"sede": 3})

    def test_file_must_be_object(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps([1, 2]))
        with pytest.raises(SchemaError):
            load_config(str(p), env={})

    @pytest.mark.parametrize("doc", [
        {"feature_h": 3.7},
        {"seed": True},
        {"rescale": False},
    ])
    def test_file_rejects_fractions_and_booleans(self, tmp_path, doc):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match=f"config field {next(iter(doc))}"):
            load_config(str(p), env={})

    def test_whole_numbers_load_from_file_and_env(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"feature_h": 16, "feature_w": 24.0, "rescale": 2}))
        cfg = load_config(str(p), env={ENV_PREFIX + "SEED": "16"})
        assert (cfg.feature_h, cfg.feature_w, cfg.rescale, cfg.seed) == (16, 24, 2.0, 16)
        assert type(cfg.feature_w) is int and type(cfg.rescale) is float

    def test_unrelated_env_ignored(self):
        cfg = load_config(env={"PATH": "/usr/bin", "SEED": "7"})
        assert cfg.seed == 0

    def test_validation_still_applies(self):
        with pytest.raises(RangeError):
            load_config(env={ENV_PREFIX + "FEATURE_H": "0"})
