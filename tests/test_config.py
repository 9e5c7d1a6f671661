import re
from dataclasses import fields

import pytest

from c2fseg import RunConfig, Spacing, parse_config
from c2fseg.config import _KEYS, _field

# One value per config key, each different from its default.
NON_DEFAULT = {
    "normalized_spacing": (2.5, 1.25, 1.25),
    "coarse_dims": (64, 64),
    "fine_dims": (96, 96),
    "abnormal_dims": (32, 128),
    "th_vn": 800,
    "prob_threshold": 0.25,
    "connectivity": 6,
    "fine_slice_margin": 3,
    "unet_depth": 2,
    "unet_base_channels": 4,
    "lr": 0.2,
    "epochs": 5,
    "batch": 4,
    "momentum": 0.5,
    "seed": 7,
    "nifti_depth_axis": "fastest",
}


def config_lines(values: dict) -> str:
    """One ``key = value`` line per item, a tuple's items comma-separated."""
    return "".join(f"{k} = {', '.join(map(str, v)) if isinstance(v, tuple) else v}\n" for k, v in values.items())


def parsed_value(key: str):
    """``NON_DEFAULT[key]`` as the config holds it once parsed."""
    value = NON_DEFAULT[key]
    return Spacing(*value) if key == "normalized_spacing" else value


class TestDefaults:
    def test_production_scale_values(self):
        cfg = RunConfig()
        assert cfg.pipeline.normalized_spacing == Spacing(3.0, 0.7816, 0.7816)
        assert cfg.pipeline.coarse_dims == (128, 128)
        assert cfg.pipeline.fine_dims == (160, 160)
        assert cfg.pipeline.abnormal_dims == (64, 256)
        assert cfg.pipeline.th_vn == 10000
        assert cfg.pipeline.prob_threshold == 0.5
        assert cfg.pipeline.connectivity == 26
        assert cfg.unet.depth == 3
        assert cfg.unet.base_channels == 8
        assert cfg.nifti_depth_axis == "slowest"

    def test_every_key_names_a_dataclass_field(self):
        assert set(_KEYS) == set(NON_DEFAULT)  # the documented 16 keys, no more
        cfg = RunConfig()
        for key, (section, name) in _KEYS.items():
            owner = getattr(cfg, section) if section else cfg
            assert name in {f.name for f in fields(owner)}, key

    @pytest.mark.parametrize("key", sorted(NON_DEFAULT))
    def test_every_key_round_trips_a_non_default_value(self, key):
        assert _field(RunConfig(), key) != parsed_value(key)
        cfg = parse_config(config_lines({key: NON_DEFAULT[key]}))
        assert _field(cfg, key) == parsed_value(key)
        for other in set(_KEYS) - {key}:
            assert _field(cfg, other) == _field(RunConfig(), other)

    def test_non_default_config_round_trips(self):
        cfg = parse_config(config_lines(NON_DEFAULT))
        assert {key: _field(cfg, key) for key in _KEYS} == {key: parsed_value(key) for key in _KEYS}


class TestParse:
    def test_overrides_and_comments(self):
        cfg = parse_config(
            """
            # desk-scale settings
            coarse_dims = 64, 64
            th_vn = 800        # smaller phantoms
            lr = 0.2
            """
        )
        assert cfg.pipeline.coarse_dims == (64, 64)
        assert cfg.pipeline.th_vn == 800
        assert cfg.train.lr == 0.2
        assert cfg.pipeline.fine_dims == (160, 160)  # default kept

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key 'coarse_size'"):
            parse_config("coarse_size = 64, 64")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_config("th_vn = 1\nth_vn = 2")

    def test_bad_value_reports_line(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_config("th_vn = lots")

    def test_bad_tuple_arity(self):
        with pytest.raises(ValueError, match="coarse_dims"):
            parse_config("coarse_dims = 64")

    @pytest.mark.parametrize(
        "line, match",
        [
            ("normalized_spacing = 1.0, 2.0", "line 1: bad value for 'normalized_spacing': expected 3"),
            ("fine_dims = 64, 64, 64", "line 1: bad value for 'fine_dims': expected 2"),
            ("fine_dims = 64, 6.5", "line 1: bad value for 'fine_dims'"),
            ("unet_depth = 2.0", "line 1: bad value for 'unet_depth'"),
        ],
    )
    def test_values_parse_by_the_type_and_arity_of_the_default(self, line, match):
        with pytest.raises(ValueError, match=match):
            parse_config(line)

    def test_dataclass_validation_still_applies(self):
        with pytest.raises(ValueError, match="connectivity"):
            parse_config("connectivity = 8")
        with pytest.raises(ValueError, match="nifti_depth_axis"):
            RunConfig(nifti_depth_axis="diagonal")

    @pytest.mark.parametrize(
        "line, message",
        [
            ("coarse_dims = 0, 64", "coarse_dims must be two positive ints, got (0, 64)"),
            ("fine_dims = 64, -1", "fine_dims must be two positive ints, got (64, -1)"),
            ("abnormal_dims = 0, 0", "abnormal_dims must be two positive ints, got (0, 0)"),
            ("th_vn = 0", "th_vn must be positive, got 0"),
            ("prob_threshold = 1.0", "prob_threshold must lie in (0, 1), got 1.0"),
            ("prob_threshold = 0.0", "prob_threshold must lie in (0, 1), got 0.0"),
            ("fine_slice_margin = -1", "fine_slice_margin must be non-negative"),
            ("unet_depth = 0", "depth must be >= 1, got 0"),
            ("unet_base_channels = 0", "base_channels must be positive, got 0"),
        ],
    )
    def test_settings_out_of_range_are_rejected_with_the_dataclass_message(self, line, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_config(line)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_lr_rejected(self, value):
        with pytest.raises(ValueError, match="invalid hyperparameters"):
            parse_config(f"lr = {value}")

    def test_missing_equals_rejected(self):
        with pytest.raises(ValueError, match="key = value"):
            parse_config("just some words")

    def test_bad_axis_choice(self):
        with pytest.raises(ValueError, match="nifti_depth_axis"):
            parse_config("nifti_depth_axis = diagonal")
