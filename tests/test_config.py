"""Config file parsing, typed merging, and validation rules."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopseg.config import (
    ConfigError,
    RunConfig,
    build_config,
    config_lines,
    parse_config_file,
    toy_config,
)


class TestValidation:
    def test_defaults_are_valid(self):
        cfg = RunConfig().validate()
        assert cfg.image_size == 352
        assert cfg.lr == 7e-5
        assert cfg.lam == 1.0
        assert cfg.epochs == 200

    @pytest.mark.parametrize(
        "bad",
        [
            dict(image_size=50),
            dict(lam=0.0),
            dict(lam=-1.0),
            dict(epochs=0),
            dict(depth=0),
            dict(d_model=100, heads=6),
            dict(batch_size=0),
            dict(dtype="float16"),
            dict(lr=1e39),
        ],
    )
    def test_rejects(self, bad):
        with pytest.raises(ConfigError):
            RunConfig(**bad).validate()

    def test_lr_is_bounded_by_the_run_dtype(self):
        """Adam scales its update by lr in the run's dtype; float32 tops out near 3.4e38."""
        assert RunConfig(lr=1e39, dtype="float64").validate().lr == 1e39
        assert RunConfig(lr=3.4e38, dtype="float32").validate().lr == 3.4e38

    def test_toy_preset_is_valid_and_small(self):
        cfg = toy_config()
        assert cfg.image_size == 64
        assert cfg.depth == 2
        with pytest.raises(ConfigError):
            toy_config(image_size=50)


class TestParse:
    def test_comments_and_blanks(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text(
            "# full-line comment\n"
            "\n"
            "epochs = 3   # trailing comment\n"
            "lr=0.001\n"
            "  out_dir =  runs/x  \n"
        )
        assert parse_config_file(p) == {"epochs": "3", "lr": "0.001", "out_dir": "runs/x"}

    def test_missing_equals_names_line(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("epochs = 3\njust words\n")
        with pytest.raises(ConfigError, match="2"):
            parse_config_file(p)

    def test_empty_key_rejected(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("= 5\n")
        with pytest.raises(ConfigError):
            parse_config_file(p)

    def test_value_may_contain_equals(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("data_dir = a=b\n")
        assert parse_config_file(p)["data_dir"] == "a=b"

    def test_repeated_key_names_its_line(self, tmp_path):
        # the last value used to win silently
        p = tmp_path / "c.cfg"
        p.write_text("lambda = 0.5\nepochs = 3\nlambda = 2\n")
        with pytest.raises(ConfigError, match=f"{p}:3: key 'lambda' is already set"):
            parse_config_file(p)


class TestBuild:
    def test_lambda_key_maps_to_field(self):
        cfg = build_config({"lambda": "2.5"})
        assert cfg.lam == 2.5

    def test_field_name_lam_is_an_unknown_key(self):
        # 'lambda' is the one spelling of the key; 'lam' is only the field's name
        with pytest.raises(ConfigError, match="unknown config key 'lam'"):
            build_config({"lam": "0.5"})

    def test_bool_spellings(self):
        for text, expected in (
            ("true", True), ("1", True), ("yes", True), ("on", True),
            ("False", False), ("0", False), ("no", False), ("off", False),
        ):
            assert build_config({"glff_on": text}).glff_on is expected

    def test_bad_values_name_the_key(self):
        with pytest.raises(ConfigError, match="epochs"):
            build_config({"epochs": "three"})
        with pytest.raises(ConfigError, match="lr"):
            build_config({"lr": "fast"})
        with pytest.raises(ConfigError, match="glff_on"):
            build_config({"glff_on": "maybe"})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            build_config({"momentum": "0.9"})
        with pytest.raises(ConfigError, match="unknown"):
            build_config({}, momentum=0.9)

    def test_overrides_beat_file_values(self):
        cfg = build_config({"epochs": "5", "seed": "1"}, epochs=9)
        assert cfg.epochs == 9
        assert cfg.seed == 1

    def test_none_override_skipped(self):
        cfg = build_config({"epochs": "5"}, epochs=None)
        assert cfg.epochs == 5

    def test_merged_config_is_validated(self):
        with pytest.raises(ConfigError):
            build_config({"image_size": "50"})


class TestRoundTrip:
    def test_lines_parse_back_to_same_config(self, tmp_path):
        cfg = toy_config(lam=0.7, glff_on=False, out_dir="runs/t", seed=12)
        p = tmp_path / "echo.cfg"
        p.write_text("\n".join(config_lines(cfg)) + "\n")
        again = build_config(parse_config_file(p))
        assert again == cfg

    def test_lambda_rendered_with_public_name(self):
        lines = config_lines(toy_config(lam=0.7))
        assert any(line.startswith("lambda = ") for line in lines)
        assert not any(line.startswith("lam ") for line in lines)

    def test_echo_renders_exactly_the_config_keys_in_order(self):
        # eval and predict read config_used.cfg back: its keys are an on-disk interface
        keys = [line.split(" = ", 1)[0] for line in config_lines(RunConfig())]
        assert keys == [
            "image_size", "depth", "d_model", "heads", "stem_channels", "stage_units",
            "c4", "c8", "c16", "glff_on", "dfm_on", "lr", "lambda", "epochs", "batch_size",
            "seed", "data_dir", "out_dir", "synth_samples", "dtype",
        ]


KEYS = [line.split(" = ", 1)[0] for line in config_lines(RunConfig())]
VALUE_TEXT = st.sampled_from(["0", "1", "-1", "16", "352", "0.5", "nan", "inf", "true", "off",
                              "float32", "float16", ""]) | st.text(max_size=12)
CONFIG_LINE = st.builds("{} = {}".format, st.sampled_from(KEYS + ["lam"]) | st.text(max_size=8),
                        VALUE_TEXT) | st.text(max_size=20)
CONFIG_TEXT = st.lists(CONFIG_LINE, max_size=6).map(lambda lines: "\n".join(lines).encode())


@given(CONFIG_TEXT | st.text(max_size=60).map(str.encode) | st.binary(max_size=60))
@settings(max_examples=150, deadline=None)
def test_any_config_text_gives_a_config_or_a_config_error(tmp_path_factory, blob):
    """A config file reads as a RunConfig or fails as a ConfigError, whatever its bytes."""
    p = tmp_path_factory.getbasetemp() / "any.cfg"
    p.write_bytes(blob)
    try:
        cfg = build_config(parse_config_file(p))
    except ConfigError:
        return
    assert isinstance(cfg, RunConfig)
