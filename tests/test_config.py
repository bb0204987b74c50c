"""Config file parsing, typed merging, and validation rules."""

import pytest

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
        ],
    )
    def test_rejects(self, bad):
        with pytest.raises(ConfigError):
            RunConfig(**bad).validate()

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


class TestBuild:
    def test_lambda_key_maps_to_field(self):
        cfg = build_config({"lambda": "2.5"})
        assert cfg.lam == 2.5

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
