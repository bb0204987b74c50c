"""Run configuration: a flat dataclass, a `key = value` file parser, and
typed override merging (file values first, then CLI flags).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class ConfigError(ValueError):
    pass


# the coarsest feature map is 1/16 of the image: the transformer's 16-px patches
# and the CNN's four 2x poolings both land there
COARSEST = 16

# RunConfig fields that must be 1 or more
_POSITIVE_INTS = (
    "image_size", "depth", "d_model", "heads", "stem_channels", "stage_units",
    "c4", "c8", "c16", "epochs", "batch_size", "synth_samples",
)


@dataclass
class RunConfig:
    # geometry
    image_size: int = 352
    # transformer encoder
    depth: int = 12
    d_model: int = 384
    heads: int = 6
    # cnn encoder
    stem_channels: int = 32
    stage_units: int = 3
    c4: int = 64
    c8: int = 128
    c16: int = 256
    # fusion
    glff_on: bool = True
    dfm_on: bool = True
    # training
    lr: float = 7e-5
    lam: float = 1.0  # config key: lambda
    epochs: int = 200
    batch_size: int = 4
    seed: int = 0
    # data / io
    data_dir: str = ""
    out_dir: str = "runs"
    synth_samples: int = 8
    dtype: str = "float32"

    def validate(self) -> "RunConfig":
        # sizes and counts first: the divisibility rules below divide by them
        for name in _POSITIVE_INTS:
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.dtype not in ("float32", "float64"):
            raise ConfigError(f"dtype must be float32 or float64, got {self.dtype!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not 0 < self.lr < math.inf:
            raise ConfigError(f"lr must be positive and finite, got {self.lr}")
        # Adam scales its update by lr in the run's dtype, where a larger lr is inf
        top = float(np.finfo(self.dtype).max)
        if self.lr > top:
            raise ConfigError(f"lr {self.lr} overflows {self.dtype} (largest finite value {top:g})")
        if not 0 < self.lam < math.inf:
            raise ConfigError(f"lambda must be positive and finite, got {self.lam}")
        if self.image_size % COARSEST:
            raise ConfigError(f"image_size {self.image_size} must be divisible by {COARSEST}")
        if self.d_model % self.heads:
            raise ConfigError(f"d_model {self.d_model} not divisible by heads {self.heads}")
        return self


# config file key -> RunConfig field, in field order; the keyword 'lambda' cannot be a
# field name, so it is the one key that differs from its field's name
_KEY_FIELDS = {("lambda" if f.name == "lam" else f.name): f for f in dataclasses.fields(RunConfig)}


def toy_config(**overrides) -> RunConfig:
    """Desk-scale preset: small encoder, 64px images, synthetic data."""
    base = dict(
        image_size=64, depth=2, d_model=96, heads=6, stem_channels=16,
        stage_units=2, c4=32, c8=64, c16=128, batch_size=8, epochs=10,
        lr=2e-4, synth_samples=8,
    )
    base.update(overrides)
    return RunConfig(**base).validate()


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Read flat `key = value` lines of UTF-8 text (a leading byte-order mark is
    skipped); '#' starts a comment anywhere, and a key may appear once."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from None
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config file: {exc.strerror}") from None
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: key {key!r} is already set on an earlier line")
        values[key] = value
    return values


def _coerce(field: dataclasses.Field, key: str, text: str):
    # postponed annotations: field.type is the annotation's text, never the type
    if field.type == "int":
        try:
            return int(text)
        except ValueError:
            raise ConfigError(f"config key {key!r}: expected integer, got {text!r}") from None
    if field.type == "float":
        try:
            return float(text)
        except ValueError:
            raise ConfigError(f"config key {key!r}: expected number, got {text!r}") from None
    if field.type == "bool":
        low = text.lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"config key {key!r}: expected boolean, got {text!r}")
    return text


def build_config(file_values: dict[str, str] | None = None, **overrides) -> RunConfig:
    """Merge file values then keyword overrides onto the defaults."""
    merged: dict = {}
    for key, text in (file_values or {}).items():
        field = _KEY_FIELDS.get(key)
        if field is None:
            raise ConfigError(f"unknown config key {key!r}")
        merged[field.name] = _coerce(field, key, text)
    names = {f.name for f in _KEY_FIELDS.values()}
    for name, value in overrides.items():
        if value is None:
            continue
        if name not in names:
            raise ConfigError(f"unknown config override {name!r}")
        merged[name] = value
    return RunConfig(**merged).validate()


def config_lines(cfg: RunConfig) -> list[str]:
    """Render a config back to parseable `key = value` lines."""
    return [f"{key} = {getattr(cfg, f.name)}" for key, f in _KEY_FIELDS.items()]
