"""Runtime configuration with layered precedence: flags > environment > file > defaults.

The fields of ``Config`` are the whole configuration surface: the config file
keys, the ``BLOBVID_*`` variables and, for the fields each command reads
(``cli._CONFIG_READS``), the CLI flags derive from them, types from defaults.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields
from typing import Any, Mapping

from .errors import RangeError, SchemaError, read_json

__all__ = ["CHOICES", "COSINE_MODES", "Config", "DEFAULT_STEP", "DEFAULT_TOL", "ENV_PREFIX",
           "load_config"]

ENV_PREFIX = "BLOBVID_"

# Allowed values of the string fields.
CHOICES = {
    "interp_method": ("linear", "slerp"),
    "interp_orientation": ("as_printed", "standard"),
}

# Defaults and choices the CLI parser offers for code it imports only when a
# command runs: the region cosine metrics (metrics.region_cosine_metrics) and
# the finite-difference step and tolerance (gradcheck.run_gradcheck).
COSINE_MODES = ("rclip_t", "rclip_i", "rcfc")
DEFAULT_STEP = 1e-5
DEFAULT_TOL = 1e-4


@dataclass(frozen=True)
class Config:
    feature_h: int = 16
    feature_w: int = 16
    rescale: float = 1.0
    fourier_freqs: int = 8
    seed: int = 0
    interp_method: str = "linear"
    interp_orientation: str = "as_printed"

    def __post_init__(self):
        if self.feature_h < 1 or self.feature_w < 1:
            raise RangeError(f"feature grid must be at least 1x1, got {self.feature_h}x{self.feature_w}")
        if not 0 < self.rescale < math.inf:
            raise RangeError(f"rescale must be positive and finite, got {self.rescale}")
        if self.fourier_freqs < 1:
            raise RangeError(f"need at least one Fourier frequency, got {self.fourier_freqs}")
        if self.seed < 0:
            raise RangeError(f"seed must be non-negative, got {self.seed}")
        for name, allowed in CHOICES.items():
            value = getattr(self, name)
            if value not in allowed:
                raise RangeError(f"{name.replace('_', ' ')} must be one of {allowed}, got {value!r}")


def _coerce(name: str, kind: type, raw: Any):
    # int(True) and int(3.7) would succeed, so booleans and fractions are refused first.
    if isinstance(raw, bool):
        raise SchemaError(f"config field {name}: {raw!r} is a boolean, not a {kind.__name__}")
    if kind is int and isinstance(raw, float) and not raw.is_integer():
        raise SchemaError(f"config field {name}: {raw!r} is not a whole number")
    try:
        return kind(raw)
    except (TypeError, ValueError, OverflowError) as e:
        raise SchemaError(f"config field {name}: cannot read {raw!r} as {kind.__name__}") from e


def load_config(config_file: str | None = None,
                env: Mapping[str, str] | None = None,
                overrides: Mapping[str, Any] | None = None) -> Config:
    """Build the effective Config.

    Values are applied defaults-first, then the JSON config file, then
    BLOBVID_* environment variables, then explicit overrides (CLI flags).
    Unknown file keys are rejected so typos fail loudly.
    """
    if env is None:
        env = os.environ
    kinds = {f.name: type(f.default) for f in fields(Config)}
    values: dict[str, Any] = {}
    if config_file is not None:
        doc = read_json(config_file)
        if not isinstance(doc, dict):
            raise SchemaError("config file must hold a JSON object")
        for key, raw in doc.items():
            if key not in kinds:
                raise SchemaError(f"unknown config key {key!r}")
            values[key] = _coerce(key, kinds[key], raw)
    for name, kind in kinds.items():
        env_key = ENV_PREFIX + name.upper()
        if env_key in env:
            values[name] = _coerce(name, kind, env[env_key])
    if overrides:
        for key, raw in overrides.items():
            if raw is None:
                continue
            if key not in kinds:
                raise SchemaError(f"unknown config override {key!r}")
            values[key] = _coerce(key, kinds[key], raw)
    return Config(**values)
