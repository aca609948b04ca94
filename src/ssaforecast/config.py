"""Run configuration: one flat JSON file of typed keys.

Unknown keys, ill-typed values, non-finite numbers and strings that break the
text rule (`check_text`) are rejected here; each value's range is checked by
the code that reads the value.  Individual keys may be overridden from the
command line with ``--set key=value`` and every override is recorded in the
config echo embedded in output files.
"""

from __future__ import annotations

import json
import math
import typing
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import ConfigError


def check_text(what: str, text: str) -> None:
    """The rule for config strings and paths: no NUL (no path holds one), and
    UTF-8 text like the artifacts that echo it (no lone surrogate)."""
    if "\x00" in text:
        raise ConfigError(f"{what} must not contain a NUL character")
    if text.encode("utf-8", "replace").decode("utf-8") != text:
        raise ConfigError(f"{what} must be UTF-8 text, without lone surrogates")


def read_json(path, what: str, invalid: type[Exception]):
    """The JSON document in the `what` file at `path` ("config" or
    "network"): a path that breaks the text rule or a file that cannot be
    read is a ConfigError, a file that is not JSON an `invalid`."""
    check_text(f"{what} path", str(path))
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read {what} file {path}: {exc.strerror}") from None
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or too deep
        raise invalid(f"{what} file is not valid JSON: {exc}") from None


@dataclass(frozen=True)
class RunConfig:
    input_csv: str = ""
    time_column: str = "time"
    value_column: str = "value"
    window: int = 35
    embedding: int = 5
    hidden_units: int = 10
    pc_step: int = 2
    stage_epochs: int = 500
    stage_lr: float = 0.05
    stage_momentum: float = 0.9
    patience: int = 200
    validation_fraction: float = 0.10
    seed: int = 0
    horizon: int = 72
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4, 5, 6, 7, 8, 9)
    compare_horizon: int = 50
    output_dir: str = "out"

    def __post_init__(self):
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        for name, value in vars(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"key {name!r} must be finite, got {value}")
            if isinstance(value, str):
                check_text(f"key {name!r}", value)

    def echo(self, overrides: dict | None = None) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["seeds"] = list(self.seeds)
        out["overrides"] = dict(overrides or {})
        return out


# each key's expected JSON type: the field's type, with the seeds tuple
# read as a list
_SCHEMA: dict[str, type] = {
    name: list if typing.get_origin(kind) is tuple else kind
    for name, kind in typing.get_type_hints(RunConfig).items()
}


def _coerce(key: str, value, expected: type):
    if expected is float and isinstance(value, int) and not isinstance(value, bool):
        return float(value)
    if expected is list:
        if not isinstance(value, list) or not all(
            isinstance(v, int) and not isinstance(v, bool) for v in value
        ):
            raise ConfigError(f"key {key!r} must be a list of integers")
        return value
    if not isinstance(value, expected) or isinstance(value, bool) and expected is not bool:
        raise ConfigError(f"key {key!r} must be of type {expected.__name__}")
    return value


def _parse_override(text: str) -> tuple[str, object]:
    if "=" not in text:
        raise ConfigError(f"override {text!r} is not of the form key=value")
    key, raw = text.split("=", 1)
    key = key.strip()
    if key not in _SCHEMA:
        raise ConfigError(f"unknown config key {key!r}")
    expected = _SCHEMA[key]
    try:
        if expected is str:
            return key, raw
        if expected is int:
            return key, int(raw)
        if expected is float:
            return key, float(raw)
        return key, [int(v) for v in raw.split(",") if v.strip() != ""]  # the seeds list
    except ValueError:
        raise ConfigError(f"cannot parse override value {raw!r} for key {key!r}") from None


def load_config(path, overrides: list[str] | None = None) -> tuple[RunConfig, dict]:
    """Parse the config file, apply overrides, validate, and return both the
    config and its echo dict (the merged mapping plus the overrides used)."""
    payload = read_json(path, "config", ConfigError)
    if not isinstance(payload, dict):
        raise ConfigError("config file must contain a JSON object")
    for key in payload:
        if key not in _SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
    values = {key: _coerce(key, value, _SCHEMA[key]) for key, value in payload.items()}
    applied: dict[str, object] = {}
    for text in overrides or []:
        key, value = _parse_override(text)
        values[key] = value
        applied[key] = value
    config = RunConfig(**values)
    return config, config.echo(applied)
