"""Line-oriented `key = value` configuration files.

Used for learner settings and sweep specs. `#` starts a comment, blank
lines are skipped, values are plain strings interpreted by the consumer.
Command-line flags override file values; merge_options encodes that rule.
"""

from __future__ import annotations

import math


class ConfigError(Exception):
    pass


def parse_config(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected `key = value`, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def load_config(path) -> dict[str, str]:
    with open(path, encoding="utf-8") as f:
        return parse_config(f.read())


def merge_options(file_values: dict[str, str],
                  flag_values: dict[str, object]) -> dict[str, object]:
    """Overlay explicitly-set CLI flags (not None) on top of file values."""
    merged: dict[str, object] = dict(file_values)
    for key, value in flag_values.items():
        if value is not None:
            merged[key] = value
    return merged


def as_float(values: dict, key: str, default: float) -> float:
    if key not in values:
        return default
    try:
        value = float(values[key])
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be a number, got {values[key]!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {values[key]!r}")
    return value


def as_int(values: dict, key: str, default: int) -> int:
    if key not in values:
        return default
    try:
        return int(str(values[key]))
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got {values[key]!r}") from None


def as_bool(values: dict, key: str, default: bool) -> bool:
    if key not in values:
        return default
    value = values[key]
    if isinstance(value, bool):
        return value
    text = str(value).strip().lower()
    if text in ("1", "true", "yes", "on"):
        return True
    if text in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"{key} must be a boolean, got {value!r}")


def as_list(values: dict, key: str, default: list[str]) -> list[str]:
    if key not in values:
        return default
    value = values[key]
    if isinstance(value, (list, tuple)):
        return [str(v) for v in value]
    return [v.strip() for v in str(value).split(",") if v.strip()]
