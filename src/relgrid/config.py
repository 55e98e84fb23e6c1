"""Type and range checks shared by the configuration dataclasses."""

from __future__ import annotations

import numbers


class ConfigError(ValueError):
    """A config field has the wrong type or lies outside its range."""


def is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def check_fields(config, rules: dict) -> None:
    """Raise ConfigError for the first field of `config` that breaks its rule.

    `rules` maps field -> (type test, range test, allowed values as shown in
    errors).
    """
    for name, (type_ok, range_ok, allowed) in rules.items():
        value = getattr(config, name)
        if not (type_ok(value) and range_ok(value)):
            raise ConfigError(f"{name} must be {allowed}, got {value!r}")
