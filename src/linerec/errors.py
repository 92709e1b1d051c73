"""Exception types and the config-section base shared across the package."""

import math
from dataclasses import asdict, fields
from typing import get_type_hints


class UsageError(ValueError):
    """An operation was called with arguments that violate its contract."""


class DataError(Exception):
    """A dataset file is missing, malformed, or inconsistent."""


class ConfigError(Exception):
    """A configuration is internally inconsistent or incompatible with its inputs."""


class TrainingError(Exception):
    """Training cannot continue (e.g. the loss went non-finite)."""


def json_type_ok(kind, value) -> bool:
    """Whether JSON ``value`` fits a field of type ``kind``; true/false fit bool
    only, and a float field takes numbers that are finite as floats only (json
    reads NaN and Infinity, which every range check would pass, and integers
    of any size)."""
    if isinstance(value, bool):
        return kind is bool
    if kind is float:
        try:
            return isinstance(value, (int, float)) and math.isfinite(value)
        except OverflowError:  # an integer beyond the float range
            return False
    return isinstance(value, kind)


def check_same(got, want, what: str) -> None:
    """A ConfigError '{what} at entry i: a instead of b' for the first entry
    (1-based) where the sequences differ, else one naming unequal lengths."""
    i = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), None)
    if i is not None:
        raise ConfigError(f"{what} at entry {i + 1}: {got[i]!r} instead of {want[i]!r}")
    if len(got) != len(want):
        raise ConfigError(f"{what}: {len(got)} entries instead of {len(want)}")


class ConfigSection:
    """Base of the config dataclasses, each parsed from one JSON object."""

    section = ""  # the run-config section name, used in error messages

    def to_dict(self) -> dict:
        return asdict(self)

    def validate(self) -> None:
        """Range checks beyond the field types; raises ConfigError."""

    @classmethod
    def from_dict(cls, d):
        """Builds and validates a config; an unknown key, a wrong type or an
        out-of-range value is a ConfigError."""
        if not isinstance(d, dict):
            raise ConfigError(f"{cls.section} section must be a JSON object, "
                              f"got {type(d).__name__}")
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown {cls.section} config keys: {sorted(unknown)}")
        for name, kind in get_type_hints(cls).items():
            if name in d and not json_type_ok(kind, d[name]):
                what = "a finite number" if kind is float else getattr(kind, "__name__", kind)
                raise ConfigError(f"bad {cls.section} config: {name} must be {what}, "
                                  f"got {d[name]!r}")
        try:
            cfg = cls(**d)
            cfg.validate()
        except (TypeError, ValueError, LookupError) as exc:
            raise ConfigError(f"bad {cls.section} config: {exc}") from None
        return cfg
