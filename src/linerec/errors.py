"""Exception types and the config-section base shared across the package."""

from dataclasses import asdict, fields


class UsageError(ValueError):
    """An operation was called with arguments that violate its contract."""


class DataError(Exception):
    """A dataset file is missing, malformed, or inconsistent."""


class ConfigError(Exception):
    """A configuration is internally inconsistent or incompatible with its inputs."""


class TrainingError(Exception):
    """Training cannot continue (e.g. the loss went non-finite)."""


class ConfigSection:
    """Base of the config dataclasses, each parsed from one JSON object."""

    section = ""  # the run-config section name, used in error messages

    def to_dict(self) -> dict:
        return asdict(self)

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
        try:
            cfg = cls(**d)
            cfg.validate()
        except (TypeError, ValueError, LookupError) as exc:
            raise ConfigError(f"bad {cls.section} config: {exc}") from None
        return cfg
