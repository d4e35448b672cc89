"""Validated dictionary round trip shared by the configuration dataclasses."""

from __future__ import annotations

from dataclasses import asdict, fields

from .errors import ConfigError

# Accepted value types per field annotation; an int stands for a float.
_ACCEPTED = {"int": (int,), "float": (int, float), "bool": (bool,), "str": (str,)}


class Settings:
    """Mixin for flat dataclasses whose fields are ints, floats, bools or
    strings, declared in a module with postponed annotations, so that each
    field's type is the name of its annotation."""

    def to_dict(self) -> dict:
        return asdict(self)

    def _require(self, keys, test, what: str) -> None:
        """Raise ConfigError naming the first of ``keys`` whose value fails
        ``test``; a range test written as comparisons rejects NaN too."""
        for key in keys:
            value = getattr(self, key)
            if not test(value):
                raise ConfigError(f"{type(self).__name__}.{key} must be {what}, got {value!r}")

    @classmethod
    def from_dict(cls, d):
        """Build from a mapping, raising ConfigError that names the first key
        the dataclass does not have or whose value has the wrong type."""
        if not isinstance(d, dict):
            raise ConfigError(f"{cls.__name__} settings must be an object, got {d!r}")
        accepted = {f.name: _ACCEPTED[f.type] for f in fields(cls)}
        for key, value in d.items():
            if key not in accepted:
                raise ConfigError(f"unknown {cls.__name__} key {key!r}")
            types = accepted[key]
            if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
                raise ConfigError(f"{cls.__name__}.{key} must be {types[-1].__name__}, "
                                  f"got {value!r}")
        return cls(**d)
