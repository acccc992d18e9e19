"""Error taxonomy shared across the package.

The CLI maps these onto exit codes: ConfigError -> 2, DataError -> 3,
NumericError -> 4.
"""

import math
import typing
from dataclasses import fields


class LinkBridgeError(Exception):
    """Base class for all package errors."""


class ConfigError(LinkBridgeError):
    """Invalid configuration: bad ranges, unknown names, an unreadable config file."""


class DataError(LinkBridgeError):
    """Missing, malformed or inconsistent input data (files, graphs, manifests)."""


class NumericError(LinkBridgeError):
    """Numerical failure: divergence, non-finite values, infeasible sampling."""


# the values each type takes; a bool is also an int, so it is told apart by hand
_ACCEPTS = {int: int, float: (int, float), str: str}
_KIND = {int: "an integer", float: "a number", str: "a string"}


def is_of_type(value, kind: type) -> bool:
    """Whether ``value`` is a ``kind`` (int, float or str) as a config knob
    reads it: an int is no bool, and a float an int or a float but no bool."""
    return not isinstance(value, bool) and isinstance(value, _ACCEPTS[kind])


def check_field_types(config) -> None:
    """ConfigError for a field of the dataclass ``config`` annotated ``int``,
    ``float`` or ``str`` whose value is not of that type (``is_of_type``),
    or for a ``float`` field that is NaN or infinite, which every range
    check, being a comparison, would let through."""
    hints = typing.get_type_hints(type(config))
    for spec in fields(config):
        hint, value = hints[spec.name], getattr(config, spec.name)
        if hint in _ACCEPTS and not is_of_type(value, hint):
            raise ConfigError(f"{spec.name} must be {_KIND[hint]}, got {value!r}")
        if hint is float and not math.isfinite(value):
            raise ConfigError(f"{spec.name} must be finite, got {value!r}")
