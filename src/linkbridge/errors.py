"""Error taxonomy shared across the package.

The CLI maps these onto exit codes: ConfigError -> 2, DataError -> 3,
NumericError -> 4.
"""

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


def check_int_fields(config) -> None:
    """ConfigError for an ``int`` (or ``int | None``) field of the dataclass
    ``config`` that holds anything but an int: a bool, a float such as 2.5
    and a string such as "3" are not ints, and None only where allowed."""
    hints = typing.get_type_hints(type(config))
    for spec in fields(config):
        hint, value = hints[spec.name], getattr(config, spec.name)
        if hint is int or (hint == int | None and value is not None):
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{spec.name} must be an integer, got {value!r}")
