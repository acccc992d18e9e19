"""Error taxonomy shared across the package.

The CLI maps these onto exit codes: ConfigError -> 2, DataError -> 3,
NumericError -> 4.
"""


class LinkBridgeError(Exception):
    """Base class for all package errors."""


class ConfigError(LinkBridgeError):
    """Invalid configuration: bad ranges, unknown names, an unreadable config file."""


class DataError(LinkBridgeError):
    """Missing, malformed or inconsistent input data (files, graphs, manifests)."""


class NumericError(LinkBridgeError):
    """Numerical failure: divergence, non-finite values, infeasible sampling."""
