"""Exception types shared across the package."""

from __future__ import annotations


class CovtrajError(Exception):
    """Base class for all package-specific errors."""


class NumericalError(CovtrajError):
    """An iteration or integration failed to reach its tolerance."""


class ConfigError(CovtrajError):
    """A scenario configuration is malformed or physically inconsistent."""
