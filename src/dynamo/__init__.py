"""Spectral toolkit for alpha-effect instability and kinematic dynamo growth."""

__version__ = "0.1.0"  # the one source: pyproject.toml reads it

from .errors import ConfigError, DynamoError, NumericalError
from .fields import AbcParams, SpectralField, make_abc

__all__ = [
    "AbcParams",
    "ConfigError",
    "DynamoError",
    "NumericalError",
    "SpectralField",
    "make_abc",
    "__version__",
]
