"""Exception types shared across the package."""

import math
import sys
from dataclasses import fields
from numbers import Integral, Real


class ValidationError(ValueError):
    """Bad caller input: shapes, ranges, non-finite data."""


class ConfigError(ValidationError):
    """Malformed configuration: unknown fields, wrong types, missing values."""


class FormatError(ValidationError):
    """Corrupt or mistyped on-disk artifact (bad magic, truncated payload)."""


class NumericalError(RuntimeError):
    """Numerical failure at runtime: non-convergence or non-finite intermediates."""


class StateError(RuntimeError):
    """Operation invoked in the wrong order (e.g. backward before forward)."""


class PretrainingFailure(RuntimeError):
    """Synthetic pretraining stopped below the minimum accuracy bar."""


def check_field_types(cfg):
    """Raise ConfigError unless every int, float or str field of the
    dataclass ``cfg`` holds a value of its declared type, a finite one for
    numbers (bools are not numbers here; ints are accepted for float
    fields), and a field named ``seed`` lies in [0, 2**64), the root seeds
    ``seeding.substream`` tells apart."""
    for f in fields(cfg):
        kind = {"int": Integral, "float": Real, "str": str}.get(
            getattr(f.type, "__name__", f.type))
        if kind is None or not f.init:
            continue
        value = getattr(cfg, f.name)
        if (isinstance(value, bool) or not isinstance(value, kind)
                or kind is not str and not math.isfinite(value)):
            what = f.type if kind is str else f"finite {f.type}"
            raise ConfigError(f"{type(cfg).__name__}.{f.name} must be a {what}, got {value!r}")
        if f.name == "seed" and not 0 <= value < 2**64:
            raise ConfigError(f"{type(cfg).__name__}.seed must lie in [0, 2**64), got {value}")


def check_addressable(values, what):
    """ConfigError unless ``values`` float64 values fit in one NumPy array,
    whose byte count must fit in a signed pointer; ``what`` names the config
    fields whose product ``values`` is."""
    if values * 8 > sys.maxsize:
        raise ConfigError(f"{what} is {values} values, more than one array can address")
