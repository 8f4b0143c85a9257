"""Exception types shared across the package, and the one checker of config values."""

import math
import numbers
from dataclasses import field, fields


class SegdetectError(Exception):
    """Base class for all package errors."""


class ConfigError(SegdetectError):
    """Invalid configuration or incompatible shapes at setup time."""


class InputError(SegdetectError):
    """Invalid runtime input (bad values, shape mismatch, out-of-range labels)."""


class InternalError(SegdetectError):
    """Inconsistent internal state, e.g. cached activations not matching."""


class TrainingError(SegdetectError):
    """Optimization failure (divergence or non-convergence)."""


class AttackError(SegdetectError):
    """Attack cannot be carried out on the given sample."""


# A rule is a (test, text) pair: test(value) holds for the values the rule
# accepts, which text names. These are shared; NaN breaks each of them.
FINITE_POSITIVE = (lambda v: 0 < v < math.inf, "finite and > 0")
FINITE_NON_NEGATIVE = (lambda v: 0 <= v < math.inf, "finite and >= 0")
IN_OPEN_UNIT = (lambda v: 0 < v < 1, "in (0, 1)")
IN_UNIT = (lambda v: 0 <= v <= 1, "in [0, 1]")


def at_least(bound):
    """The rule v >= bound."""
    return lambda v: v >= bound, f">= {bound}"


def ruled(default, rule):
    """A dataclass field with its default and its rule."""
    return field(default=default, metadata={"rule": rule})


def check(section, values):
    """Raises InputError for the first (key, value, rule) of `values` whose value
    breaks its rule; a bool breaks every rule, as each asks for numbers."""
    for key, value, (test, text) in values:
        if isinstance(value, bool) or not test(value):
            raise InputError(f"{section} key {key}: must be {text}, got {value!r}")


def check_fields(config, section):
    """check() on each field of dataclass `config` that declares a rule, in field
    order, once each such field holds a number of its annotation, an integer for
    int and a real for float (or a bool, which check() rejects)."""
    ruled_fields = [f for f in fields(config) if "rule" in f.metadata]
    for f in ruled_fields:
        value = getattr(config, f.name)
        if not isinstance(value, (bool, numbers.Integral if f.type is int else numbers.Real)):
            raise InputError(f"{section} key {f.name}: expected {f.type.__name__}, "
                             f"got {type(value).__name__}")
    check(section, [(f.name, getattr(config, f.name), f.metadata["rule"]) for f in ruled_fields])
