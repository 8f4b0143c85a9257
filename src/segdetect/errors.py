"""Exception types shared across the package, and the one checker of config values."""

import math
import numbers
from dataclasses import field, fields, is_dataclass
from types import UnionType


class SegdetectError(Exception):
    """Base class for all package errors."""


class InputError(SegdetectError):
    """Invalid config or runtime input (bad values, shape mismatch, out-of-range labels)."""


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


# annotation -> (the types its values may have, the name a message gives it).
# A bool is a value of bool alone; a nested config, of its own dataclass.
TYPES = {bool: (bool, "bool"), int: (numbers.Integral, "int"), float: (numbers.Real, "float"),
         str: (str, "str"), list: ((list, tuple), "list")}


def check_type(section, key, value, annotation):
    """Raises InputError unless `value` is of the annotation's TYPES entry; an
    optional annotation, T | None, takes None as well. A nested config is an
    object in a file, so a dict in its place came from code."""
    if isinstance(annotation, UnionType):
        if value is None:
            return
        annotation = annotation.__args__[0]
    accepts, name = TYPES.get(annotation, (annotation, "object"))
    if name == "object" and isinstance(value, dict):
        name = annotation.__name__
    if not isinstance(value, accepts) or isinstance(value, bool) != (annotation is bool):
        raise InputError(f"{section} key {key}: expected {name}, got {type(value).__name__}")


class Config:
    """Base of every config dataclass, whose class statement names its section:
    `class C(Config, section="train")`. Constructing one runs check_type() on
    each field against its annotation, then check() on each field that
    declares a rule, in field order."""

    def __init_subclass__(cls, section):
        cls.section = section

    def __post_init__(self):
        for f in fields(self):
            check_type(self.section, f.name, getattr(self, f.name), f.type)
        check(self.section, [(f.name, getattr(self, f.name), f.metadata["rule"])
                             for f in fields(self) if "rule" in f.metadata])


def check_object(doc, section):
    """Returns `doc`; raises InputError unless it is a JSON object."""
    if not isinstance(doc, dict):
        raise InputError(f"{section}: expected object, got {type(doc).__name__}")
    return doc


def check_keys(section, keys, known):
    """Raises InputError naming each of `keys` not in `known`."""
    unknown = set(keys) - set(known)
    if unknown:
        raise InputError(f"unknown {section} key(s) {', '.join(sorted(unknown))}")


def build(cls, doc, section, fixed=()):
    """Dataclass `cls` from JSON object `doc`, whose keys are its fields less
    `fixed`; a field that is a dataclass is built from an object value the same
    way, as section <field>. The constructor checks every value."""
    check_keys(section, check_object(doc, section), {f.name for f in fields(cls)} - set(fixed))
    nested = {f.name: build(f.type, doc[f.name], f.name) for f in fields(cls)
              if is_dataclass(f.type) and isinstance(doc.get(f.name), dict)}
    return cls(**{**doc, **nested})
