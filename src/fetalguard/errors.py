"""Exception hierarchy shared across the package, and the field-bound checker."""

from __future__ import annotations

import dataclasses
import functools
import operator
import typing
from dataclasses import dataclass


class FetalGuardError(Exception):
    """Base class for all package errors."""


class ParseError(FetalGuardError):
    """A malformed row or cell in an input file; carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class StructureError(FetalGuardError):
    """A file parsed but violates a structural requirement (e.g. non-monotone time)."""


class EmptyInputError(FetalGuardError):
    """No usable data in the input at all."""


class LabelingError(FetalGuardError):
    """A record cannot be labeled (missing pH or Apgar1)."""


class PreprocessError(FetalGuardError):
    """A record cannot be turned into a feature vector."""


class ConfigError(FetalGuardError):
    """Invalid configuration value or unknown configuration key."""


class BoundError(ConfigError):
    """A field's value that its class refuses; the message begins with the field's name."""


@dataclass(frozen=True)
class Bound:
    """A field's allowed values, declared on its type hint: ``Annotated[int, Bound(gt=0)]``.

    ge/gt and le/lt are inclusive/exclusive limits, odd asks for an odd value,
    and choices, when given, are the only values allowed. With each, they hold
    for each item of a tuple; field_bounds sets it for a ``tuple[X, ...]``
    field whose X declares the Bound.
    """

    ge: float | None = None
    gt: float | None = None
    le: float | None = None
    lt: float | None = None
    odd: bool = False
    choices: tuple = ()
    each: bool = False

    def allows(self, value) -> bool:
        return all(map(self._allows_one, value)) if self.each else self._allows_one(value)

    def _allows_one(self, value) -> bool:
        if self.choices:
            return value in self.choices
        limits = zip((self.ge, self.gt, self.le, self.lt), (operator.ge, operator.gt, operator.le, operator.lt))
        # a NaN fails every comparison, so no limit lets it through
        inside = all(op(value, limit) for limit, op in limits if limit is not None)
        return inside and not (self.odd and value % 2 == 0)

    def describe(self) -> str:
        if self.choices:
            return f"one of {self.choices}"
        low = f"({self.gt}" if self.gt is not None else f"[{self.ge}"
        high = f"{self.le}]" if self.le is not None else f"{self.lt})" if self.lt is not None else "inf)"
        text = {"(0, inf)": "positive", "[0, inf)": "nonnegative"}.get(f"{low}, {high}", f"in {low}, {high}")
        text = f"odd and {text}" if self.odd else text
        return f"{text} in every item" if self.each else text


@functools.cache
def field_bounds(cls) -> dict:
    """name -> Bound of each field of cls that declares one, read once per class."""
    bounds = {}
    for name, hint in typing.get_type_hints(cls, include_extras=True).items():
        each = typing.get_origin(hint) is tuple
        for m in getattr(typing.get_args(hint)[0] if each else hint, "__metadata__", ()):
            if isinstance(m, Bound):
                bounds[name] = dataclasses.replace(m, each=True) if each else m
    return bounds


class Checked:
    """Base of a dataclass whose fields declare a Bound; building one checks them.

    Direct construction, ``dataclasses.replace`` and config.decode all run
    this; a subclass checks a rule across fields after calling it. A value
    outside its Bound is a BoundError, which config.decode prefixes with the
    key path of the object.
    """

    def __post_init__(self):
        for name, bound in field_bounds(type(self)).items():
            value = getattr(self, name)
            if not bound.allows(value):
                shown = list(value) if bound.each else value  # as a config file writes it
                raise BoundError(f"{name} must be {bound.describe()}, got {shown!r}")


PositiveInt = typing.Annotated[int, Bound(gt=0)]
PositiveFloat = typing.Annotated[float, Bound(gt=0)]
NonNegativeInt = typing.Annotated[int, Bound(ge=0)]  # as a seed: numpy's generators refuse a negative one
NonNegativeFloat = typing.Annotated[float, Bound(ge=0)]


class SplitError(FetalGuardError):
    """A requested split would leave a class without samples."""


class TrainingDataError(FetalGuardError):
    """The training view is unusable (e.g. no normal samples)."""


class TrainingError(FetalGuardError):
    """Training aborted (non-finite loss or inconsistent inputs); the message names where and why."""


class ShapeError(FetalGuardError):
    """Dimension mismatch between arrays, layers, or models."""


class TestIsolationError(FetalGuardError):
    """The held-out test partition was accessed out of protocol."""

    __test__ = False  # not a pytest class despite the name
