"""Exception hierarchy shared across the package, and the field-bound checker."""

from __future__ import annotations

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


@dataclass(frozen=True)
class Bound:
    """A field's allowed values, declared on its type hint: ``Annotated[int, Bound(gt=0)]``.

    ge/gt and le/lt are inclusive/exclusive limits, odd asks for an odd value,
    and choices, when given, are the only values allowed.
    """

    ge: float | None = None
    gt: float | None = None
    le: float | None = None
    lt: float | None = None
    odd: bool = False
    choices: tuple = ()

    def allows(self, value) -> bool:
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
        return f"odd and {text}" if self.odd else text


@functools.cache
def field_bounds(cls) -> dict:
    """name -> Bound of each field of cls that declares one, read once per class."""
    hints = typing.get_type_hints(cls, include_extras=True)
    metadata = {name: getattr(hint, "__metadata__", ()) for name, hint in hints.items()}
    return {name: m for name, ms in metadata.items() for m in ms if isinstance(m, Bound)}


class Checked:
    """Base of a dataclass whose fields declare a Bound; building one checks them.

    Direct construction, ``dataclasses.replace`` and config.decode all run
    this; a subclass checks a rule across fields after calling it.
    """

    def __post_init__(self):
        for name, bound in field_bounds(type(self)).items():
            value = getattr(self, name)
            if not bound.allows(value):
                raise ConfigError(f"{name} must be {bound.describe()}, got {value!r}")


PositiveInt = typing.Annotated[int, Bound(gt=0)]
PositiveFloat = typing.Annotated[float, Bound(gt=0)]
NonNegativeInt = typing.Annotated[int, Bound(ge=0)]  # as a seed: numpy's generators refuse a negative one
NonNegativeFloat = typing.Annotated[float, Bound(ge=0)]


class SplitError(FetalGuardError):
    """A requested split would leave a class without samples."""


class TrainingDataError(FetalGuardError):
    """The training view is unusable (e.g. no normal samples)."""


class TrainingError(FetalGuardError):
    """Training aborted (non-finite loss or inconsistent inputs); carries diagnostics."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        self.diagnostics = diagnostics or {}
        super().__init__(message)


class ShapeError(FetalGuardError):
    """Dimension mismatch between arrays, layers, or models."""


class TestIsolationError(FetalGuardError):
    """The held-out test partition was accessed out of protocol."""

    __test__ = False  # not a pytest class despite the name
