"""One checked schema for every config: the `train` config file,
the `generate --spec` file and the config block of each model file.

A checked config is a frozen dataclass whose `__post_init__` calls `check`,
so direct construction and `build` from JSON share one rule: each field
takes what `checker` says of its annotation. Rules that tie fields
together stay in `__post_init__`.
"""

from __future__ import annotations

import dataclasses
import sys
import typing
from dataclasses import dataclass
from typing import Annotated, Literal

from .preprocess import CLASSES

ClassName = Literal[CLASSES]


class ConfigError(ValueError):
    """A config file, section, key or value that the program does not accept."""


@dataclass(frozen=True)
class Range:
    """low <= x <= high; a high of None is unbounded."""

    low: float
    high: float | None = None

    def __contains__(self, x) -> bool:
        return self.low <= x and (self.high is None or x <= self.high)

    def __str__(self) -> str:
        return f" >= {self.low}" if self.high is None else f" in [{self.low}, {self.high}]"


def _parts(hint, bound: Range | None = None):
    """(bare type, its origin, its args, its bound)."""
    if typing.get_origin(hint) is Annotated:
        hint, bound = hint.__origin__, hint.__metadata__[0]
    return hint, typing.get_origin(hint), typing.get_args(hint), bound


def checker(hint, bound: Range | None = None):
    """(what a field of this annotation takes, a test of a value); TypeError
    for an annotation the schema has no check for."""
    hint, origin, args, bound = _parts(hint, bound)
    if origin is tuple and (args[1:] == (...,) or args == (args[0],) * 2):
        text, test = checker(args[0], bound)
        if args[1:] == (...,):
            return f"a list, each {text}", lambda v: isinstance(v, tuple) and all(map(test, v))
        return f"a [low, high] pair with low <= high, each {text}", lambda v: (
            isinstance(v, tuple) and len(v) == 2 and all(map(test, v)) and v[0] <= v[1]
        )
    if origin is dict and args[0] == ClassName:
        text, test = checker(args[1], bound)
        return f"an object keyed by class name, each value {text}", lambda v: (
            isinstance(v, dict) and all(k in CLASSES and test(x) for k, x in v.items())
        )
    if hint is bool:
        return "true or false", lambda v: isinstance(v, bool)
    if hint not in (int, float):
        raise TypeError(f"no check for the annotation {hint!r}")
    kinds = int if hint is int else (int, float)
    text = ("an integer" if hint is int else "a finite number") + str(bound or "")
    # abs(v) <= max is false for NaN, infinities and integers too large for a float
    return text, lambda v: (
        isinstance(v, kinds) and not isinstance(v, bool)
        and abs(v) <= sys.float_info.max and (bound is None or v in bound)
    )


def check(instance) -> None:
    """Raise ConfigError naming the first field whose value its annotation rejects."""
    hints = typing.get_type_hints(type(instance), include_extras=True)
    for f in dataclasses.fields(instance):
        text, test = checker(hints[f.name])
        if not test(getattr(instance, f.name)):
            raise ConfigError(f"{f.name} must be {text}, not {getattr(instance, f.name)!r}")


def mapping(raw, known, what: str, error=ConfigError) -> dict:
    """`raw` itself, if it is a JSON object whose keys are all in `known`."""
    if not isinstance(raw, dict):
        raise error(f"{what} must be a JSON object, not {type(raw).__name__}")
    unknown = sorted(set(raw) - set(known))
    if unknown:
        raise error(f"{what} has unknown keys {unknown} (it takes {sorted(known)})")
    return raw


def _from_json(value, hint):
    """`value` as `check` expects it: a list for a tuple field becomes a tuple."""
    return tuple(value) if _parts(hint)[1] is tuple and isinstance(value, list) else value


def build(cls, raw, what: str, *, error=ConfigError, fixed=()):
    """An instance of the checked dataclass `cls` from the JSON object `raw`.

    Keys left out keep the field's default; `raw` may not set the fields in
    `fixed`. A failure raises `error`, its message starting with `what` and
    naming the key.
    """
    fields = dataclasses.fields(cls)
    given = mapping(raw, [f.name for f in fields if f.name not in fixed], what, error)
    try:
        missing = [
            f.name for f in fields if f.name not in given
            and f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
        ]
        if missing:
            raise ConfigError(f"lacks keys {missing}")
        hints = typing.get_type_hints(cls, include_extras=True)
        return cls(**{name: _from_json(value, hints[name]) for name, value in given.items()})
    except ConfigError as exc:
        raise error(f"{what}: {exc}") from exc
