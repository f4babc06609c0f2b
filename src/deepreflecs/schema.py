"""One checked schema for every config: the `train`/`model` config file,
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
    """low <= x <= high, or low <= x < high when high_open; None is unbounded."""

    low: float | None = None
    high: float | None = None
    high_open: bool = False

    def __contains__(self, x) -> bool:
        if self.low is not None and x < self.low:
            return False
        return self.high is None or (x < self.high if self.high_open else x <= self.high)

    def __str__(self) -> str:
        if self.high is None:
            return f" >= {self.low}"
        return f" in [{self.low}, {self.high}{')' if self.high_open else ']'}"


def _parts(hint, bound: Range | None = None):
    """(bare type, its origin, its args, its bound)."""
    if typing.get_origin(hint) is Annotated:
        hint, bound = hint.__origin__, hint.__metadata__[0]
    return hint, typing.get_origin(hint), typing.get_args(hint), bound


def checker(hint, bound: Range | None = None):
    """(what a field of this annotation takes, a test of a value); TypeError
    for an annotation the schema has no check for."""
    hint, origin, args, bound = _parts(hint, bound)
    if origin is Literal:
        return f"one of {list(args)}", lambda v: v in args
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
    if hint is bool or (origin is None and dataclasses.is_dataclass(hint)):
        text = "true or false" if hint is bool else f"a {hint.__name__}"
        return text, lambda v: isinstance(v, hint)
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


def _from_json(value, hint, default, name: str):
    """`value` as `check` expects it: a list becomes a tuple, and an object for
    a mapping of dataclasses updates `default`, each entry built over its own."""
    _, origin, args, _ = _parts(hint)
    if origin is tuple and isinstance(value, list):
        return tuple(value)
    if origin is dict and dataclasses.is_dataclass(args[1]) and isinstance(value, dict):
        built = {
            key: build(args[1], item, f"{name}[{key!r}]", base=default[key])
            if key in default else item
            for key, item in value.items()
        }
        return {**default, **built}
    return value


def _default(f: dataclasses.Field, base):
    if base is not None:
        return getattr(base, f.name)
    return f.default if f.default_factory is dataclasses.MISSING else f.default_factory()


def build(cls, raw, what: str, *, error=ConfigError, base=None, fixed=()):
    """An instance of the checked dataclass `cls` from the JSON object `raw`.

    Keys left out keep their value in `base`, or else the field's default;
    `raw` may not set the fields in `fixed`. A failure raises `error`, its
    message starting with `what` and naming the key.
    """
    fields = dataclasses.fields(cls)
    given = mapping(raw, [f.name for f in fields if f.name not in fixed], what, error)
    try:
        hints = typing.get_type_hints(cls, include_extras=True)
        values = {f.name: _default(f, base) for f in fields}
        for name, value in given.items():
            values[name] = _from_json(value, hints[name], values[name], name)
        missing = [name for name, value in values.items() if value is dataclasses.MISSING]
        if missing:
            raise ConfigError(f"lacks keys {missing}")
        return cls(**values)
    except ConfigError as exc:
        raise error(f"{what}: {exc}") from exc
