"""User-facing names, each parsed by its own enum, the JSON type rule, and the
range rules a setting, param or assert declares in its annotation."""

from __future__ import annotations

import enum
import json
import math
import numbers
import typing
from typing import Annotated


class Choice(enum.Enum):
    """Names of one `what`: calling the class maps a member to itself, and its
    value in any case, spaces stripped, or a `spellings()` key to the member."""

    def __init_subclass__(cls, what: str, **kwds):
        super().__init_subclass__(**kwds)
        cls.what = what

    @classmethod
    def spellings(cls) -> dict:
        """Extra lower-case spellings, each to the member it names."""
        return {}

    @classmethod
    def _missing_(cls, value):
        member = ({m.value: m for m in cls} | cls.spellings()).get(str(value).strip().lower())
        if member is None:
            known = ", ".join(m.value for m in cls)
            raise ValueError(f"unknown {cls.what} {value!r} (known: {known})")
        return member


# the JSON values each type or container takes (a numpy integer counts as an
# integer, a tuple as a list); any other type (a Choice) takes a name or a member
_JSON_TYPES = {bool: ((bool,), "a boolean"), int: ((numbers.Integral,), "an integer"),
               float: ((numbers.Real,), "a number"), dict: ((dict,), "an object"),
               list: ((list, tuple), "a list"), tuple: ((list, tuple), "a list")}


def typed(value, hint, name: str = "value"):
    """`value` held to the type `hint` (which may add `| None`): read as a float where
    a float is wanted (a bool is no number), parsed to its member where a `Choice` is,
    held item by item where a `list[...]` is (a tuple counts as a list), as a list of
    fixed length where a `tuple[...]` is, key by key and value by value where a
    `dict[K, V]` is, and then to the range rule an `Annotated[type, rule]` carries,
    which a None value skips. Raises TypeError saying what it must be, or ValueError
    for a float that is not finite or a value outside its rule (naming it `name`) or
    the enum's for an unknown name."""
    if typing.get_origin(hint) is Annotated:
        hint, (holds, what) = typing.get_args(hint)
        held = typed(value, hint, name)
        if held is None or holds(held):
            return held
        shown = repr(held) if isinstance(held, (int, float)) else json.dumps(value, default=str)
        raise ValueError(f"{name} {what}, got {shown}")
    optional = type(None) in typing.get_args(hint)
    if optional:
        if value is None:
            return value
        hint = next(a for a in typing.get_args(hint) if a is not type(None))
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    types, what = _JSON_TYPES.get(origin or hint, ((str, hint), "a name"))
    if origin is tuple:
        what = f"a list of {len(args)} items"
    if (isinstance(value, bool) is not (hint is bool) or not isinstance(value, types)
            or origin is tuple and len(value) != len(args)):
        raise TypeError(f"need {what}{' or null' if optional else ''}, "
                        f"got {json.dumps(value, default=str)}")
    if origin is list:
        return [typed(item, args[0], name) for item in value]
    if origin is tuple:
        return tuple(typed(item, arg, name) for item, arg in zip(value, args))
    if origin is dict:
        return {typed(key, args[0], name): typed(item, args[1], name)
                for key, item in value.items()}
    held = hint(value)
    if hint is float and not math.isfinite(held):
        raise ValueError(f"{name} must be finite, got {held!r}")
    return held


class SettingError(ValueError):
    """A setting or param of the wrong type or outside its range: `name` is the
    setting or param, and `problem` says which of the two."""

    def __init__(self, name: str, message: str, problem: str = "value out of range"):
        super().__init__(message)
        self.name = name
        self.problem = problem


# range rules: (holds, what a value must be), each carried by an `Annotated` alias,
# which sees only finite floats. COUNT is named for `Annotated[int | None, COUNT]` too.
COUNT = (lambda v: v >= 1, "must be >= 1")
NONNEGATIVE = (lambda v: v >= 0, "must be nonnegative")
Count, Natural = Annotated[int, COUNT], Annotated[int, NONNEGATIVE]
NonNegative = Annotated[float, NONNEGATIVE]
Positive = Annotated[float, (lambda v: v > 0, "must be positive")]
Unit = Annotated[float, (lambda v: 0 <= v <= 1, "must lie in [0, 1]")]
Decay = Annotated[float, (lambda v: 0 <= v < 1, "must lie in [0, 1)")]
OpenUnit = Annotated[float, (lambda v: 0 < v < 1, "must lie in (0, 1)")]


def once_each(what: str) -> tuple:
    """The range rule of a list that names no `what` twice."""
    return (lambda items: len(set(items)) == len(items), f"must name each {what} once")


def hints(obj) -> dict:
    """The annotations of a function's params or a class's fields, each with any
    range rule it carries."""
    return typing.get_type_hints(obj, include_extras=True)


def check(name: str, value, hint):
    """`value` held to `hint`, type and range rules (`typed`). Raises a SettingError
    for `name` saying which of the two it fails."""
    try:
        return typed(value, hint, name)
    except TypeError as err:
        raise SettingError(name, str(err), "wrong type") from None
    except ValueError as err:
        raise SettingError(name, str(err)) from None
