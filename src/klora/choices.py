"""User-facing names, each parsed by its own enum, and the JSON type rule."""

from __future__ import annotations

import enum
import json
import typing


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


# the JSON values each type takes; any other type (a Choice) takes a name or a member
_JSON_TYPES = {bool: ((bool,), "a boolean"), int: ((int,), "an integer"),
               float: ((int, float), "a number")}


def typed(value, hint):
    """`value` held to the type `hint` (which may add `| None`): read as a float where
    a float is wanted (a bool is no number), parsed to its member where a `Choice` is,
    and held item by item where a `list[...]` is (a tuple counts as a list). Raises
    TypeError saying what it must be, or the enum's ValueError for an unknown name."""
    optional = type(None) in typing.get_args(hint)
    if optional:
        if value is None:
            return value
        hint = next(a for a in typing.get_args(hint) if a is not type(None))
    listed = typing.get_origin(hint) is list
    types, what = (((list, tuple), "a list") if listed
                   else _JSON_TYPES.get(hint, ((str, hint), "a name")))
    if isinstance(value, bool) is not (hint is bool) or not isinstance(value, types):
        raise TypeError(f"need {what}{' or null' if optional else ''}, "
                        f"got {json.dumps(value, default=str)}")
    if listed:
        item_hint, = typing.get_args(hint)
        return [typed(item, item_hint) for item in value]
    return hint(value)
