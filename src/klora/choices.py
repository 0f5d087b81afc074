"""Parsing of user-facing names into enum members."""

from __future__ import annotations


def parse_choice(enum_cls, name, what: str, aliases=None):
    """Map a member, its value, or a key of `aliases` (any case) to a member of `enum_cls`."""
    if isinstance(name, enum_cls):
        return name
    key = str(name).strip().lower()
    for member in enum_cls:
        if key == member.value:
            return member
    if aliases and key in aliases:
        return aliases[key]
    known = ", ".join(m.value for m in enum_cls)
    raise ValueError(f"unknown {what} {name!r} (known: {known})")
