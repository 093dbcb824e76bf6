"""Field checks of the config dataclasses: a field's type, and a choice's
allowed strings (``Literal``), are declared once, in its annotation."""

from __future__ import annotations

import dataclasses
import functools
import numbers
import re
import types
import typing

# resolved once per class: every config object is checked as it is built
type_hints = functools.cache(typing.get_type_hints)
_NUMBERS = {int: numbers.Integral, float: numbers.Real}


def fits(value, hint) -> bool:
    """Whether annotation ``hint`` accepts ``value``; bools are not numbers, numpy numbers are."""
    if type(value) is hint:  # the common case, without the typing lookups below
        return True
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Literal:
        return isinstance(value, str) and value in args
    if origin is tuple:  # tuple[X, ...]
        return isinstance(value, tuple) and all(fits(v, args[0]) for v in value)
    if args:  # X | None
        return any(fits(value, a) for a in args)
    if hint in _NUMBERS:
        return isinstance(value, _NUMBERS[hint]) and not isinstance(value, bool)
    return isinstance(value, hint)


@functools.cache
def _field_checks(cls) -> tuple:
    """(name, annotation, the types it accepts every instance of) for each field of ``cls``.

    Those types are the annotation itself, or each member of a union, if
    a plain class: ``float``, or ``LinkGeometry`` and ``NoneType`` for
    ``LinkGeometry | None``. A value of exactly one of them needs no
    ``fits``, which spares the typing lookups of every object built.
    """
    checks = []
    for f in dataclasses.fields(cls):
        hint = type_hints(cls)[f.name]
        members = typing.get_args(hint) if isinstance(hint, types.UnionType) else (hint,)
        checks.append((f.name, hint, tuple(m for m in members if type(m) is type)))
    return tuple(checks)


def check_field_types(obj, error=ValueError) -> None:
    """Raise ``error`` naming the first field of ``obj`` whose annotation rejects its value."""
    for name, hint, exact in _field_checks(type(obj)):
        value = getattr(obj, name)
        if type(value) not in exact and not fits(value, hint):
            want = hint.__name__ if isinstance(hint, type) else re.sub(r"\b[\w.]+\.", "", repr(hint))
            raise error(f"{name} must be {want}, got {value!r}")
