"""The one reader of the JSON documents latscale reads back: scenarios,
checkpoints and scaling plans.  ``read(hint, value, where)`` returns
``value`` as the type ``hint``, or raises ValueError naming ``where``
and the key or index at fault.  By annotation: a dataclass is an object
of its field names, none unknown and none without a default missing;
``int`` an integer or a whole float; ``float`` a finite number; ``bool``
true or false; ``str`` a string (so neither is ever read as a number);
``X | None`` null or an ``X``; ``tuple[X, ...]``, a fixed ``tuple[X, Y]``
and ``list[X]`` a list, giving a tuple or a list; ``dict[K, X]`` an
object; a bare ``dict`` an object passed on as it is.  Any other
annotation raises TypeError, so no field passes unread.
"""
from __future__ import annotations

import functools
import json
import sys
import typing
from dataclasses import MISSING, fields, is_dataclass

_show = functools.partial(json.dumps, default=repr)


@functools.cache
def type_hints(cls) -> dict:
    """``typing.get_type_hints(cls)``, resolved once per class: under
    postponed annotations every call compiles each annotation again.
    The dict is shared, so callers must not change it."""
    return typing.get_type_hints(cls)


@functools.cache
def _required(cls) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING)


def _error(where: str, message: str) -> ValueError:
    return ValueError(f"{where}: {message}" if where else message)


def read(hint, value, where: str = "", **given):
    """``value`` read as the type ``hint`` by the rules above; ``given``
    holds fields of a dataclass ``hint`` that the document may not."""
    if hint is float or hint is int:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise _error(where, f"expected {'an integer' if hint is int else 'a number'}, "
                                f"got {_show(value)}")
        if not abs(value) <= sys.float_info.max:  # a NaN, an infinity or too large an integer
            raise _error(where, f"{value} is not a finite number")
        if hint is int and isinstance(value, float) and not value.is_integer():
            raise _error(where, f"expected an integer, got {_show(value)}")
        return hint(value)
    if hint is str or hint is bool:
        if type(value) is not hint:
            raise _error(where, f"expected {'a string' if hint is str else 'true or false'}, "
                                f"got {_show(value)}")
        return value
    if is_dataclass(hint):
        return _read_object(hint, value, where, given)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if len(args) == 2 and type(None) in args:
        return None if value is None else read(args[args[0] is type(None)], value, where)
    if origin is tuple or origin is list:
        if not isinstance(value, (list, tuple)):
            raise _error(where, f"expected a list, got {_show(value)}")
        if origin is list or args[-1] is Ellipsis:
            args = args[:1] * len(value)
        elif len(value) != len(args):
            raise _error(where, f"expected a list of {len(args)}, got {_show(value)}")
        return origin(read(t, v, f"{where} {i}".lstrip()) for i, (t, v) in enumerate(zip(args, value)))
    if hint is not dict and origin is not dict:
        raise TypeError(f"{where}: no rule reads the annotation {hint!r}")
    if not isinstance(value, dict):
        raise _error(where, f"expected an object, got {_show(value)}")
    if hint is dict:
        return value
    return {read(args[0], key, where): read(args[1], v, f"{where} {key!r}".lstrip())
            for key, v in value.items()}


def _read_object(hint, value, where: str, given: dict):
    """The dataclass ``hint`` built from the object ``value``; a ValueError
    the dataclass raises itself is prefixed with ``where``."""
    if not isinstance(value, dict):
        raise _error(where, f"expected an object, got {_show(value)}")
    hints = type_hints(hint)
    unknown = [key for key in value if key not in hints or key in given]
    if unknown:
        raise _error(where, f"unknown key(s) {', '.join(map(repr, unknown))}")
    missing = [key for key in _required(hint) if key not in value and key not in given]
    if missing:
        raise _error(where, f"missing key(s) {', '.join(map(repr, missing))}")
    kwargs = {key: read(hints[key], v, f"{where} {key}".lstrip()) for key, v in value.items()}
    try:
        return hint(**given, **kwargs)
    except ValueError as exc:
        if str(exc).startswith(where):  # the class named itself, or there is no where
            raise
        raise _error(where, str(exc)) from exc
