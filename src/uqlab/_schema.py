"""The one typed JSON reader: config.json and checkpoints, read into dataclasses."""

from __future__ import annotations

import dataclasses
import json
import sys
import types
import typing
from dataclasses import MISSING

from .errors import ConfigError

_JSON_TYPES = {int: "an integer", float: "a number", str: "a string", tuple: "an array",
               bool: "true or false"}


def _shown(value) -> str:
    return {list: "an array", dict: "an object"}.get(type(value)) or json.dumps(value)


def _all_read_as(tp, values: list) -> bool:
    """Whether every entry of ``values`` reads as the scalar type ``tp``, checked in one pass."""
    kinds = set(map(type, values))
    if tp is float:
        return kinds <= {float, int} and all(map(sys.float_info.max.__ge__, map(abs, values)))
    return kinds <= {tp}


def _check_keys(doc, paths: list[tuple[str, ...]], where: str) -> None:
    """Require ``doc`` to be an object holding only keys that ``paths`` name."""
    if type(doc) is not dict:
        raise ConfigError(f"{where}: expected a JSON object, got {_shown(doc)}")
    for key, value in doc.items():
        inner = [path[1:] for path in paths if path[0] == key]
        if not inner:
            raise ConfigError(f"{where}.{key}: unknown key")
        if inner[0]:
            _check_keys(value, inner, f"{where}.{key}")


def _read(tp, value, where: str, paths: dict[str, tuple[str, ...]] | None = None):
    """Read the JSON value at key path ``where`` as type ``tp``.

    A dataclass reads from an object in which ``paths`` (by default each
    field's own name) locates its fields; an unknown key is an error, and
    an absent one keeps the dataclass default or, for a field without
    one, is an error. A value the dataclass itself rejects is reported at
    its key path. A tuple reads from an array and ``X | None`` also from
    null. A bool is not an int; a float keeps an int and must be finite
    (json.load reads NaN and Infinity, and ints of any size).
    """
    if dataclasses.is_dataclass(tp):
        hints = typing.get_type_hints(tp)
        fields = dataclasses.fields(tp)
        required = {f.name for f in fields if f.default is f.default_factory is MISSING}
        paths = paths or {name: (name,) for name in hints}
        _check_keys(value, list(paths.values()), where)
        kwargs = {}
        for name, (*sections, key) in paths.items():
            node = value
            for section in sections:
                node = node.get(section, {})
            if key in node:
                kwargs[name] = _read(hints[name], node[key], ".".join((where, *sections, key)))
            elif name in required:
                raise ConfigError(f"{'.'.join((where, *sections))}: missing key {key!r}")
        try:
            return tp(**kwargs)
        except ConfigError as exc:
            # The key names a field, or a key path inside one ("near.translation").
            head, dot, inner = (exc.key or "").partition(".")
            if head not in paths:
                raise
            path = ".".join((where, *paths[head]))
            raise ConfigError(f"{path}{dot}{inner}: {exc.reason}") from None
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is types.UnionType:  # X | None
        return None if value is None else _read(args[0], value, where)
    if origin is tuple:
        if type(value) is list:
            if args[0] in _JSON_TYPES and _all_read_as(args[0], value):
                return tuple(value)
            # Read entry by entry, which names the first entry that does not read.
            return tuple(_read(args[0], v, f"{where}[{i}]") for i, v in enumerate(value))
    elif type(value) is tp or (tp is float and type(value) is int):
        if tp is float and not abs(value) <= sys.float_info.max:
            raise ConfigError(f"{where}: expected a finite number, got {_shown(value)}")
        return value
    raise ConfigError(f"{where}: expected {_JSON_TYPES[origin or tp]}, got {_shown(value)}")
