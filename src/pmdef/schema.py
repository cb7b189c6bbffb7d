"""One parser for every JSON config: a dataclass's fields and annotations are
its schema. Range checks stay in each dataclass's ``__post_init__``."""

from __future__ import annotations

import dataclasses
import functools
import types
import typing

from .errors import ConfigError, UserError

# JSON types each annotation accepts; a bool is never a number, and an int
# in a float field stays an int, so that it serialises as given
_ACCEPTS = {int: int, float: (int, float), str: str, bool: bool}


@functools.cache
def _schema(cls) -> tuple[dict, dict]:
    """The init fields of the dataclass ``cls`` and their annotations, resolved once per class."""
    return {f.name: f for f in dataclasses.fields(cls) if f.init}, typing.get_type_hints(cls)


def _key(where: str, key) -> str:
    return f"{where}.{key}" if where else str(key)


def from_dict(cls, d, where: str = ""):
    """Build the dataclass ``cls`` from the JSON object ``d``. A non-object,
    an unknown or missing key and a wrongly typed value raise ConfigError
    naming the dotted key below ``where``; errors of the range checks gain
    the prefix ``where``, joined with a dot to one that starts with a field
    name and a colon."""
    if not isinstance(d, dict):
        raise ConfigError(f"{where or 'config'}: expected an object, got {d!r:.60}")
    fields, hints = _schema(cls)
    unknown = sorted(d.keys() - fields.keys())
    if unknown:
        raise ConfigError(f"{_key(where, unknown[0])}: unknown key")
    for name, f in fields.items():
        if name not in d and f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise ConfigError(f"{_key(where, name)}: missing key")
    values = {key: _value(hints[key], v, _key(where, key)) for key, v in d.items()}
    try:
        return cls(**values)
    except UserError as exc:  # a range check of __post_init__
        msg = str(exc)
        if where:
            msg = _key(where, msg) if msg.partition(":")[0] in fields else f"{where}: {msg}"
        raise type(exc)(msg) from None


def _value(tp, v, where: str):
    if isinstance(tp, types.UnionType):
        if v is None and type(None) in tp.__args__:
            return None
        options = [a for a in tp.__args__ if a is not type(None)]
        if len(options) > 1:  # dataclasses told apart by their ``kind``
            if not isinstance(v, dict):
                raise ConfigError(f"{where}: expected an object, got {v!r:.60}")
            chosen = next((a for a in options if a.kind == v.get("kind")), None)
            if chosen is None:
                kinds = [a.kind for a in options]
                raise ConfigError(f"{_key(where, 'kind')}: expected one of {kinds}, got {v.get('kind')!r:.60}")
            return from_dict(chosen, {k: x for k, x in v.items() if k != "kind"}, where)
        tp = options[0]
    if hasattr(tp, "from_dict"):  # a type with its own parser (model specs)
        try:
            return tp.from_dict(v)
        except UserError as exc:
            raise ConfigError(f"{where}: {exc}") from None
    if dataclasses.is_dataclass(tp):
        return from_dict(tp, v, where)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (list, tuple):
        if not isinstance(v, list):
            raise ConfigError(f"{where}: expected a list, got {v!r:.60}")
        items = args if origin is tuple and args[-1] is not Ellipsis else args[:1] * len(v)
        if len(items) != len(v):
            raise ConfigError(f"{where}: expected {len(items)} items, got {len(v)}")
        return origin(_value(t, x, f"{where}[{i}]") for i, (t, x) in enumerate(zip(items, v)))
    if not isinstance(v, _ACCEPTS[tp]) or (isinstance(v, bool) and tp is not bool):
        raise ConfigError(f"{where}: expected {tp.__name__}, got {v!r:.60}")
    return v
