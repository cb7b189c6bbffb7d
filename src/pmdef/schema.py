"""One parser for every JSON config: a dataclass's fields and annotations are
its schema. A bounded field declares its range in its annotation,
``Annotated[int, In(1)]``, and a choice is a ``Literal``; ``check_fields``,
called from each ``__post_init__``, checks both."""

from __future__ import annotations

import dataclasses
import functools
import math
import types
import typing

from .errors import ConfigError, ParameterError, UserError


@dataclasses.dataclass(frozen=True)
class In:
    """The range an ``Annotated`` numeric field declares: [lo, hi], or (lo, hi)
    when ``open``. NaN and ±inf lie in none."""

    lo: float
    hi: float = math.inf
    open: bool = False

    def __contains__(self, v) -> bool:
        return (self.lo < v < self.hi if self.open else self.lo <= v <= self.hi) and abs(v) < math.inf

    def __str__(self) -> str:
        hi = ")" if self.open or self.hi == math.inf else "]"
        return f"{'(' if self.open else '['}{self.lo}, {self.hi}{hi}"


# JSON types each annotation accepts; a bool is never a number, and an int
# in a float field stays an int, so that it serialises as given
_ACCEPTS = {int: int, float: (int, float), str: str, bool: bool}


@functools.cache
def _schema(cls) -> tuple[dict, dict]:
    """The init fields of the dataclass ``cls`` and their annotations, ``Annotated`` kept, resolved once per class."""
    return {f.name: f for f in dataclasses.fields(cls) if f.init}, typing.get_type_hints(cls, include_extras=True)


def _key(where: str, key) -> str:
    return f"{where}.{key}" if where else str(key)


def from_dict(cls, d, where: str = ""):
    """Build the dataclass ``cls`` from the JSON object ``d``. A non-object,
    an unknown or missing key and a wrongly typed value raise ConfigError
    naming the dotted key below ``where``; errors of ``__post_init__`` gain
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
    except UserError as exc:  # a check of __post_init__
        msg = str(exc)
        if where:
            msg = _key(where, msg) if msg.partition(":")[0] in fields else f"{where}: {msg}"
        raise type(exc)(msg) from None


def check_fields(obj, kind_fields: dict[str, tuple[str, ...]] | None = None) -> None:
    """For a dataclass's ``__post_init__``: raise ParameterError naming the first
    field whose value lies outside the ``In`` range or the ``Literal`` choices
    its annotation declares (None passes an optional field). With
    ``kind_fields``, the fields each ``kind`` reads, raise ConfigError naming
    a field that only other kinds read and that is set away from its default."""
    fields, hints = _schema(type(obj))
    for f in fields.values():
        value, tp = getattr(obj, f.name), hints[f.name]
        bounds = tp.__metadata__[0] if typing.get_origin(tp) is typing.Annotated else None
        if bounds is not None and value is not None and value not in bounds:
            raise ParameterError(f"{f.name}: must be in {bounds}, got {value!r}")
        if typing.get_origin(tp) is typing.Literal and value not in typing.get_args(tp):
            raise ParameterError(f"{f.name}: expected one of {list(typing.get_args(tp))}, got {value!r:.60}")
        owners = [kind for kind, names in (kind_fields or {}).items() if f.name in names]
        if owners and obj.kind not in owners and value != f.default:
            raise ConfigError(f"{f.name}: read by {'/'.join(owners)} only, not by {obj.kind}, got {value!r:.60}")


def _value(tp, v, where: str):
    if typing.get_origin(tp) is typing.Annotated:  # check_fields checks the range
        tp = typing.get_args(tp)[0]
    if isinstance(tp, types.UnionType):
        if v is None and type(None) in tp.__args__:
            return None
        options = [a for a in tp.__args__ if a is not type(None)]
        if len(options) > 1:  # dataclasses told apart by their ``kind``, under the key ``kind_key`` or "kind"
            if not isinstance(v, dict):
                raise ConfigError(f"{where}: expected an object, got {v!r:.60}")
            key = getattr(options[0], "kind_key", "kind")
            chosen = next((a for a in options if a.kind == v.get(key)), None)
            if chosen is None:
                kinds = [a.kind for a in options]
                raise ConfigError(f"{_key(where, key)}: expected one of {kinds}, got {v.get(key)!r:.60}")
            return from_dict(chosen, {k: x for k, x in v.items() if k != key}, where)
        tp = options[0]
    if dataclasses.is_dataclass(tp):
        return from_dict(tp, v, where)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is typing.Literal:  # check_fields checks the choice
        tp = type(args[0])
    if origin in (list, tuple):
        if not isinstance(v, list):
            raise ConfigError(f"{where}: expected a list, got {v!r:.60}")
        return origin(_value(args[0], x, f"{where}[{i}]") for i, x in enumerate(v))
    if not isinstance(v, _ACCEPTS[tp]) or (isinstance(v, bool) and tp is not bool):
        raise ConfigError(f"{where}: expected {tp.__name__}, got {v!r:.60}")
    if isinstance(v, float) and not math.isfinite(v):  # json reads NaN, Infinity and 1e400
        raise ConfigError(f"{where}: expected a finite number, got {v!r}")
    return v + 0.0 if isinstance(v, float) else v  # -0.0 becomes 0.0, a scale numpy accepts
