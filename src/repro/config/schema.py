"""One declarative schema for the config dataclasses.

Every config field states its constraint once, as ``dataclasses.field``
metadata built by one of the helpers below; the default and the
positional order stay those of a plain dataclass field:

* :func:`integer` — an ``int`` (never a bool or a float);
* :func:`real` — a finite ``int`` or ``float`` (never a bool, NaN or inf);
* :func:`flag` — a ``bool``;
* :func:`text` — a ``str``, optionally non-empty;
* :func:`member` — one string out of a fixed tuple of choices;
* :func:`tuple_of` — a tuple whose entries meet an entry constraint,
  optionally non-empty, of a fixed length, or free of duplicates.  Any
  iterable other than a string or a mapping is stored as a tuple.

Bounds are closed (``ge``, ``le``) or open (``gt``); ``optional=True``
also admits ``None``.

:class:`Validated` checks every field against its metadata in
``__post_init__`` and raises the class's ``_error`` type with a message
that names the class and the field.  A config class's own
``__post_init__`` calls ``super().__post_init__()`` first and then holds
only the rules that span several fields.  The per-class plan is resolved
once per class, not per instance.

:class:`JsonConfig` adds the one ``as_dict``/``from_dict`` pair.  Both
follow the field annotations: tuples are JSON lists, nested configs are
JSON objects, and a ``tuple[tuple[str, X], ...]`` of named pairs is a JSON
object keyed by name.  ``from_dict`` rejects unknown keys, takes defaults
from the dataclass fields, and never coerces a value: a JSON value of the
wrong type (``2.9`` for an int, ``"3"`` for a number, ``true`` for a
count) fails validation instead of being truncated.
"""

from __future__ import annotations

import functools
import typing
from collections.abc import Iterable, Mapping
from dataclasses import MISSING, dataclass, field, fields
from typing import Any

from ..errors import ConfigurationError
from .units import is_finite_number

__all__ = [
    "JsonConfig",
    "Validated",
    "flag",
    "integer",
    "member",
    "real",
    "text",
    "tuple_of",
]


@dataclass(frozen=True)
class Check:
    """One field's constraint (see the module docstring for the kinds).

    ``what`` replaces the generated description in error messages; for a
    ``member`` check it is the noun for one choice ("pattern").
    """

    kind: str
    ge: float | None = None
    gt: float | None = None
    le: float | None = None
    optional: bool = False
    nonempty: bool = False
    choices: tuple[str, ...] = ()
    entry: Check | None = None
    length: int | None = None
    unique: bool = False
    what: str | None = None

    def describe(self) -> str:
        if self.what is not None:
            return self.what
        text = {
            "int": "an int",
            "real": "a finite number",
            "bool": "a bool",
            "str": "a non-empty string" if self.nonempty else "a string",
            "tuple": "a tuple",
        }[self.kind]
        low = self.ge if self.ge is not None else self.gt
        if low is not None and self.le is not None:
            bracket = "[" if self.ge is not None else "("
            text += f" in {bracket}{low:g}, {self.le:g}]"
        elif low is not None:
            text += f" {'>=' if self.ge is not None else '>'} {low:g}"
        elif self.le is not None:
            text += f" <= {self.le:g}"
        return text + (" or None" if self.optional else "")

    def normalise(self, value: Any) -> Any:
        """``value`` with every iterable a tuple field holds as a tuple."""
        if (
            self.kind != "tuple"
            or isinstance(value, (str, bytes, Mapping))
            or not isinstance(value, Iterable)
        ):
            return value
        if self.entry is None:
            return tuple(value)
        return tuple(self.entry.normalise(item) for item in value)

    def problem(self, value: Any) -> str | None:
        """Why ``value`` breaks this check ("must be ..."), or None."""
        if value is None and self.optional:
            return None
        if self.kind == "member":
            if isinstance(value, str) and value in self.choices:
                return None
            return (
                f"names unknown {self.what} {value!r}; "
                f"known: {', '.join(self.choices)}"
            )
        if self.kind == "tuple" and isinstance(value, tuple):
            if self.nonempty and not value:
                return "needs at least one entry"
            if self.length is None or len(value) == self.length:
                return self._entry_problem(value)
        elif self._fits(value):
            return None
        return f"must be {self.describe()}, got {value!r}"

    def _entry_problem(self, value: tuple) -> str | None:
        for item in value:
            inner = self.entry and self.entry.problem(item)
            if inner:
                if self.what is None:
                    return f"entry {inner}"
                return f"must be {self.what}, got {value!r}"
        if self.unique:
            seen: set = set()
            for item in value:
                if item in seen:
                    return f"lists {item!r} more than once"
                seen.add(item)
        return None

    def _fits(self, value: Any) -> bool:
        if self.kind == "bool":
            return isinstance(value, bool)
        if self.kind == "str":
            return isinstance(value, str) and (bool(value) or not self.nonempty)
        if self.kind == "int":
            fits = isinstance(value, int) and not isinstance(value, bool)
        else:
            fits = self.kind == "real" and is_finite_number(value)
        return fits and not (
            (self.ge is not None and value < self.ge)
            or (self.gt is not None and value <= self.gt)
            or (self.le is not None and value > self.le)
        )


def _field(check: Check, default: Any) -> Any:
    return field(default=default, metadata={"check": check})


def integer(default: Any = MISSING, *, ge: int | None = None) -> Any:
    return _field(Check("int", ge=ge), default)


def real(
    default: Any = MISSING,
    *,
    ge: float | None = None,
    gt: float | None = None,
    le: float | None = None,
    optional: bool = False,
    what: str | None = None,
) -> Any:
    return _field(
        Check("real", ge=ge, gt=gt, le=le, optional=optional, what=what),
        default,
    )


def flag(default: Any = MISSING) -> Any:
    return _field(Check("bool"), default)


def text(
    default: Any = MISSING, *, nonempty: bool = False, optional: bool = False
) -> Any:
    return _field(Check("str", nonempty=nonempty, optional=optional), default)


def member(choices: tuple[str, ...], noun: str, default: Any = MISSING) -> Any:
    return _field(Check("member", choices=tuple(choices), what=noun), default)


def tuple_of(
    entry: Any = None,
    default: Any = MISSING,
    *,
    nonempty: bool = False,
    length: int | None = None,
    unique: bool = False,
    what: str | None = None,
) -> Any:
    """A tuple field; ``entry`` is another helper's field, or None."""
    check = Check(
        "tuple",
        entry=None if entry is None else entry.metadata["check"],
        nonempty=nonempty,
        length=length,
        unique=unique,
        what=what,
    )
    return _field(check, default)


@functools.cache
def _checks(cls: type) -> tuple[tuple[str, Check], ...]:
    return tuple(
        (f.name, f.metadata["check"]) for f in fields(cls) if "check" in f.metadata
    )


class Validated:
    """Mixin for a frozen config dataclass whose fields carry a Check."""

    #: The error type every check of the class raises.
    _error: type[Exception] = ConfigurationError

    def __post_init__(self) -> None:
        for name, check in _checks(type(self)):
            value = getattr(self, name)
            normal = check.normalise(value)
            if normal is not value:
                object.__setattr__(self, name, normal)
            problem = check.problem(normal)
            if problem is not None:
                raise self._error(f"{self._where(name)} {problem}")

    def _where(self, name: str) -> str:
        """``Class.field``, with the instance's ``name`` when it has one."""
        owner = type(self).__name__
        tag = getattr(self, "name", None)
        if name != "name" and isinstance(tag, str) and tag:
            owner += f"({tag!r})"
        return f"{owner}.{name}"


@functools.cache
def _hints(cls: type) -> dict[str, Any]:
    return typing.get_type_hints(cls)


def _spec_name(cls: type[JsonConfig]) -> str:
    return cls._label or cls.__name__


def _named_pairs(hint: Any) -> Any:
    """``X`` if ``hint`` is ``tuple[tuple[str, X], ...]``, else None."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple and args[-1:] == (...,):
        pair = typing.get_args(args[0])
        if typing.get_origin(args[0]) is tuple and pair[:1] == (str,):
            return pair[1]
    return None


def _encode(hint: Any, value: Any) -> Any:
    if isinstance(value, JsonConfig):
        return value.as_dict()
    named = _named_pairs(hint)
    if named is not None:
        return {key: _encode(named, item) for key, item in value}
    if isinstance(value, tuple):
        return [_encode(None, item) for item in value]
    return value


def _decode(hint: Any, value: Any, owner: type[JsonConfig], name: str) -> Any:
    """``value`` with nested configs built; lists become tuples later."""
    if isinstance(hint, type) and issubclass(hint, JsonConfig):
        if not isinstance(value, Mapping):
            raise owner._error(
                f"{_spec_name(owner)} field {name!r} must be a JSON object, "
                f"got {type(value).__name__}"
            )
        return hint.from_dict(value)
    named = _named_pairs(hint)
    if named is not None and isinstance(value, Mapping):
        return tuple(
            (key, _decode(named, item, owner, name))
            for key, item in value.items()
        )
    args = typing.get_args(hint)
    if args[-1:] == (...,) and isinstance(value, list):
        return tuple(_decode(args[0], item, owner, name) for item in value)
    return value


class JsonConfig(Validated):
    """A :class:`Validated` config with the one JSON round-trip."""

    #: How ``from_dict`` errors name the class (default: its name).
    _label: str | None = None

    def as_dict(self) -> dict[str, Any]:
        """JSON form (tuples become lists), inverse of :meth:`from_dict`."""
        hints = _hints(type(self))
        return {
            f.name: _encode(hints[f.name], getattr(self, f.name))
            for f in fields(self)
        }

    @classmethod
    def from_dict(cls, data: Any) -> Any:
        """Build from the JSON form; absent fields take their defaults."""
        if not isinstance(data, Mapping):
            raise cls._error(
                f"{_spec_name(cls)} must be a JSON object, "
                f"got {type(data).__name__}"
            )
        known = {f.name: f for f in fields(cls)}
        unknown = sorted(set(data) - set(known))
        if unknown:
            raise cls._error(
                f"unknown {_spec_name(cls)} field(s): {', '.join(unknown)}"
            )
        missing = [
            name
            for name, f in known.items()
            if name not in data
            and f.default is MISSING
            and f.default_factory is MISSING
        ]
        if missing:
            raise cls._error(
                f"invalid {_spec_name(cls)}: missing required field(s): "
                f"{', '.join(missing)}"
            )
        hints = _hints(cls)
        return cls(
            **{
                name: _decode(hints[name], value, cls, name)
                for name, value in data.items()
            }
        )
