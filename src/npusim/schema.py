"""Records, and the config records: each YAML section is one `Record`.

A `Struct` subclass's annotated names are its fields, after its bases';
a class attribute of the same name is a field's default. `Struct` reads
them once, when the class is made, and all records share its methods:
no code is generated at import. A config field's name is its YAML key
and its default is the only default; its type is the type of that
default (bool, int, float or str). ``knob`` adds an inclusive lower
bound ``lo``, an exclusive one ``gt``, or an allowed set ``choices``.
``check`` tests a mapping against a record: the config loader runs it on
YAML and env input, and every record runs it on itself when constructed,
so both paths apply the same rules.
"""

from __future__ import annotations

import math
from typing import Any, List, Mapping, Optional

_MISSING = object()                       # the default of a required field


class knob:
    """A record field's default, with a range or an allowed set."""

    def __init__(self, default: Any, *, lo: Optional[float] = None,
                 gt: Optional[float] = None, choices: Optional[tuple] = None):
        self.default, self.lo, self.gt, self.choices = default, lo, gt, choices


def _frozen(self, name, *value):
    raise AttributeError(f"{type(self).__qualname__} is frozen: "
                         f"cannot set or delete {name!r}")


class Struct:
    """Base of the records. Built from positional or keyword field values;
    equal, and hashed, as the tuple of their fields. Frozen unless the
    class is made with `frozen=False`, which also leaves it unhashable.
    `__post_init__` runs once the fields are set."""

    _fields: tuple = ()                   # field names, in order
    _knobs: dict = {}                     # name -> knob, in field order
    _defaults: dict = {}                  # name -> default or _MISSING

    def __init_subclass__(cls, frozen: bool = True, **kwargs):
        super().__init_subclass__(**kwargs)
        knobs = dict(cls._knobs)
        for name in cls.__dict__.get("__annotations__", ()):
            value = cls.__dict__.get(name, _MISSING)
            knobs[name] = value if isinstance(value, knob) else knob(value)
            if value is not _MISSING:
                setattr(cls, name, knobs[name].default)
        cls._fields, cls._knobs = tuple(knobs), knobs
        cls._defaults = {name: k.default for name, k in knobs.items()}
        if frozen:
            cls.__setattr__ = cls.__delattr__ = _frozen
        else:
            cls.__hash__ = None

    def __init__(self, *args, **kwargs):
        cls = type(self)
        names = cls._fields
        values = {**cls._defaults, **dict(zip(names, args)), **kwargs}
        if (max(len(args), len(values)) > len(names) or _MISSING in values.values()
                or not kwargs.keys().isdisjoint(names[:len(args)])):
            raise TypeError(f"{cls.__qualname__}: missing, unknown or repeated "
                            f"fields in {args} {kwargs}, of {names}")
        # one by one, as `self.name = value` would: the instance keeps inline values
        for name, value in values.items():
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return f"{type(self).__qualname__}(" + ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._fields) + ")"


_KINDS = {bool: "true or false", int: "an integer", float: "a finite number",
          str: "a string"}


def _problem(value: Any, limits: knob) -> Optional[str]:
    kind = type(limits.default)
    if kind is float:
        ok = (isinstance(value, (int, float)) and not isinstance(value, bool)
              and math.isfinite(value))
    elif kind is int:
        ok = isinstance(value, int) and not isinstance(value, bool)
    else:
        ok = isinstance(value, kind)
    if not ok:
        return f"must be {_KINDS[kind]}, got {value!r}"
    if limits.choices is not None and value not in limits.choices:
        return f"{value!r} not in {limits.choices}"
    if limits.lo is not None and value < limits.lo:
        return f"must be >= {limits.lo}, got {value!r}"
    if limits.gt is not None and value <= limits.gt:
        return f"must be > {limits.gt}, got {value!r}"
    return None


def check(record: type, values: Mapping[str, Any]) -> List[str]:
    """Return "key: problem" for every unknown, missing or invalid key."""
    known = record._knobs
    errors = [f"{key}: unknown key" for key in values if key not in known]
    for name, limits in known.items():
        if name not in values:
            errors.append(f"{name}: missing")
            continue
        problem = _problem(values[name], limits)
        if problem:
            errors.append(f"{name}: {problem}")
    return errors


class Record(Struct):
    """Base of the config records: construction checks every field."""

    def __post_init__(self):
        errors = check(type(self), vars(self))
        if errors:
            raise ValueError(f"{type(self).__name__}: " + "; ".join(errors))
