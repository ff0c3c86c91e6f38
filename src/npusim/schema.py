"""Config records: each YAML section is one frozen dataclass.

A record field's name is its YAML key and its default is the only default.
The field's type is the type of that default (bool, int, float or str);
``knob`` adds an inclusive lower bound ``lo``, an exclusive one ``gt``, or
an allowed set ``choices``. ``check`` tests a mapping against a record: the
config loader runs it on YAML and env input, and every record runs it on
itself when constructed, so both paths apply the same rules.
"""

from __future__ import annotations

import math
from dataclasses import field, fields
from typing import Any, List, Mapping, Optional


def knob(default: Any, *, lo: Optional[float] = None, gt: Optional[float] = None,
         choices: Optional[tuple] = None):
    """A record field with a default and a range or an allowed set."""
    return field(default=default, metadata={"lo": lo, "gt": gt, "choices": choices})


_KINDS = {bool: "true or false", int: "an integer", float: "a finite number",
          str: "a string"}


def _problem(value: Any, f) -> Optional[str]:
    kind = type(f.default)
    if kind is float:
        ok = (isinstance(value, (int, float)) and not isinstance(value, bool)
              and math.isfinite(value))
    elif kind is int:
        ok = isinstance(value, int) and not isinstance(value, bool)
    else:
        ok = isinstance(value, kind)
    if not ok:
        return f"must be {_KINDS[kind]}, got {value!r}"
    meta = f.metadata
    if meta.get("choices") is not None and value not in meta["choices"]:
        return f"{value!r} not in {meta['choices']}"
    if meta.get("lo") is not None and value < meta["lo"]:
        return f"must be >= {meta['lo']}, got {value!r}"
    if meta.get("gt") is not None and value <= meta["gt"]:
        return f"must be > {meta['gt']}, got {value!r}"
    return None


def check(record: type, values: Mapping[str, Any]) -> List[str]:
    """Return "key: problem" for every unknown, missing or invalid key."""
    known = {f.name: f for f in fields(record)}
    errors = [f"{key}: unknown key" for key in values if key not in known]
    for name, f in known.items():
        if name not in values:
            errors.append(f"{name}: missing")
            continue
        problem = _problem(values[name], f)
        if problem:
            errors.append(f"{name}: {problem}")
    return errors


class Record:
    """Base of the config records: construction checks every field."""

    def __post_init__(self):
        errors = check(type(self), {f.name: getattr(self, f.name)
                                    for f in fields(self)})
        if errors:
            raise ValueError(f"{type(self).__name__}: " + "; ".join(errors))
