"""Reference canonical encoding, as ``repro.canonical`` once ran it.

Kept as the oracle for :func:`repro.canonical.to_canonical_dict`'s
per-class encoder table: every value here walks the whole
``isinstance`` chain, and every dataclass instance calls
``dataclasses.fields()``.  The body is the old function verbatim.
The module name keeps pytest from collecting it.
"""

from __future__ import annotations

import dataclasses
import datetime
import enum


def to_canonical_dict(value: object) -> object:
    """Encode any analysis result as deterministic JSON-ready data.

    Rules: dataclasses become field dicts; enums their values (also as
    dict keys); dates ISO strings; numpy scalars their Python values;
    sets are sorted; anything else with a ``describe()`` (version
    ranges) or ``text`` (versions) uses that, else ``str()``.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return float(value)
    if isinstance(value, enum.Enum):
        return to_canonical_dict(value.value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: to_canonical_dict(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, (datetime.datetime, datetime.date)):
        return value.isoformat()
    if isinstance(value, dict):
        return {
            _key(k): to_canonical_dict(v)
            for k, v in sorted(value.items(), key=lambda item: _key(item[0]))
        }
    if isinstance(value, (list, tuple)):
        return [to_canonical_dict(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted(to_canonical_dict(item) for item in value)
    if hasattr(value, "item") and callable(value.item):  # numpy scalar
        return to_canonical_dict(value.item())
    if hasattr(value, "describe") and callable(value.describe):
        return value.describe()
    if hasattr(value, "text") and isinstance(value.text, str):
        return value.text
    return str(value)


def _key(key: object) -> str:
    """Deterministic string form for a dict key."""
    if isinstance(key, enum.Enum):
        return str(key.value)
    return str(key)
