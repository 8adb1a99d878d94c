"""The canonical encoding of typed values as JSON-ready data.

:func:`to_canonical_dict` is the one encoder behind every canonical
document that holds typed values: the analysis results (re-exported
from :mod:`repro.analysis.api`, which documents the registry that
uses it) and the crawler's cross-run profile store segments;
:func:`canonical_digest` hashes it to digest a run's identity.  It
imports nothing from the rest of the package, so any layer may use it
without an import cycle.

Encoding dispatches on ``type(value)`` through ``_ENCODERS``: one
encoder function per class encoded, found once by testing the rules in
order, and safe to share because it depends on the class alone.  The
value-level fallback tests each value, so its classes are never entered.
"""

from __future__ import annotations

import dataclasses
import datetime
import enum
import hashlib
import json
from operator import itemgetter, methodcaller
from typing import Callable, Dict, Optional, Tuple

Encoder = Callable[[object], object]

#: class -> the encoder for every instance of exactly that class
_ENCODERS: Dict[type, Encoder] = {}


def to_canonical_dict(value: object) -> object:
    """Encode any analysis result as deterministic JSON-ready data.

    Rules: dataclasses become field dicts; enums their values (also as
    dict keys); dates ISO strings; numpy scalars their Python values;
    sets are sorted; anything else with a ``describe()`` (version
    ranges) or ``text`` (versions) uses that, else ``str()``.
    """
    encoder = _ENCODERS.get(type(value)) or _encoder_for(type(value))
    return encoder(value) if encoder is not None else _fallback(value)


def _encoder_for(cls: type) -> Optional[Encoder]:
    """Enter and return the encoder of ``cls``'s instances, testing the
    rules in their order; None leaves the class to the fallback."""
    if cls is type(None) or issubclass(cls, (bool, int, str)):
        encoder: Encoder = _same
    elif issubclass(cls, float):
        encoder = float
    elif issubclass(cls, enum.Enum):
        encoder = _encode_enum
    elif dataclasses.is_dataclass(cls) and not issubclass(cls, type):
        encoder = _fields_encoder(tuple(f.name for f in dataclasses.fields(cls)))
    elif issubclass(cls, (datetime.datetime, datetime.date)):
        encoder = methodcaller("isoformat")
    elif issubclass(cls, dict):
        encoder = _encode_dict
    elif issubclass(cls, (list, tuple)):
        encoder = _encode_items
    elif issubclass(cls, (set, frozenset)):
        encoder = _encode_set
    else:
        return None
    _ENCODERS[cls] = encoder
    return encoder


def _same(value: object) -> object:
    return value


def _encode_enum(value: enum.Enum) -> object:
    return to_canonical_dict(value.value)


def _fields_encoder(names: Tuple[str, ...]) -> Encoder:
    def encode(value: object) -> Dict[str, object]:
        get = _ENCODERS.get
        result = {}
        for name in names:
            item = getattr(value, name)
            encoder = get(type(item))
            result[name] = (
                encoder(item) if encoder is not None else to_canonical_dict(item)
            )
        return result

    return encode


def _encode_set(value) -> list:
    return sorted(_encode_items(value))


def _encode_dict(value: dict) -> Dict[str, object]:
    keyed = sorted(((_key(k), v) for k, v in value.items()), key=itemgetter(0))
    return dict(zip([k for k, _ in keyed], _encode_items([v for _, v in keyed])))


def _encode_items(items) -> list:
    """Each item encoded, its class's encoder looked up inline."""
    get = _ENCODERS.get
    result = []
    for item in items:
        encoder = get(type(item))
        result.append(encoder(item) if encoder is not None else to_canonical_dict(item))
    return result


def _fallback(value: object) -> object:
    """Values whose own attributes decide, tested on every call."""
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


def canonical_digest(value: object) -> str:
    """sha256 of the compact, key-sorted JSON of ``value``'s canonical
    encoding: it follows declared field values only, never pickle bytes,
    module paths or the interpreter.  A value that falls through to
    ``str()`` would hash an object address, so give it a ``describe()``."""
    text = json.dumps(to_canonical_dict(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
