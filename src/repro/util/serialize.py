"""Canonical serialization.

Signatures and MACs must be computed over a *canonical* byte encoding: the
same logical message must always serialize to the same bytes regardless of
dict insertion order. We use JSON with sorted keys, no whitespace, and a
small set of type extensions (bytes as hex, Credits as micro-int,
Timestamp as epoch float) encoded as tagged two-element lists. The C JSON
codec walks the value: the encoder calls back only for the tagged types, and
tags are resolved in place on ``json.loads``'s fresh output.
"""

from __future__ import annotations

import json
from typing import Any

from repro.errors import ValidationError
from repro.util.gbtime import Timestamp
from repro.util.money import Credits

__all__ = ["canonical_dumps", "canonical_loads", "canonical_load_at", "to_bytes"]

_TAG_BYTES = "!b"
_TAG_CREDITS = "!c"
_TAG_TIMESTAMP = "!t"

#: tag -> (body types it accepts, constructor); any other body stays a list
_UNTAG = {_TAG_BYTES: (str, bytes.fromhex), _TAG_CREDITS: (int, Credits.from_micro),
          _TAG_TIMESTAMP: ((int, float), Timestamp)}
#: a container holding only these types has nothing to descend into
_LEAVES = frozenset((str, int, float, bool, type(None), bytes, Credits, Timestamp))


def _tag(value: Any) -> list:
    if isinstance(value, bytes):
        return [_TAG_BYTES, value.hex()]
    if isinstance(value, Credits):
        return [_TAG_CREDITS, value.micro]
    if isinstance(value, Timestamp):
        return [_TAG_TIMESTAMP, value.epoch]
    raise ValidationError(f"type {type(value).__name__} has no canonical form")


_DECODER = json.JSONDecoder()
_ENCODER = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), ensure_ascii=True, allow_nan=False, default=_tag
)


def _check_keys(value: Any) -> None:
    # the C encoder would quietly write an int, float, bool or None key as a string
    if isinstance(value, dict):
        "".join(value)  # TypeError at the first non-str key
        value = value.values()
    elif not isinstance(value, (list, tuple)):
        return
    if not _LEAVES.issuperset(map(type, value)):
        for item in value:
            _check_keys(item)


def _untag(value: Any) -> Any:
    if type(value) is list:
        rule = _UNTAG.get(value[0]) if len(value) == 2 and type(value[0]) is str else None
        if rule is not None and isinstance(value[1], rule[0]):
            return rule[1](value[1])
        slots = enumerate(value)
    elif type(value) is dict:
        slots = value.items()
    else:
        return value
    for slot, item in slots:
        if type(item) is list or type(item) is dict:
            value[slot] = _untag(item)
    return value


def canonical_dumps(value: Any) -> bytes:
    """Serialize to canonical bytes (stable across runs and platforms)."""
    try:
        _check_keys(value)
        return _ENCODER.encode(value).encode("ascii")
    except TypeError as exc:
        raise ValidationError(f"canonical dict keys must be strings: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # NaN / inf, a cycle, or too deep
        raise ValidationError(f"not canonically serializable: {exc}") from exc


def canonical_loads(data: bytes | str) -> Any:
    """Inverse of :func:`canonical_dumps` (its bytes, or their text)."""
    try:
        return _untag(json.loads(data if isinstance(data, str) else data.decode("ascii")))
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"malformed canonical payload: {exc}") from exc


def canonical_load_at(text: str, pos: int) -> tuple[Any, int]:
    """The canonical value that starts at *pos* in *text*, and the index
    just past it: a long canonical text decoded one value at a time."""
    try:
        value, end = _DECODER.raw_decode(text, pos)
        return _untag(value), end
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"malformed canonical payload: {exc}") from exc


def to_bytes(value: Any) -> bytes:
    """Bytes view of a value for hashing: passthrough for bytes/str."""
    if isinstance(value, bytes):
        return value
    if isinstance(value, str):
        return value.encode("utf-8")
    return canonical_dumps(value)
