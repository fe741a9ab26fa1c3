"""Canonical JSON encoding used for every hashed or signed artifact.

One encoding everywhere: UTF-8, sorted keys, no insignificant whitespace.
Two canonical serializations of equal values are byte-identical, so digests
and signatures over canonical bytes are stable across runs and platforms.

`dumps` returns exactly what `json.dumps(value, sort_keys=True,
separators=(",", ":"), ensure_ascii=False)` returns, through one C encoder
built at import with those settings, so no call builds a `JSONEncoder`.
The encoder has no circular-reference check (`markers=None`): a markers
dict shared by every call would keep stale ids after an encoding error,
and nothing encoded here refers to itself. A value that did would exhaust
the recursion limit instead of raising `ValueError`.
"""

from __future__ import annotations

import json
from json.encoder import c_make_encoder, encode_basestring
from typing import Any

__all__ = ["dumps", "dumps_bytes", "loads", "to_hex", "from_hex"]


def _unencodable(value: Any) -> Any:
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


# positional, as CPython's JSONEncoder.iterencode passes them: markers, default,
# string encoder, indent, key and item separators, sort_keys, skipkeys, allow_nan
_ENCODE = c_make_encoder(None, _unencodable, encode_basestring, None, ":", ",", True, False, True)


def dumps(value: Any) -> str:
    """Canonical JSON text: sorted keys, compact separators, raw UTF-8."""
    return "".join(_ENCODE(value, 0))


def dumps_bytes(value: Any) -> bytes:
    return dumps(value).encode("utf-8")


def loads(data: str | bytes) -> Any:
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    return json.loads(data)


def to_hex(raw: bytes) -> str:
    """Lowercase 0x-prefixed hex, the wire form of digests, keys and signatures."""
    return "0x" + raw.hex()


def from_hex(text: str) -> bytes:
    if not isinstance(text, str) or not text.startswith("0x"):
        raise ValueError(f"expected 0x-prefixed hex string, got {text!r}")
    return bytes.fromhex(text[2:])
