"""SHA-256 helpers used throughout the reproduction."""

from __future__ import annotations

import hashlib
from typing import Iterable, Sequence


def sha256(data: bytes) -> bytes:
    """Raw 32-byte SHA-256 digest."""
    return hashlib.sha256(data).digest()


def sha256_hex(data: bytes) -> str:
    """Hex-encoded SHA-256 digest."""
    return hashlib.sha256(data).hexdigest()


#: ``tag + 8-byte length`` headers for the lengths nearly every item has
_SHORT = 256
_STR_HEAD = tuple(b"s" + n.to_bytes(8, "big") for n in range(_SHORT))
_BYTES_HEAD = tuple(b"b" + n.to_bytes(8, "big") for n in range(_SHORT))
_INT_HEAD = tuple(b"i" + n.to_bytes(8, "big") for n in range(_SHORT))


def _encode_slow(item: object) -> bytes:
    """Tag, length and bytes of an item off the fast path: ``bool``,
    ``float``, ``None`` and subclasses of the item types."""
    if isinstance(item, bytes):
        tag, raw = b"b", item
    elif isinstance(item, str):
        tag, raw = b"s", item.encode("utf-8")
    elif isinstance(item, bool):  # before int: bool is an int subclass
        tag, raw = b"B", (b"\x01" if item else b"\x00")
    elif isinstance(item, int):
        tag, raw = b"i", str(item).encode("ascii")
    elif isinstance(item, float):
        tag, raw = b"f", repr(item).encode("ascii")
    elif item is None:
        tag, raw = b"n", b""
    else:
        raise TypeError(f"unhashable item type for hash_items: {type(item)!r}")
    return tag + len(raw).to_bytes(8, "big") + raw


def _encode(items: Sequence[object]) -> bytes:
    """Concatenated ``tag + length + bytes`` records of ``items``."""
    parts: list[bytes] = []
    append = parts.append
    for item in items:
        kind = type(item)
        if kind is str:
            raw = item.encode("utf-8")
            n = len(raw)
            append(_STR_HEAD[n] if n < _SHORT else b"s" + n.to_bytes(8, "big"))
        elif kind is bytes:
            raw = item
            n = len(raw)
            append(_BYTES_HEAD[n] if n < _SHORT else b"b" + n.to_bytes(8, "big"))
        elif kind is int:
            raw = b"%d" % item
            n = len(raw)
            append(_INT_HEAD[n] if n < _SHORT else b"i" + n.to_bytes(8, "big"))
        else:
            raw = _encode_slow(item)
        append(raw)
    return b"".join(parts)


#: items encoded per ``sha256.update``: one call for nearly every digest,
#: a bounded buffer for the few over very long sequences (state roots)
_CHUNK = 1024


def hash_items(items: Iterable[object]) -> bytes:
    """Order-sensitive digest of a sequence of mixed items.

    Each item is converted to bytes (bytes pass through, str is UTF-8
    encoded, ints are rendered in decimal), prefixed with a one-byte type
    tag (keeps e.g. 1, "1" and b"1" distinct) and an 8-byte length so that
    concatenation ambiguity cannot create collisions between different
    sequences (e.g. ``["ab", "c"]`` vs ``["a", "bc"]``).
    """
    if not isinstance(items, (list, tuple)):
        items = list(items)
    if len(items) <= _CHUNK:
        return hashlib.sha256(_encode(items)).digest()
    h = hashlib.sha256()
    for start in range(0, len(items), _CHUNK):
        h.update(_encode(items[start : start + _CHUNK]))
    return h.digest()
