"""Canonical, deterministic serialization for signing and hashing.

Every signed protocol message and every hashed commitment must serialize
identically on every node, so we define one small canonical encoding:

* ``encode_int`` / ``decode_int``: unsigned big-endian with an explicit
  4-byte length prefix (arbitrary-precision safe — group elements are
  thousands of bits).
* ``pack_fields`` / ``unpack_fields``: a length-prefixed concatenation of
  heterogeneous fields (bytes, int, str), each tagged with a one-byte type.
* ``canonical_json``: sorted-key, no-whitespace JSON for human-inspectable
  structures such as group definitions (whose SHA-256 becomes the group's
  self-certifying identifier, paper §3.2).
"""

from __future__ import annotations

import json

_TAG_BYTES = b"B"
_TAG_INT = b"I"
_TAG_STR = b"S"

Field = bytes | int | str


def encode_int(value: int) -> bytes:
    """Encode a non-negative integer as length-prefixed big-endian bytes."""
    if value < 0:
        raise ValueError("canonical encoding covers non-negative integers only")
    body = value.to_bytes((value.bit_length() + 7) // 8 or 1, "big")
    return len(body).to_bytes(4, "big") + body


def decode_int(data: bytes, offset: int = 0) -> tuple[int, int]:
    """Decode an integer written by :func:`encode_int`.

    Returns:
        (value, next_offset)
    """
    if offset + 4 > len(data):
        raise ValueError("truncated integer length prefix")
    n = int.from_bytes(data[offset : offset + 4], "big")
    start = offset + 4
    if start + n > len(data):
        raise ValueError("truncated integer body")
    return int.from_bytes(data[start : start + n], "big"), start + n


def pack_fields(*fields: Field) -> bytes:
    """Deterministically serialize a sequence of heterogeneous fields.

    Layout per field: 1-byte type tag, 4-byte big-endian length, body.
    The encoding is injective: distinct field sequences never collide,
    which is what signing and commitments require.
    """
    parts: list[bytes] = []
    for field in fields:
        if isinstance(field, bytes):
            tag, body = _TAG_BYTES, field
        elif isinstance(field, bool):
            # bool is an int subclass; reject it to avoid silent surprises.
            raise TypeError("pack_fields does not accept bool; encode explicitly")
        elif isinstance(field, int):
            if field < 0:
                raise ValueError("pack_fields encodes non-negative integers only")
            tag = _TAG_INT
            body = field.to_bytes((field.bit_length() + 7) // 8 or 1, "big")
        elif isinstance(field, str):
            tag, body = _TAG_STR, field.encode("utf-8")
        else:
            raise TypeError(f"unsupported field type {type(field).__name__}")
        parts.append(tag)
        parts.append(len(body).to_bytes(4, "big"))
        parts.append(body)
    return b"".join(parts)


def unpack_fields(data: bytes) -> list[Field]:
    """Invert :func:`pack_fields`."""
    fields: list[Field] = []
    offset = 0
    n = len(data)
    while offset < n:
        if offset + 5 > n:
            raise ValueError("truncated field header")
        tag = data[offset : offset + 1]
        body_len = int.from_bytes(data[offset + 1 : offset + 5], "big")
        start = offset + 5
        if start + body_len > n:
            raise ValueError("truncated field body")
        body = data[start : start + body_len]
        if tag == _TAG_BYTES:
            fields.append(body)
        elif tag == _TAG_INT:
            fields.append(int.from_bytes(body, "big"))
        elif tag == _TAG_STR:
            fields.append(body.decode("utf-8"))
        else:
            raise ValueError(f"unknown field tag {tag!r}")
        offset = start + body_len
    return fields


def canonical_json(obj: object) -> bytes:
    """Serialize ``obj`` to deterministic JSON bytes (sorted keys, no spaces)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def json_object_chunks(fields: dict[str, list[bytes]]) -> list[bytes]:
    """Chunks of a canonical JSON object whose values are already encoded.

    Each value is a list of chunks that concatenate to canonical JSON;
    ``b"".join`` of the result equals :func:`canonical_json` of the
    decoded object byte for byte.  Large values are serialized once and
    copied once, however deeply they nest.
    """
    if not fields:
        return [b"{}"]
    chunks = [b"{"]
    for key in sorted(fields):
        chunks.append(json.dumps(key).encode("utf-8") + b":")
        chunks.extend(fields[key])
        chunks.append(b",")
    chunks[-1] = b"}"
    return chunks
