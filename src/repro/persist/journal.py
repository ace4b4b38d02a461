"""Append-only checkpoint journals: per-barrier durability in O(round).

A node that checkpoints at every round barrier used to rewrite its whole
history each time — a client's delivered inbox, a server's window of
archived rounds — so the cost of a barrier grew with the session's age.
A journal makes it grow with the round instead.

On disk a journal is a *base* followed by *delta lines*::

    <checkpoint document>\\n<line 1>\\n<line 2> ...

The base is an ordinary :func:`~repro.persist.checkpoint.write_checkpoint`
document holding a full snapshot.  Each barrier appends one line of
canonical JSON::

    {"body": {"delta": {...}, "head": {...}},
     "hash": "<hex>", "index": n, "kind": "node", "prev": "<hex>"}

* ``head`` — the payload minus its growing collections; small, and
  wholly replaced by every line.
* ``delta`` — per collection path (``"state.received"``): either
  ``{"extend": [...]}`` for an append-only list, or
  ``{"put": {...}, "drop": [...]}`` for a keyed window.

Lines are checksummed and hash-chained like the audit log: ``hash`` is
the SHA-256 of the line's canonical encoding without it, ``prev`` the
predecessor's hash, and the base's hash is the SHA-256 of its bytes.
Each append is fsynced before the writer returns, so a caller may
acknowledge the barrier once :meth:`CheckpointJournal.write` is done.

A crash mid-append leaves a torn final line, which :func:`read_journal`
drops — the previous barrier, exactly what the old atomic replace gave.
Any other damage raises :class:`~repro.errors.CheckpointError`.

Compaction rewrites the journal as a single base through the atomic
temp-file + fsync + :func:`os.replace` path.  It happens on the first
write of each writer (so a restarted node never appends after a torn
line) and whenever bytes a fresh base would not contain — superseded
heads, evicted window entries, line framing — outgrow the bytes it
would.  The journal thus never exceeds twice its live size plus one
line; append-only inboxes almost never compact, and a keyed window
compacts about once per window length.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from typing import Callable

from repro.errors import CheckpointError
from repro.persist.audit import _entry_digest
from repro.persist.checkpoint import _decode_document, _read_bytes, write_checkpoint
from repro.util.serialization import canonical_json, json_object_chunks


def _walk(payload: dict, path: str) -> tuple[dict, str]:
    """(parent object, leaf key) for a dotted collection path."""
    *parents, leaf = path.split(".")
    for key in parents:
        payload = payload[key]
    return payload, leaf


def _entry_bytes(key: str, value: bytes) -> int:
    """Bytes one keyed entry occupies inside a canonical JSON object."""
    return len(json.dumps(key)) + 1 + len(value) + 1


class CheckpointJournal:
    """Writer for one node's checkpoint journal.

    ``paths`` names the payload's growing collections (dotted paths);
    keyed ones are sized entry by entry so evictions count as dead bytes.
    """

    def __init__(
        self, path: str | os.PathLike, kind: str, paths: tuple[str, ...], registry=None
    ) -> None:
        self.path = os.fspath(path)
        self.kind = kind
        self.paths = paths
        self.registry = registry
        #: Hash of the newest durable line; None until the first write,
        #: which is always a compaction.
        self._tip: str | None = None
        self._index = 0
        #: Journal file size in bytes.
        self.size = 0
        self._dead = 0
        #: Bytes of the newest head (dead once the next line lands); None
        #: right after a compaction, when the base's head is not separable.
        self._head_bytes: int | None = None
        #: path -> key -> bytes, for entries of keyed collections.
        self._entries: dict[str, dict[str, int]] = {}
        self.compactions = 0
        self.appends = 0
        #: Bytes the most recent write put on disk (line or base).
        self.last_write_bytes = 0

    @property
    def live_bytes(self) -> int:
        """Bytes a compaction now would keep (estimated)."""
        return self.size - self._dead

    def write(
        self,
        change: tuple[dict, dict] | None,
        snapshot: Callable[[], dict],
    ) -> int:
        """Durably record one barrier; returns the bytes written.

        ``change`` is ``(head, delta)``: the payload minus its growing
        collections, and each collection's change since the previous
        write (None forces a full snapshot).  ``snapshot`` builds the
        full payload when this write compacts instead of appending.
        """
        started = time.perf_counter()
        if self._tip is None or change is None or 2 * self._dead > self.size:
            written = self._compact(snapshot())
        else:
            written = self._append(*self._encode_line(*change))
        self.last_write_bytes = written
        if self.registry is not None:
            elapsed = time.perf_counter() - started
            self.registry.counter("session.checkpoint.bytes").inc(written)
            self.registry.counter("session.checkpoint.seconds").inc(elapsed)
            self.registry.histogram("span.phase.checkpoint").observe(elapsed)
        return written

    # -- internals -------------------------------------------------------

    def _encode_line(self, head: dict, delta: dict):
        """Encode one delta line plus its effect on the byte accounting."""
        head_json = canonical_json(head)
        live = len(head_json)
        dead = self._head_bytes if self._head_bytes is not None else len(head_json)
        entries = {path: dict(self._entries.get(path, {})) for path in delta}
        parts = {}
        for path, ops in delta.items():
            if "extend" in ops:
                extend = canonical_json(ops["extend"])
                live += len(extend)
                parts[path] = json_object_chunks({"extend": [extend]})
                continue
            sizes = entries[path]
            puts = {key: canonical_json(value) for key, value in ops["put"].items()}
            for key in ops["drop"]:
                dead += sizes.pop(key, 0)
            for key, value in puts.items():
                dead += sizes.get(key, 0)
                sizes[key] = _entry_bytes(key, value)
                live += sizes[key]
            put = json_object_chunks({key: [value] for key, value in puts.items()})
            parts[path] = json_object_chunks(
                {"drop": [canonical_json(ops["drop"])], "put": put}
            )
        body = {"delta": json_object_chunks(parts), "head": [head_json]}
        fields = {
            "body": json_object_chunks(body),
            "index": [canonical_json(self._index)],
            "kind": [canonical_json(self.kind)],
            "prev": [canonical_json(self._tip)],
        }
        hasher = hashlib.sha256()
        for chunk in json_object_chunks(fields):
            hasher.update(chunk)
        digest = hasher.hexdigest()
        fields["hash"] = [canonical_json(digest)]
        record = b"".join([b"\n", *json_object_chunks(fields)])
        dead += len(record) - live
        return record, digest, dead, len(head_json), entries

    def _append(self, record, digest, dead, head_bytes, entries) -> int:
        try:
            with open(self.path, "ab") as handle:
                handle.write(record)
                handle.flush()
                os.fsync(handle.fileno())
        except OSError:
            # The file may now end in a partial line; the next write
            # must not append after it.
            self._tip = None
            raise
        self._tip = digest
        self._index += 1
        self.size += len(record)
        self._dead += dead
        self._head_bytes = head_bytes
        self._entries.update(entries)
        self.appends += 1
        return len(record)

    def _compact(self, payload: dict) -> int:
        written = write_checkpoint(self.path, payload, kind=self.kind)
        # The chain anchors on the base's bytes as they landed on disk.
        self._tip = hashlib.sha256(_read_bytes(self.path)).hexdigest()
        self._index = 1
        self.size = written
        self._dead = 0
        self._head_bytes = None
        known, self._entries = self._entries, {}
        for path in self.paths:
            parent, leaf = _walk(payload, path)
            collection = parent.get(leaf)
            if isinstance(collection, dict):
                # Entries this writer appended are already sized; only
                # those it never wrote (after a restore) need encoding.
                sizes = known.get(path, {})
                self._entries[path] = {
                    key: sizes.get(key) or _entry_bytes(key, canonical_json(value))
                    for key, value in collection.items()
                }
        self.compactions += 1
        return written


def _fold(payload: dict, body: dict) -> dict:
    """Apply one delta line to the payload folded so far."""
    result = body["head"]
    for path, ops in body["delta"].items():
        old_parent, leaf = _walk(payload, path)
        new_parent, _ = _walk(result, path)
        collection = old_parent[leaf]
        if "extend" in ops:
            collection.extend(ops["extend"])
        else:
            for key in ops["drop"]:
                collection.pop(key, None)
            collection.update(ops["put"])
        new_parent[leaf] = collection
    return result


def read_journal(
    path: str | os.PathLike, kind: str | None = None, match: dict | None = None
) -> dict:
    """Fold a journal into the payload of its newest durable barrier.

    A plain checkpoint document is a journal with no delta lines.  A
    torn final line is dropped; bad JSON elsewhere, an index gap, a
    broken chain link, a checksum mismatch, a kind mismatch, or (with
    ``match``) a payload whose fields differ from ``match`` all raise
    :class:`CheckpointError`.
    """
    path = os.fspath(path)
    base, *lines = _read_bytes(path).split(b"\n")
    payload = _decode_document(base, path, kind)
    if kind is None:
        kind = json.loads(base)["kind"]
    prev = hashlib.sha256(base).hexdigest()
    for position, line in enumerate(lines, start=1):
        try:
            entry = json.loads(line)
        except ValueError as exc:
            if position == len(lines):
                break  # torn final append: the previous barrier stands
            raise CheckpointError(
                f"journal {path} line {position} is not valid JSON: {exc}"
            ) from exc
        if not isinstance(entry, dict) or entry.get("index") != position:
            raise CheckpointError(
                f"journal {path} line {position} breaks the index sequence"
            )
        if entry.get("prev") != prev:
            raise CheckpointError(f"journal {path} line {position}: hash chain broken")
        if entry.get("hash") != _entry_digest(entry):
            raise CheckpointError(
                f"journal {path} line {position} failed its checksum"
            )
        if entry.get("kind") != kind:
            raise CheckpointError(
                f"journal {path} line {position} is of kind {entry.get('kind')!r}"
            )
        try:
            payload = _fold(payload, entry["body"])
        except (KeyError, TypeError, AttributeError) as exc:
            raise CheckpointError(
                f"journal {path} line {position} does not apply: {exc!r}"
            ) from exc
        prev = entry["hash"]
    for key, expected in (match or {}).items():
        if payload.get(key) != expected:
            raise CheckpointError(
                f"journal {path} holds {key}={payload.get(key)!r}, "
                f"expected {expected!r}"
            )
    return payload
