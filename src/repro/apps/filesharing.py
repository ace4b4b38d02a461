"""Anonymous file sharing over Dissent (the paper's 128 KB data-sharing
scenario, §5.2).

A sender publishes a file anonymously by streaming fixed-size chunks
through its message slot; every group member reassembles the file from the
slot's delivered chunks and verifies a whole-file digest.  The slot's
length field does the heavy lifting: the first chunk rides a small slot,
the length field requests a bigger one, and the slot shrinks back when the
transfer ends — exercising the variable-length scheduling of §3.8 on a
realistic bulk workload.

Chunk wire format: ``file_id (8) || seq (4) || total (4) || payload``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.core.session import DissentSession
from repro.crypto.hashing import sha256
from repro.errors import ProtocolError

_HEADER_BYTES = 16


def chunk_file(data: bytes, chunk_payload: int, rng: random.Random) -> tuple[bytes, list[bytes]]:
    """Split a file into framed chunks; returns (file_id, chunk messages)."""
    if chunk_payload <= 0:
        raise ProtocolError("chunk payload must be positive")
    file_id = rng.randbytes(8)
    pieces = [data[i : i + chunk_payload] for i in range(0, len(data), chunk_payload)]
    if not pieces:
        pieces = [b""]
    total = len(pieces)
    chunks = []
    for seq, piece in enumerate(pieces):
        header = file_id + seq.to_bytes(4, "big") + total.to_bytes(4, "big")
        chunks.append(header + piece)
    return file_id, chunks


@dataclass
class _Reassembly:
    total: int
    pieces: dict[int, bytes] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        return len(self.pieces) == self.total

    def data(self) -> bytes:
        return b"".join(self.pieces[i] for i in range(self.total))


class FileReceiver:
    """Reassembles files from any slot's delivered chunk stream."""

    def __init__(self) -> None:
        self._inflight: dict[bytes, _Reassembly] = {}
        self.completed: dict[bytes, bytes] = {}

    def feed(self, message: bytes) -> bytes | None:
        """Consume one delivered slot message; returns a file_id when done."""
        if len(message) < _HEADER_BYTES:
            return None
        file_id = message[:8]
        seq = int.from_bytes(message[8:12], "big")
        total = int.from_bytes(message[12:16], "big")
        if total == 0 or seq >= total:
            return None
        entry = self._inflight.get(file_id)
        if entry is None:
            entry = _Reassembly(total=total)
            self._inflight[file_id] = entry
        elif entry.total != total:
            return None  # conflicting metadata: drop
        entry.pieces[seq] = message[_HEADER_BYTES:]
        if entry.complete:
            self.completed[file_id] = entry.data()
            del self._inflight[file_id]
            return file_id
        return None


class FileSharingApp:
    """Ties a sender and group-wide receivers to a session."""

    def __init__(self, session: DissentSession, chunk_payload: int = 4096) -> None:
        self.session = session
        self.chunk_payload = chunk_payload
        self.receivers = [FileReceiver() for _ in session.clients]
        self._fed: list[int] = [0] * len(session.clients)

    def share(self, client_index: int, data: bytes) -> bytes:
        """Queue a file for anonymous publication; returns its id."""
        rng = self.session.clients[client_index].rng
        file_id, chunks = chunk_file(data, self.chunk_payload, rng)
        for chunk in chunks:
            self.session.post(client_index, chunk)
        return file_id

    def run_until_complete(self, file_id: bytes, max_rounds: int = 64) -> bytes:
        """Run rounds until every member holds the complete file."""
        for _ in range(max_rounds):
            self.session.run_round()
            self._pump()
            if all(file_id in r.completed for r in self.receivers):
                return self.receivers[0].completed[file_id]
        raise ProtocolError(f"file transfer incomplete after {max_rounds} rounds")

    def _pump(self) -> None:
        """Feed newly delivered messages into every member's receiver."""
        for i, client in enumerate(self.session.clients):
            for _, _, message in client.received[self._fed[i]:]:
                self.receivers[i].feed(message)
            self._fed[i] = len(client.received)


def file_digest(data: bytes) -> bytes:
    """Digest receivers compare after reassembly."""
    return sha256(b"dissent.file.v1", data)
