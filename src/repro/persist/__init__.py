"""Durable session state: checkpoints, codecs, and the audit log.

Three layers, composable from the bottom up:

* :mod:`repro.persist.codec` — pure JSON codecs for every piece of
  mutable protocol state (RNG, scheduler, records, archives, client and
  server state, whole sessions).
* :mod:`repro.persist.checkpoint` — versioned, checksummed, atomically
  replaced checkpoint files.
* :mod:`repro.persist.journal` — append-only, hash-chained checkpoint
  journals: a networked node's per-barrier durability at O(round) cost.
* :mod:`repro.persist.audit` — the append-only hash-chained audit log of
  expulsions, abandoned rounds, and blame verdicts.

:func:`save_session` / :func:`restore_session` tie them together for the
in-process :class:`~repro.core.session.DissentSession`; the networked
runtime builds its own coordinator checkpoints on the same codecs (see
:meth:`repro.net.runner.NetworkedSession.checkpoint`).
"""

from __future__ import annotations

from repro.persist.audit import AuditLog, read_audit_log
from repro.persist.checkpoint import (
    CHECKPOINT_VERSION,
    read_checkpoint,
    write_checkpoint,
)
from repro.persist.codec import (
    decode_archive,
    decode_certificate,
    decode_client_state,
    decode_equivocation_proof,
    decode_record,
    decode_rng_state,
    decode_scheduler,
    decode_server_state,
    decode_session_state,
    encode_archive,
    encode_certificate,
    encode_client_state,
    encode_equivocation_proof,
    encode_record,
    encode_rng_state,
    encode_scheduler,
    encode_server_state,
    encode_session_state,
)
from repro.persist.journal import CheckpointJournal, read_journal

__all__ = [
    "AuditLog",
    "CHECKPOINT_VERSION",
    "CheckpointJournal",
    "read_journal",
    "read_audit_log",
    "read_checkpoint",
    "write_checkpoint",
    "save_session",
    "restore_session",
    "decode_archive",
    "decode_certificate",
    "decode_client_state",
    "decode_equivocation_proof",
    "decode_record",
    "decode_rng_state",
    "decode_scheduler",
    "decode_server_state",
    "decode_session_state",
    "encode_archive",
    "encode_certificate",
    "encode_client_state",
    "encode_equivocation_proof",
    "encode_record",
    "encode_rng_state",
    "encode_scheduler",
    "encode_server_state",
    "encode_session_state",
]


def save_session(session, path) -> int:
    """Checkpoint a :class:`DissentSession` at a round barrier."""
    return write_checkpoint(
        path,
        encode_session_state(session),
        kind="session",
        registry=session.registry,
    )


def restore_session(session, path) -> None:
    """Restore a freshly-built session (same keys/definition) from disk."""
    decode_session_state(session, read_checkpoint(path, kind="session"))
    for index in session.expelled:
        for server in session.servers:
            server.expel_client(index)
