"""Round certificates and transferable equivocation proofs.

The certified object is the *digest* of the round's combined output body
(the exact bytes :func:`repro.net.wire.encode_round_output_body`
produces, which already cover the cleartext, the participation vector,
and all M certify signatures).  Every server derives that body from its
own envelope batches, so a vote is a statement "my independently
computed round output hashes to this" — the leader merely coordinates,
it cannot substitute a value no honest server computed.

Votes are ordinary :class:`~repro.net.message.SignedEnvelope` signatures:
the envelope's Schnorr signature already binds ``(msg_type, sender,
group_id, round, body)`` and the vote body carries ``(view, digest)``,
so the certificate only needs to store ``(server_index, signature)``
pairs and a verifier reconstructs each envelope payload from public
data.  Certificates are therefore compact, deterministic (signing is
RFC-6979-style, see :mod:`repro.crypto.schnorr`), and verifiable
offline from a checkpoint or audit artifact alone.

An :class:`EquivocationProof` is two conflicting signed proposals for
one ``(round, view)``.  Because proposals are self-authenticating
envelopes, the proof convicts the leader to *any* third party holding
the group definition — the "proactive accountability" framing: the
protocol emits evidence, not just a timeout.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.crypto import schnorr
from repro.errors import InvalidProof, InvalidSignature, ProtocolError
from repro.net.message import LEADER_PROPOSE, SERVER_VOTE, SignedEnvelope
from repro.util.serialization import pack_fields, unpack_fields

_DIGEST_BYTES = 32


def quorum_size(num_servers: int) -> int:
    """Votes required for a (possibly partial) certificate: a majority.

    The happy path still waits for all ``num_servers`` votes — the
    any-trust deployment wants every server on the record — but a
    vote-withholding server must not be able to halt the session, so
    past the barrier timeout a majority certificate commits the round
    and the absent signatures name the withholder.
    """
    return num_servers // 2 + 1


def output_body_digest(group, output) -> bytes:
    """SHA-256 of the canonical round-output body — the certified value."""
    from repro.net.wire import encode_round_output_body

    return hashlib.sha256(encode_round_output_body(group, output)).digest()


def _typed(data: bytes, types: tuple, what: str, error=InvalidProof, exact=True):
    """Unpack ``data``; its (leading, unless ``exact``) fields must have
    ``types``, else ``error`` — adversarial bytes never crash a caller."""
    try:
        fields = unpack_fields(data)
    except ValueError as exc:
        raise error(f"malformed {what}: {exc}") from exc
    if (exact and len(fields) != len(types)) or len(fields) < len(types):
        raise error(f"{what} needs {len(types)} fields, got {len(fields)}")
    if not all(map(isinstance, fields, types)):
        raise error(f"{what} fields have the wrong types")
    return fields


def proposal_view_digest(envelope: SignedEnvelope) -> tuple[int, bytes]:
    """Parse ``(view, digest)`` out of a proposal or vote body.

    Structural validation only — the caller checks the signature.
    """
    view, digest = _typed(envelope.body, (int, bytes), "consensus body", ProtocolError)
    if len(digest) != _DIGEST_BYTES:
        raise ProtocolError(
            f"consensus digest must be {_DIGEST_BYTES} bytes, got {len(digest)}"
        )
    return view, digest


def _vote_signed_payload(definition, server_index: int, round_number: int, body: bytes) -> bytes:
    # Must match SignedEnvelope.signed_payload for a SERVER_VOTE envelope
    # exactly — certificates store only the signature, the payload is
    # rebuilt from public data at verification time.
    return pack_fields(
        "dissent.envelope.v1",
        SERVER_VOTE,
        definition.server_name(server_index),
        definition.group_id(),
        round_number,
        body,
    )


def find_invalid_votes(
    definition, round_number: int, view: int, digest: bytes, votes: dict
) -> list[int]:
    """Server indices whose vote signatures fail — one batched check.

    Consensus engines record vote signatures unverified on arrival and
    :func:`~repro.consensus.engine.adopt_round` authenticates the whole
    set here: a single batched verification replaces M individual checks
    (same rejection behaviour, a fraction of the exponentiations), and
    the rare failure case falls back to pinpointing the bad votes.
    """
    from repro.net.wire import encode_consensus_body

    body = encode_consensus_body(view, digest)  # what every vote signed
    ordered = sorted(votes.items())
    items = [
        (
            definition.server_keys[index],
            _vote_signed_payload(definition, index, round_number, body),
            signature,
        )
        for index, signature in ordered
    ]
    if not items or schnorr.batch_verify(items):
        return []
    return [ordered[i][0] for i in schnorr.find_invalid(items, known_failed=True)]


@dataclass(frozen=True)
class RoundCertificate:
    """A quorum of server votes over one round-output digest.

    ``votes`` holds ``(server_index, signature)`` pairs in strictly
    ascending index order; each signature is the vote envelope's Schnorr
    signature, re-verifiable against the reconstructed payload.
    ``leader``/``view`` record which proposal the votes answered — audit
    metadata; safety rests on the voted digest alone.
    """

    round_number: int
    view: int
    leader: int
    digest: bytes
    votes: tuple[tuple[int, schnorr.Signature], ...]

    @property
    def voters(self) -> tuple[int, ...]:
        return tuple(index for index, _ in self.votes)

    def is_full(self, num_servers: int) -> bool:
        return len(self.votes) == num_servers

    def check_shape(self, num_servers: int) -> None:
        """Raise unless the fields are well formed and hold a quorum.

        Everything :meth:`verify` checks except the vote signatures.
        """
        if not 0 <= self.leader < num_servers:
            raise InvalidProof(f"certificate names leader {self.leader} outside roster")
        if self.round_number < 0 or self.view < 0:
            raise InvalidProof("certificate round/view must be non-negative")
        if len(self.digest) != _DIGEST_BYTES:
            raise InvalidProof("certificate digest has wrong length")
        indices = self.voters
        if list(indices) != sorted(set(indices)):
            raise InvalidProof("certificate votes must be unique and ordered")
        if indices and not 0 <= indices[0] <= indices[-1] < num_servers:
            raise InvalidProof("certificate vote index outside roster")
        if len(indices) < quorum_size(num_servers):
            raise InvalidProof(
                f"certificate has {len(indices)} votes, quorum is "
                f"{quorum_size(num_servers)} of {num_servers}"
            )

    def verify(self, definition) -> None:
        """Raise if this certificate does not commit its round output."""
        self.check_shape(definition.num_servers)
        bad = find_invalid_votes(
            definition, self.round_number, self.view, self.digest, dict(self.votes)
        )
        if bad:
            names = ", ".join(definition.server_name(index) for index in bad)
            raise InvalidSignature(f"certificate vote signature invalid from: {names}")

    def to_wire(self, group) -> bytes:
        return pack_fields(
            self.round_number,
            self.view,
            self.leader,
            self.digest,
            *(
                pack_fields(index, signature.to_bytes(group))
                for index, signature in self.votes
            ),
        )

    @classmethod
    def from_wire(cls, group, data: bytes) -> "RoundCertificate":
        fields = _typed(data, (int, int, int, bytes), "certificate", exact=False)
        votes = []
        for blob in fields[4:]:
            if not isinstance(blob, bytes):
                raise InvalidProof("certificate vote entry must be bytes")
            index, signature = _typed(blob, (int, bytes), "certificate vote")
            votes.append((index, schnorr.Signature.from_bytes(group, signature)))
        return cls(*fields[:4], votes=tuple(votes))


@dataclass(frozen=True)
class EquivocationProof:
    """Two conflicting signed proposals for one ``(round, view)``.

    Transferable: verification needs only the group definition, so the
    conviction survives checkpointing, audit-log export, and handoff to
    a party that never ran the session.
    """

    round_number: int
    view: int
    leader: int
    first: SignedEnvelope
    second: SignedEnvelope

    def verify(self, definition) -> None:
        """Raise unless both proposals authentically convict the leader."""
        if not 0 <= self.leader < definition.num_servers:
            raise InvalidProof(f"proof names leader {self.leader} outside roster")
        leader_name = definition.server_name(self.leader)
        group_id = definition.group_id()
        digests = []
        for envelope in (self.first, self.second):
            if envelope.msg_type != LEADER_PROPOSE:
                raise InvalidProof("proof envelope is not a proposal")
            if envelope.sender != leader_name:
                raise InvalidProof(
                    f"proof envelope signed by {envelope.sender!r}, "
                    f"expected {leader_name!r}"
                )
            if envelope.group_id != group_id:
                raise InvalidProof("proof envelope from a different group")
            if envelope.round_number != self.round_number:
                raise InvalidProof("proof envelope from a different round")
            view, digest = proposal_view_digest(envelope)
            if view != self.view:
                raise InvalidProof("proof envelope from a different view")
            envelope.verify(definition.server_keys[self.leader])
            digests.append(digest)
        if digests[0] == digests[1]:
            raise InvalidProof("proposals agree — no equivocation to prove")

    def to_wire(self, group) -> bytes:
        from repro.net.wire import encode_envelope

        return pack_fields(
            self.round_number,
            self.view,
            self.leader,
            encode_envelope(group, self.first),
            encode_envelope(group, self.second),
        )

    @classmethod
    def from_wire(cls, group, data: bytes) -> "EquivocationProof":
        from repro.net.wire import decode_envelope

        round_number, view, leader, first, second = _typed(
            data, (int, int, int, bytes, bytes), "equivocation proof"
        )
        return cls(
            round_number,
            view,
            leader,
            decode_envelope(group, first),
            decode_envelope(group, second),
        )
