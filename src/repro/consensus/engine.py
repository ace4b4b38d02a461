"""The consensus state machine: one server, one round, no I/O.

A :class:`RoundConsensus` takes three inputs — :meth:`~RoundConsensus.start`
once the server has assembled its own round output,
:meth:`~RoundConsensus.receive` for each ``leader-propose``,
``server-vote`` or ``view-change`` envelope (ones that race ``start``
are buffered), and :meth:`~RoundConsensus.timeout` when a view's timer
expires — and answers each with a :class:`Step` for its driver to carry
out.  The networked :class:`~repro.net.node.ServerNode` drives one per
round over transports and timers; the in-process
:class:`~repro.core.session.DissentSession` drives M of them over a
synchronous queue.  Both settle the round with :func:`adopt_round`.

Envelopes are signed through the server object, which is where the
Byzantine servers of :mod:`repro.core.adversary` hook in.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.consensus.certificate import (
    EquivocationProof,
    RoundCertificate,
    find_invalid_votes,
    output_body_digest,
    proposal_view_digest,
    quorum_size,
)
from repro.consensus.rotation import leader_index
from repro.errors import DissentError, ProtocolError, ViewChangeTimeout
from repro.net.message import LEADER_PROPOSE, SERVER_VOTE, VIEW_CHANGE, SignedEnvelope
from repro.obs.metrics import NULL_REGISTRY

#: Envelope types a consensus engine consumes.
CONSENSUS_TYPES = (LEADER_PROPOSE, SERVER_VOTE, VIEW_CHANGE)


@dataclass
class Step:
    """What the driver must do after one input, in this order."""

    #: Envelopes to broadcast to every other server.
    sends: list[SignedEnvelope] = field(default_factory=list)
    #: ``(event, data)`` pairs for the flight recorder.
    events: list[tuple[str, dict]] = field(default_factory=list)
    #: The view whose timer should now run; None leaves timers alone.
    arm: int | None = None
    #: Protocol errors met on the way (earlier sends still go out).
    errors: list[DissentError] = field(default_factory=list)


class RoundConsensus:
    """Leader rotation, votes, view change and conviction for one round.

    ``convicted`` is the driver's set of servers convicted of
    equivocation: the rotation epoch and exclusions are snapshotted from
    it at :meth:`start`, and a leader convicted here is added to it.
    Once :attr:`certificate` is set the round is done and further input
    is ignored; :attr:`proof` holds the first conviction's evidence.
    """

    def __init__(
        self, server, round_number: int, convicted: set[int], registry=NULL_REGISTRY
    ) -> None:
        self.server = server
        self.definition = server.definition
        self.round_number = round_number
        self.convicted = convicted
        self.registry = registry
        self.started = False
        self.output = None
        self.digest = b""
        self.epoch = 0
        self.excluded: set[int] = set()
        self.view = 0
        self.certificate: RoundCertificate | None = None
        self.proof: EquivocationProof | None = None
        self._pending: list[SignedEnvelope] = []
        self._entered: set[int] = set()
        self._voted: set[int] = set()
        self._view_changes_sent: set[int] = set()
        #: view -> sender -> digest -> proposal; two digests from one
        #: sender at one view are the equivocation evidence.
        self._proposals: dict[int, dict[int, dict[bytes, SignedEnvelope]]] = {}
        #: view -> voter -> signature, for our own digest only; checked
        #: in one batch by adopt_round, not on arrival.
        self._votes: dict[int, dict[int, object]] = {}
        #: Views with proven equivocation: never certified.
        self._poisoned: set[int] = set()
        self._step = Step()

    # -- inputs ----------------------------------------------------------

    def start(self, output) -> Step:
        """Our own round output is assembled: enter view 0."""
        return self._run(self._start, output)

    def receive(self, envelope: SignedEnvelope) -> Step:
        """A consensus envelope from another server."""
        return self._run(self._receive, envelope)

    def timeout(self, view: int) -> Step:
        """The timer of ``view`` expired: certify a quorum or rotate."""
        return self._run(self._timeout, view)

    def _run(self, action, argument) -> Step:
        self._step = step = Step()
        try:
            action(argument)
        except DissentError as exc:
            step.errors.append(exc)
        return step

    def _start(self, output) -> None:
        self.output = output
        self.digest = output_body_digest(self.definition.group, output)
        self.epoch = len(self.convicted)
        self.excluded = set(self.convicted)
        self.started = True
        self._enter_view(0)
        pending, self._pending = self._pending, []
        for envelope in pending:
            try:
                self._receive(envelope)
            except DissentError as exc:
                # One bad buffered envelope must not abort the round.
                self._step.errors.append(exc)

    def _receive(self, envelope: SignedEnvelope) -> None:
        if not self.started:
            self._pending.append(envelope)
        elif self.certificate is not None:
            return
        elif envelope.msg_type == LEADER_PROPOSE:
            self._on_propose(envelope)
        elif envelope.msg_type == SERVER_VOTE:
            self._on_vote(envelope)
        elif envelope.msg_type == VIEW_CHANGE:
            self._on_view_change(envelope)
        else:
            raise ProtocolError(f"not a consensus envelope: {envelope.msg_type!r}")

    def _timeout(self, view: int) -> None:
        if not self.started or self.certificate is not None or view != self.view:
            return  # stale timer
        quorum = quorum_size(self.definition.num_servers)
        if view not in self._poisoned and len(self._votes.get(view, ())) >= quorum:
            # Withheld votes cannot halt the session: commit the majority;
            # the absent signatures name the holdout.
            self._certify(view)
            return
        if view + 1 > 2 * self.definition.num_servers + 1:
            raise ViewChangeTimeout(
                f"round {self.round_number}: no certificate formed after "
                f"{view + 1} views"
            )
        self._view_changes_sent.add(view + 1)
        self._step.sends.append(
            self.server.view_change_envelope(self.round_number, view + 1, "timeout")
        )
        self._enter_view(view + 1)

    # -- the protocol ----------------------------------------------------

    def leader(self, view: int) -> int:
        """Rotation leader for ``view``, recomputed so that a mid-round
        conviction redirects every pending view at once."""
        try:
            return leader_index(
                self.definition.group_id(),
                self.epoch,
                self.round_number,
                view,
                self.definition.num_servers,
                self.excluded,
            )
        except ProtocolError as exc:
            raise ViewChangeTimeout(str(exc)) from exc

    def _enter_view(self, view: int) -> None:
        """Adopt ``view``: arm its timer, propose if we lead, vote."""
        if self.certificate is not None or view in self._entered:
            return
        self._entered.add(view)
        self.view = max(self.view, view)
        if view > 0:
            self.registry.counter("consensus.views_changed").inc()
            self._step.events.append(
                ("view_change", {"round": self.round_number, "view": view})
            )
        self._step.arm = view
        if self.leader(view) == self.server.index:
            proposals = self.server.propose_round(self.output, view=view) or []
            self._step.sends.extend(proposals)
            for envelope in proposals:
                if self.certificate is None:
                    self._on_propose(envelope)
        self._maybe_vote(view)

    def _on_propose(self, envelope: SignedEnvelope) -> None:
        sender = self.definition.server_index_of(envelope.sender)
        if sender != self.server.index:
            envelope.verify(self.definition.server_keys[sender])
        view, digest = proposal_view_digest(envelope)
        bucket = self._proposals.setdefault(view, {}).setdefault(sender, {})
        if digest in bucket:
            return
        bucket[digest] = envelope
        if len(bucket) > 1 and sender not in self.excluded:
            self._convict(view, sender, bucket)
        elif view > self.view:
            # A signed proposal from a later view's leader is evidence the
            # view moved on; adopting it is safe because a vote only ever
            # endorses our own digest.
            if sender == self.leader(view):
                self._enter_view(view)
        else:
            self._maybe_vote(view)

    def _maybe_vote(self, view: int) -> None:
        """Vote once per view, only on the view leader's sole proposal."""
        if view != self.view or view in self._voted or self.certificate is not None:
            return
        bucket = self._proposals.get(view, {}).get(self.leader(view), {})
        if len(bucket) != 1:
            return
        self._voted.add(view)
        [(digest, proposal)] = bucket.items()
        vote = None
        if digest == self.digest:  # never endorse a value we did not compute
            vote = self.server.vote_on_proposal(proposal, self.output, view=view)
        if vote is None:
            self.registry.counter("consensus.votes_rejected").inc()
            return
        self._step.sends.append(vote)
        self._record_vote(self.server.index, view, vote.signature)

    def _on_vote(self, envelope: SignedEnvelope) -> None:
        sender = self.definition.server_index_of(envelope.sender)
        view, digest = proposal_view_digest(envelope)
        if digest != self.digest:
            self.registry.counter("consensus.votes_rejected").inc()
            return
        self._record_vote(sender, view, envelope.signature)

    def _record_vote(self, sender: int, view: int, signature) -> None:
        votes = self._votes.setdefault(view, {})
        votes.setdefault(sender, signature)
        if len(votes) == self.definition.num_servers and view not in self._poisoned:
            self._certify(view)

    def _on_view_change(self, envelope: SignedEnvelope) -> None:
        from repro.net.wire import decode_view_change_body

        sender = self.definition.server_index_of(envelope.sender)
        envelope.verify(self.definition.server_keys[sender])
        new_view, _reason = decode_view_change_body(envelope.body)
        if new_view <= self.view:
            return
        if new_view not in self._view_changes_sent:
            # Relay our adoption once, so a peer whose timer never fires
            # (or whose link lost the original) still converges.
            self._view_changes_sent.add(new_view)
            self._step.sends.append(
                self.server.view_change_envelope(self.round_number, new_view, "adopt")
            )
        self._enter_view(new_view)

    def _convict(self, view: int, sender: int, bucket: dict) -> None:
        """Two conflicting proposals: prove it, expel the leader from the
        rotation, and relay the evidence so every peer convicts too."""
        first, second = list(bucket.values())[:2]
        proof = EquivocationProof(self.round_number, view, sender, first, second)
        proof.verify(self.definition)
        self._poisoned.add(view)
        self.convicted.add(sender)
        self.excluded.add(sender)
        self.proof = self.proof or proof
        self._step.events.append(
            ("equivocation", {"round": self.round_number, "view": view, "leader": sender})
        )
        self._step.sends.extend((first, second))
        if view >= self.view:
            self._enter_view(view + 1)
        else:
            # Convicted for a view we are past: the exclusions changed, so
            # the current view's leader may have too.
            self._maybe_vote(self.view)

    def _certify(self, view: int) -> None:
        self.certificate = RoundCertificate(
            round_number=self.round_number,
            view=view,
            leader=self.leader(view),
            digest=self.digest,
            votes=tuple(sorted(self._votes[view].items())),
        )
        self.registry.counter("consensus.certs_formed").inc()


class Adoption(NamedTuple):
    """What :func:`adopt_round` settled: the certificate, ``(reporting
    server, proof)`` per newly admitted conviction, and how many forged
    votes were stripped."""

    certificate: RoundCertificate
    convictions: tuple[tuple[int, EquivocationProof], ...]
    stripped: int


def adopt_round(
    definition,
    round_number: int,
    digest: bytes,
    certificates: dict,
    proofs: dict,
    convicted: set[int],
    archive: list,
) -> Adoption:
    """Settle a round from its servers' reported certificates and proofs.

    Servers may report different valid certificates (a full one, and a
    majority one cut at a view timer), so candidates are tried strongest
    first — most votes, lowest view, lowest reporter — and the first that
    certifies ``digest``, the agreed round output, with a quorum of
    authentic votes is adopted.  Vote signatures are checked here, once,
    in one batch; forged ones are stripped, so forgery cannot halt the
    session while an honest quorum remains.  Each verified proof against
    a leader not yet in ``convicted`` is admitted: the leader joins
    ``convicted`` and the proof is appended to ``archive``.
    """
    num_servers = definition.num_servers
    adopted, stripped, failure = None, 0, None
    for sender, candidate in sorted(
        certificates.items(), key=lambda item: (-len(item[1].votes), item[1].view, item[0])
    ):
        try:
            if (candidate.round_number, candidate.digest) != (round_number, digest):
                raise ProtocolError(
                    f"round {round_number}: server {sender} certified another "
                    "round or output"
                )
            candidate.check_shape(num_servers)
            bad = find_invalid_votes(
                definition, round_number, candidate.view, digest, dict(candidate.votes)
            )
            if bad:
                candidate = dataclasses.replace(
                    candidate,
                    votes=tuple(vote for vote in candidate.votes if vote[0] not in bad),
                )
                candidate.check_shape(num_servers)
        except DissentError as exc:
            failure = exc
            continue
        adopted, stripped = candidate, len(bad)
        break
    if adopted is None:
        raise failure or ProtocolError(
            f"round {round_number}: no server reported a certificate"
        )
    convictions = []
    for sender in sorted(proofs):
        proof = proofs[sender]
        if proof.leader not in convicted:
            proof.verify(definition)
            convicted.add(proof.leader)
            archive.append(proof)
            convictions.append((sender, proof))
    return Adoption(adopted, tuple(convictions), stripped)
