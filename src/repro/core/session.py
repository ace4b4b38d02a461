"""In-process real-mode session: full protocol with actual cryptography.

:class:`DissentSession` wires client and server objects together through
signed envelopes, exactly as Algorithms 1 and 2 prescribe, but with method
calls standing in for sockets.  Every signature, commitment, PRNG stream,
shuffle proof, and trace step executes for real — this is the object the
integration tests, property tests, and examples drive.

Timing is intentionally absent here; the discrete-event simulator in
:mod:`repro.sim` models latency, bandwidth, and churn for the paper's
performance figures.
"""

from __future__ import annotations

import random
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass

from repro.core.accusation import (
    Accusation,
    TraceVerdict,
    accusation_max_bytes,
    trace_accusation,
)
from repro.core.client import DissentClient
from repro.core.config import GroupDefinition, Policy
from repro.core.keyshuffle import (
    make_session_keys,
    open_shuffle_submissions,
    run_key_shuffle,
    run_message_shuffle,
    shuffle_run_id,
)
from repro.consensus import (
    EquivocationProof,
    RoundCertificate,
    RoundConsensus,
    adopt_round,
)
from repro.core.rounds import RoundLoop, RoundRecord, RoundStatus
from repro.core.server import EXCHANGE_PHASES, DissentServer
from repro.crypto.keys import PrivateKey, PublicKey
from repro.crypto.shuffle import message_vector_width
from repro.errors import AccusationError, ProtocolError, TraceInconclusive
from repro.net.message import SERVER_INVENTORY, SERVER_REVEAL, SERVER_SIGNATURE
from repro.obs import (
    NULL_REGISTRY,
    NULL_TRACER,
    MetricsRegistry,
    Tracer,
    round_trace_id,
    telemetry_env_enabled,
)


#: Exchanges whose digests every server must agree on, and what they are.
_AGREED = {SERVER_INVENTORY: "participation count", SERVER_REVEAL: "combined cleartext"}


@dataclass
class SessionBuildResult:
    """Key material generated by :func:`build_session` (handy for tests)."""

    definition: GroupDefinition
    server_keys: list[PrivateKey]
    client_keys: list[PrivateKey]


def build_keys(
    group_name: str | None,
    num_servers: int,
    num_clients: int,
    policy: Policy | None = None,
    rng: random.Random | None = None,
) -> SessionBuildResult:
    """Generate a complete group: definition plus all private keys.

    ``group_name=None`` defers to the policy's ``group_backend`` and the
    ``DISSENT_GROUP_BACKEND`` environment variable (in that order) — the
    hook CI's backend matrix uses to steer every builder at once.
    """
    from repro.core.config import make_group_definition, _GROUP_NAMES
    from repro.crypto.groups import resolve_group_name

    group_name = resolve_group_name(group_name, policy)
    group = _GROUP_NAMES[group_name]()
    server_keys = [PrivateKey.generate(group, rng) for _ in range(num_servers)]
    client_keys = [PrivateKey.generate(group, rng) for _ in range(num_clients)]
    definition = make_group_definition(
        group_name,
        [key.public for key in server_keys],
        [key.public for key in client_keys],
        policy,
    )
    return SessionBuildResult(definition, server_keys, client_keys)


def build_session(
    group_name: str | None = None,
    num_servers: int = 3,
    num_clients: int = 8,
    policy: Policy | None = None,
    seed: int | None = None,
):
    """Build the session type the policy's ``dcnet_mode`` selects.

    ``"xor"`` returns a plain :class:`DissentSession`; ``"hybrid"`` a
    :class:`repro.verdict.hybrid.HybridSession` (same surface, verifiable
    blame); ``"verifiable"`` a :class:`repro.verdict.session.VerdictSession`
    (proactive per-round proofs — a different, slot-per-round surface).
    """
    from repro.crypto.groups import resolve_group_name

    policy = policy or Policy()
    group_name = resolve_group_name(group_name, policy)
    if policy.dcnet_mode == "hybrid":
        from repro.verdict.hybrid import HybridSession

        return HybridSession.build(
            group_name, num_servers, num_clients, policy, seed
        )
    if policy.dcnet_mode == "verifiable":
        from repro.verdict.session import VerdictSession

        return VerdictSession.build(
            num_servers=num_servers,
            num_clients=num_clients,
            group_name=group_name,
            slot_payload=policy.initial_slot_payload,
            seed=seed,
        )
    return DissentSession.build(group_name, num_servers, num_clients, policy, seed)


class DissentSession(RoundLoop):
    """Drives one Dissent group end to end, in process.

    Args:
        definition: the static group definition.
        servers: server node objects (honest or adversarial subclasses).
        clients: client node objects, in definition order.
        rng: deterministic randomness for reproducible runs.
    """

    def __init__(
        self,
        definition: GroupDefinition,
        servers: Sequence[DissentServer],
        clients: Sequence[DissentClient],
        rng: random.Random | None = None,
    ) -> None:
        if len(servers) != definition.num_servers:
            raise ProtocolError("server list does not match the definition")
        if len(clients) != definition.num_clients:
            raise ProtocolError("client list does not match the definition")
        self.definition = definition
        self.servers = list(servers)
        self.clients = list(clients)
        self.rng = rng if rng is not None else random.Random()
        self.round_number = 0
        self.records: list[RoundRecord] = []
        self.expelled: set[int] = set()
        self.convicted_servers: set[int] = set()
        self.equivocation_proofs: list[EquivocationProof] = []
        self.scheduled = False
        # Telemetry is disabled (null sinks) until enable_telemetry();
        # instrumented paths record unconditionally and the nulls discard.
        self.registry = NULL_REGISTRY
        self.tracer = NULL_TRACER

    def enable_telemetry(self, clock=None) -> MetricsRegistry:
        """Attach a live metrics registry and span tracer to this session.

        ``clock`` injects a monotonic time source for the tracer (a fake
        clock keeps traced runs deterministic); recording never touches
        protocol bytes, so enabling telemetry cannot change outputs.
        """
        self.registry = MetricsRegistry()
        self.tracer = Tracer(self.registry, clock=clock)
        return self.registry

    def metrics(self) -> dict:
        """Snapshot of everything recorded (empty when disabled)."""
        return self.registry.snapshot()

    def snapshot_state(self) -> dict:
        """Capture all mutable session state at a round barrier.

        Covers the driver (round counter, records, membership, RNG) and
        every node's own snapshot; long-lived identity (keys, definition)
        is excluded — a restore re-attaches state to freshly-built nodes
        holding the same keys.  JSON-durable form lives in
        :mod:`repro.persist`.
        """
        return {
            "round_number": self.round_number,
            "records": tuple(self.records),
            "expelled": set(self.expelled),
            "convicted_servers": set(self.convicted_servers),
            "equivocation_proofs": tuple(self.equivocation_proofs),
            "scheduled": self.scheduled,
            "rng_state": self.rng.getstate(),
            "servers": [server.snapshot_state() for server in self.servers],
            "clients": [client.snapshot_state() for client in self.clients],
        }

    def restore_state(self, snapshot: dict) -> None:
        """Adopt a snapshot taken by :meth:`snapshot_state`."""
        self.round_number = snapshot["round_number"]
        self.records = list(snapshot["records"])
        self.expelled = set(snapshot["expelled"])
        self.convicted_servers = set(snapshot["convicted_servers"])
        self.equivocation_proofs = list(snapshot.get("equivocation_proofs", ()))
        self.scheduled = snapshot["scheduled"]
        self.rng.setstate(snapshot["rng_state"])
        for server, state in zip(self.servers, snapshot["servers"]):
            server.restore_state(state)
        for client, state in zip(self.clients, snapshot["clients"]):
            client.restore_state(state)
        for index in self.expelled:
            for server in self.servers:
                server.expel_client(index)

    # ------------------------------------------------------------------
    # Setup: the key shuffle establishes the slot schedule
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        group_name: str | None = None,
        num_servers: int = 3,
        num_clients: int = 8,
        policy: Policy | None = None,
        seed: int | None = None,
        client_factory=DissentClient,
        server_factory=DissentServer,
        telemetry: bool | None = None,
    ) -> "DissentSession":
        """Convenience constructor: fresh keys, honest nodes, seeded RNG.

        ``telemetry=True`` enables the metrics registry and tracer from the
        start; ``None`` defers to the ``DISSENT_TELEMETRY`` environment
        opt-in (how CI runs the whole suite instrumented).
        """
        rng = random.Random(seed) if seed is not None else random.Random()
        built = build_keys(group_name, num_servers, num_clients, policy, rng)
        servers = [
            server_factory(built.definition, j, key, random.Random(rng.getrandbits(64)))
            for j, key in enumerate(built.server_keys)
        ]
        clients = [
            client_factory(built.definition, i, key, random.Random(rng.getrandbits(64)))
            for i, key in enumerate(built.client_keys)
        ]
        session = cls(built.definition, servers, clients, rng)
        if telemetry or (telemetry is None and telemetry_env_enabled()):
            session.enable_telemetry()
        return session

    def setup(self) -> None:
        """Run the scheduling key shuffle and distribute slot assignments."""
        if self.scheduled:
            raise ProtocolError("session already scheduled")
        purpose = b"dissent.key-shuffle|" + self.definition.group_id()
        privates, publics = make_session_keys(
            self.definition, [server.key for server in self.servers], purpose, self.rng
        )
        # Clients sign their onion-encrypted submissions (bound to this
        # run's ephemeral mix keys, so they cannot be replayed into a
        # later session); one batched multi-exponentiation authenticates
        # the whole set before the cascade spends any mixing work on it.
        envelopes = [
            client.signed_scheduling_submission(publics, purpose)
            for client in self.clients
        ]
        submissions = open_shuffle_submissions(
            self.definition, envelopes, shuffle_run_id(purpose, publics)
        )
        result = run_key_shuffle(
            self.definition, privates, submissions, context=purpose, rng=self.rng
        )
        elements = list(result.slot_elements)
        for client in self.clients:
            client.learn_schedule(elements)
        for server in self.servers:
            server.learn_schedule(elements)
        self.scheduled = True

    # ------------------------------------------------------------------
    # One DC-net round (Algorithms 1 + 2 interleaved)
    # ------------------------------------------------------------------

    def run_round(self, online: set[int] | None = None) -> RoundRecord:
        """Execute one complete round.

        Args:
            online: client indices that submit this round (None = all).
                Offline clients still receive the certified output, as a
                reconnecting client would fetch it from its server.
        """
        if not self.scheduled:
            raise ProtocolError("setup() must run before rounds")
        r = self.round_number
        self.round_number += 1
        if online is None:
            online = set(range(self.definition.num_clients))
        submitters = sorted(i for i in online if i not in self.expelled)
        # The same trace-id scheme the networked runner uses, so local and
        # distributed runs of one group/round land under one trace name.
        span_attrs = {"round": r, "node": "local"}
        if self.tracer.enabled:
            span_attrs["trace_id"] = round_trace_id(
                self.definition.group_id(), r
            )
        with self.tracer.span("round", **span_attrs) as round_span:
            with round_span.child("phase", name="build"):
                for server in self.servers:
                    server.open_round(r)
                # Each server collects its attached clients' envelopes and
                # checks all their signatures in one batched multi-exp.
                batches: list[list] = [[] for _ in self.servers]
                for i in submitters:
                    batches[self.definition.upstream_server(i)].append(
                        self.clients[i].produce_ciphertext(r)
                    )
            with round_span.child("phase", name="submit"):
                for upstream, batch in zip(self.servers, batches):
                    if batch:
                        upstream.accept_ciphertexts(batch)

            record = self.serve_round(r, round_span)
            self.deliver(record)
        self.records.append(record)
        if not record.completed:
            self.registry.counter("session.rounds_failed").inc()
            return record
        self.registry.counter("session.rounds_completed").inc()
        if record.shuffle_requested:
            self.registry.counter("session.shuffle_requests").inc()
        return record

    def serve_round(self, r: int, round_span) -> RoundRecord:
        """The servers' half of round ``r``, once its ciphertexts are in.

        Walks :data:`~repro.core.server.EXCHANGE_PHASES` — each exchange
        under its phase span: every server produces its envelope, then
        digests all M.  Participation below the §3.7 floor abandons the
        round after the inventory; otherwise certify and output follow.
        Every call names round ``r`` explicitly, so the lockstep driver and
        the pipelined one (whose servers hold younger rounds too) share
        it.  Clients are left to the caller.
        """
        servers = self.servers
        results = {}
        for phase in EXCHANGE_PHASES:
            with round_span.child("phase", name=phase.span):
                envelopes = [phase.produce(server, r) for server in servers]
                results[phase.kind] = [
                    phase.digest(server, envelopes) for server in servers
                ]
                if phase.kind in _AGREED and len(set(results[phase.kind])) != 1:
                    raise ProtocolError(
                        f"servers disagree on the {_AGREED[phase.kind]}"
                    )
                below_floor = phase.kind == SERVER_INVENTORY and not all(
                    server.participation_ok(r) for server in servers
                )
            if below_floor:
                # §3.7 hard timeout: abandon, publish the fresh count.
                for server in servers:
                    server.abandon_round(r)
                return RoundRecord(
                    round_number=r,
                    status=RoundStatus.FAILED,
                    participation=results[SERVER_INVENTORY][0],
                    output=None,
                )
        participation = results[SERVER_INVENTORY][0]
        outputs = results[SERVER_SIGNATURE]
        with round_span.child("phase", name="certify"):
            certificate = self._certify(r, outputs)
        with round_span.child("phase", name="output"):
            output = outputs[0]
            # The shuffle-request field is outside the masked payload on
            # purpose: it must stay readable even when the disruptor is
            # corrupting the rest of the slot (§3.9).
            contents = [c for server in servers for c in server.finish_round(output)]
            shuffle_requested = any(c.shuffle_request for c in contents)
        return RoundRecord(
            round_number=r,
            status=RoundStatus.COMPLETED,
            participation=participation,
            output=output,
            shuffle_requested=shuffle_requested,
            certificate=certificate,
        )

    def deliver(self, record: RoundRecord) -> None:
        """Hand a round's certified output, or its failure, to every client."""
        for client in self.clients:
            if record.completed:
                client.handle_output(record.output)
            else:
                client.handle_round_failure(record.round_number, record.participation)

    def _certify(self, r: int, outputs: list) -> RoundCertificate:
        """Run every server's consensus engine over an in-memory FIFO.

        Each broadcast reaches the other engines in send order.  When the
        queue runs dry with some engine still uncertified, every such
        engine's current view times out — the in-process stand-in for
        the networked view timer.  Signing is deterministic, so a
        fault-free exchange leaves every RNG stream, and therefore every
        round output, bit-identical to a session without this stage.
        """
        engines = [
            RoundConsensus(server, r, set(self.convicted_servers), self.registry)
            for server in self.servers
        ]
        queue: deque = deque()

        def apply(sender: int, step) -> None:
            if step.errors:
                raise step.errors[0]
            queue.extend((sender, envelope) for envelope in step.sends)

        for j, engine in enumerate(engines):
            apply(j, engine.start(outputs[j]))
        while True:
            while queue:
                sender, envelope = queue.popleft()
                for j, engine in enumerate(engines):
                    if j != sender:
                        apply(j, engine.receive(envelope))
            waiting = [j for j, e in enumerate(engines) if e.certificate is None]
            if not waiting:
                break
            for j in waiting:
                apply(j, engines[j].timeout(engines[j].view))
        adoption = adopt_round(
            self.definition,
            r,
            engines[0].digest,  # every engine derived it from its own output
            {j: engine.certificate for j, engine in enumerate(engines)},
            {j: engine.proof for j, engine in enumerate(engines) if engine.proof},
            self.convicted_servers,
            self.equivocation_proofs,
        )
        return adoption.certificate

    # ------------------------------------------------------------------
    # Accusation phase (§3.9)
    # ------------------------------------------------------------------

    def run_accusation_phase(self) -> list[TraceVerdict]:
        """Run an accusation shuffle, trace valid accusations, expel."""
        with self.tracer.span("phase", name="blame"):
            verdicts = self._run_accusation_shuffle()
        self.registry.counter("session.accusation_phases").inc()
        self.registry.counter("session.trace_verdicts").inc(len(verdicts))
        return verdicts

    def _run_accusation_shuffle(self) -> list[TraceVerdict]:
        purpose = b"dissent.accusation-shuffle|" + self.definition.group_id()
        privates, publics = make_session_keys(
            self.definition, [server.key for server in self.servers], purpose, self.rng
        )
        width = message_vector_width(
            self.definition.group, accusation_max_bytes(self.definition.group)
        )
        participants = [
            i for i in range(self.definition.num_clients) if i not in self.expelled
        ]
        submissions = [
            self.clients[i].accusation_submission(publics, width)
            for i in participants
        ]
        result = run_message_shuffle(
            self.definition, privates, submissions, context=purpose, rng=self.rng
        )
        verdicts: list[TraceVerdict] = []
        for message in result.messages:
            if not message:
                continue
            try:
                accusation = Accusation.from_bytes(self.definition.group, message)
            except AccusationError:
                continue
            try:
                verdicts.extend(self.trace(accusation))
            except (AccusationError, TraceInconclusive):
                continue
        for verdict in verdicts:
            if verdict.culprit_kind == "client":
                self.expel(verdict.culprit_index)
            else:
                self.convicted_servers.add(verdict.culprit_index)
        handled = bool(verdicts)
        for i in participants:
            self.clients[i].accusation_outcome(handled)
        return verdicts

    def trace(self, accusation: Accusation, verifier: int = 0) -> list[TraceVerdict]:
        """Trace one accusation from an honest server's perspective."""
        server = self.servers[verifier]
        archive = server.archive.get(accusation.round_number)
        if archive is None:
            raise AccusationError(
                f"round {accusation.round_number} is no longer archived"
            )
        evidence = archive.to_evidence()
        disclosures = [
            s.trace_disclosure(accusation.round_number, accusation.bit_index)
            for s in self.servers
        ]
        slot_keys = [
            PublicKey(self.definition.group, element) for element in server.slot_keys
        ]

        def rebut(client_index: int, round_number: int, bit_index: int, claimed):
            return self.clients[client_index].rebut(round_number, bit_index, dict(claimed))

        return trace_accusation(
            self.definition.group,
            list(self.definition.client_keys),
            list(self.definition.server_keys),
            slot_keys,
            self.definition.group_id(),
            evidence,
            accusation,
            disclosures,
            rebut,
        )

    # ------------------------------------------------------------------
    # Membership management
    # ------------------------------------------------------------------

    def expel(self, client_index: int) -> None:
        """Expel a convicted disruptor from every server's roster."""
        self.expelled.add(client_index)
        for server in self.servers:
            server.expel_client(client_index)
        self.registry.counter("session.expulsions").inc()

    # ------------------------------------------------------------------
    # Convenience for applications and tests
    # ------------------------------------------------------------------

    def post(self, client_index: int, message: bytes) -> None:
        """Queue an anonymous message from one client."""
        self.clients[client_index].queue_message(message)

    def delivered_messages(self, client_index: int = 0) -> list[tuple[int, int, bytes]]:
        """(round, slot, message) triples as observed by one client."""
        return list(self.clients[client_index].received)

    def _quiet(self) -> bool:
        return not any(
            c.has_pending_traffic or c.pending_accusation
            for i, c in enumerate(self.clients)
            if i not in self.expelled
        )
