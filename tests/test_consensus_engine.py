"""One consensus engine, three drivers.

:class:`~repro.consensus.RoundConsensus` is the only implementation of
leader rotation, voting, view change and equivocation conviction.  The
table below runs it under every driver — lockstep in-process, pipelined
in-process, and networked over loopback — for each leader fault, and
requires the same certificates, convictions, proofs and records from
all three.  The unit tests underneath drive a single engine with
scripted envelopes and no transport at all.
"""

import hashlib

import pytest

from repro.consensus import RoundConsensus, leader_index, quorum_size
from repro.core import DissentSession, PipelinedSession, Policy
from repro.core.adversary import (
    EquivocatingLeader,
    StallingLeader,
    VoteWithholdingServer,
)
from repro.core.server import DissentServer
from repro.errors import ViewChangeTimeout
from repro.net.message import LEADER_PROPOSE, SERVER_VOTE, VIEW_CHANGE, make_envelope
from repro.net.runner import NetworkedSession
from repro.net.wire import encode_consensus_body

SEED = 2012
N_SERVERS = 3
N_CLIENTS = 4
ROUNDS = 3

# A small retry budget makes the networked view timer fire in ~0.3 s;
# every driver shares the policy, so the group id (and with it the
# leader rotation) is the same for all three.
POLICY = Policy(
    reconnect_attempts=2, reconnect_base_delay=0.1, reconnect_max_delay=0.2
)

#: fault name -> (server class, which server: "leader" = round 0's leader)
FAULTS = {
    "none": (None, None),
    "equivocating-leader": (EquivocatingLeader, "leader"),
    "stalling-leader": (StallingLeader, "leader"),
    "vote-withholder": (VoteWithholdingServer, 1),
}


def _faulty_index(where):
    if where != "leader":
        return where
    probe = DissentSession.build(None, N_SERVERS, N_CLIENTS, POLICY, seed=SEED)
    return leader_index(probe.definition.group_id(), 0, 0, 0, N_SERVERS)


def _post_all(session):
    session.setup()
    for i in range(N_CLIENTS):
        session.post(i, f"certified payload {i}".encode())


def _outcome(session, records):
    group = session.definition.group
    return {
        "records": records,
        "certificates": [r.certificate.to_wire(group) for r in records],
        "convicted": sorted(session.convicted_servers),
        "proofs": [p.to_wire(group) for p in session.equivocation_proofs],
    }


def _run_inprocess(cls, index, window):
    def server_factory(definition, j, key, rng):
        return (cls if j == index else DissentServer)(definition, j, key, rng)

    session = DissentSession.build(
        None, N_SERVERS, N_CLIENTS, POLICY, seed=SEED, server_factory=server_factory
    )
    _post_all(session)
    if window is None:
        records = session.run_rounds(ROUNDS)
    else:
        records = PipelinedSession(session, window=window).run_rounds(ROUNDS)
    return _outcome(session, records)


def _run_loopback(cls, index):
    factories = {index: (cls, {})} if cls is not None else None
    with NetworkedSession.build(
        None,
        N_SERVERS,
        N_CLIENTS,
        POLICY,
        seed=SEED,
        mode="loopback",
        server_factories=factories,
        timeout=30.0,
    ) as session:
        _post_all(session)
        return _outcome(session, session.run_rounds(ROUNDS))


@pytest.fixture(scope="module", params=sorted(FAULTS))
def fault(request):
    cls, where = FAULTS[request.param]
    index = _faulty_index(where) if cls is not None else None
    lockstep = _run_inprocess(cls, index, window=None)
    return request.param, index, lockstep


class TestOneEngineEveryDriver:
    @pytest.mark.parametrize("driver", ["pipelined-w2", "loopback"])
    def test_driver_matches_lockstep(self, fault, driver):
        name, index, lockstep = fault
        cls = FAULTS[name][0]
        if driver == "loopback":
            actual = _run_loopback(cls, index)
        else:
            actual = _run_inprocess(cls, index, window=2)
        assert actual["records"] == lockstep["records"]
        assert actual["certificates"] == lockstep["certificates"]
        assert actual["convicted"] == lockstep["convicted"]
        assert actual["proofs"] == lockstep["proofs"]

    def test_lockstep_outcome_fits_the_fault(self, fault):
        name, index, lockstep = fault
        certificates = [r.certificate for r in lockstep["records"]]
        assert all(r.completed for r in lockstep["records"])
        if name == "none":
            assert all(c.view == 0 and c.is_full(N_SERVERS) for c in certificates)
        if name == "equivocating-leader":
            assert lockstep["convicted"] == [index]
            assert len(lockstep["proofs"]) == 1
            assert certificates[0].view == 1
            assert all(c.leader != index for c in certificates)
        else:
            assert lockstep["convicted"] == [] and lockstep["proofs"] == []
        if name == "stalling-leader":
            assert certificates[0].view == 1
            assert certificates[0].leader != index
        if name == "vote-withholder":
            for certificate in certificates:
                assert len(certificate.votes) == quorum_size(N_SERVERS)
                assert index not in certificate.voters


# ---------------------------------------------------------------------------
# One engine, scripted envelopes, no transport
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def certified_round():
    """Servers with keys and a real round-0 output to certify."""
    session = DissentSession.build("test-256", N_SERVERS, N_CLIENTS, seed=SEED)
    session.setup()
    session.post(0, b"scripted")
    output = session.run_round().output
    return session.servers, output


def _engine(certified_round, index, convicted=None):
    servers, _ = certified_round
    return RoundConsensus(servers[index], 0, set() if convicted is None else convicted)


def _follower(certified_round, view=0):
    """A server that does not lead ``view`` (with nobody convicted)."""
    servers, _ = certified_round
    leader = RoundConsensus(servers[0], 0, set()).leader(view)
    return next(j for j in range(N_SERVERS) if j != leader), leader


def _proposal(certified_round, leader, view):
    servers, output = certified_round
    [proposal] = servers[leader].propose_round(output, view=view)
    return proposal


def _forged_proposal(certified_round, leader, view):
    servers, output = certified_round
    server = servers[leader]
    digest = hashlib.sha256(b"forged|%d" % view).digest()
    return make_envelope(
        server.key,
        LEADER_PROPOSE,
        server.name,
        server.group_id,
        output.round_number,
        encode_consensus_body(view, digest),
    )


class TestEngineUnits:
    def test_proposal_before_start_is_buffered_then_voted(self, certified_round):
        _, output = certified_round
        me, leader = _follower(certified_round)
        engine = _engine(certified_round, me)
        early = engine.receive(_proposal(certified_round, leader, 0))
        assert early.sends == [] and early.errors == []
        assert not engine.started
        step = engine.start(output)
        assert step.errors == []
        assert step.arm == 0
        assert [e.msg_type for e in step.sends] == [SERVER_VOTE]

    def test_duplicate_vote_counts_once(self, certified_round):
        servers, output = certified_round
        me, leader = _follower(certified_round)
        other = next(j for j in range(N_SERVERS) if j not in (me, leader))
        engine = _engine(certified_round, me)
        engine.start(output)
        proposal = _proposal(certified_round, leader, 0)
        engine.receive(proposal)
        vote = servers[other].vote_on_proposal(proposal, output, view=0)
        engine.receive(vote)
        engine.receive(vote)
        # Three servers, but only two distinct voters: no full certificate.
        assert engine.certificate is None
        # The view timer then commits the majority it has.
        engine.timeout(0)
        assert engine.certificate.voters == tuple(sorted((me, other)))

    def test_stale_view_change_and_timeout_are_ignored(self, certified_round):
        servers, output = certified_round
        me, _ = _follower(certified_round)
        peer = (me + 1) % N_SERVERS
        engine = _engine(certified_round, me)
        engine.start(output)
        rotated = engine.timeout(0)
        assert [e.msg_type for e in rotated.sends][0] == VIEW_CHANGE
        assert engine.view == 1
        for stale in (0, 1):
            step = engine.receive(servers[peer].view_change_envelope(0, stale))
            assert (step.sends, step.arm, step.errors) == ([], None, [])
        assert engine.timeout(0).sends == []
        assert engine.view == 1
        # A later view is adopted, and our adoption relayed once.
        step = engine.receive(servers[peer].view_change_envelope(0, 2))
        assert step.sends[0].msg_type == VIEW_CHANGE
        assert step.arm == 2 and engine.view == 2

    def test_conviction_for_an_old_view_while_ahead(self, certified_round):
        _, output = certified_round
        me, leader = _follower(certified_round)
        convicted = set()
        engine = _engine(certified_round, me, convicted)
        engine.start(output)
        engine.timeout(0)
        engine.timeout(1)
        assert engine.view == 2
        engine.receive(_proposal(certified_round, leader, 0))
        step = engine.receive(_forged_proposal(certified_round, leader, 0))
        assert step.errors == []
        assert convicted == {leader}
        assert engine.proof.leader == leader and engine.proof.view == 0
        assert [e.msg_type for e in step.sends[:2]] == [LEADER_PROPOSE] * 2
        assert step.events[0][0] == "equivocation"
        # Behind us already: the conviction does not move the view.
        assert engine.view == 2
        assert leader not in {engine.leader(v) for v in range(2 * N_SERVERS)}

    def test_view_bound_raises_view_change_timeout(self, certified_round):
        _, output = certified_round
        engine = _engine(certified_round, 0)
        engine.start(output)
        last_view = 2 * N_SERVERS + 1
        for view in range(last_view):
            step = engine.timeout(view)
            assert step.errors == [] and step.arm == view + 1
        [error] = engine.timeout(last_view).errors
        assert isinstance(error, ViewChangeTimeout)
        assert engine.certificate is None
