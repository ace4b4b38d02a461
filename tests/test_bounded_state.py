"""Bounded state in long-lived networked sessions.

§3.7's rules assume groups that live for many rounds, so per-round
bookkeeping must not grow with the session's age.  Over a 40-round
loopback session with node checkpoints on, this suite pins:

* checkpoint journals: bytes appended per barrier stay flat, and a
  server's journal never exceeds twice its live size plus one line;
* replay outboxes: after every barrier each live peer's hub outbox holds
  at most the frames of the round just finished, while a dark client
  keeps every frame it missed and has them replayed on resume;
* coordinator barrier buckets: none outlives its round, even when a
  resumed client reports rounds that closed while it was dark;
* coordinator node-error reports: only the most recent are kept, every
  one is counted.

The group is pinned to the fast ``test-256`` backend: the properties are
about state size, not crypto, and 40 rounds must stay a few seconds.
"""

import asyncio
import os

import pytest

from repro.core.config import Policy
from repro.core.rounds import RoundStatus
from repro.errors import SessionTimeout
from repro.net.node import K_NODE_ERROR
from repro.net.runner import NODE_ERRORS_KEPT, NetworkedSession, _Hub, _PeerLink
from repro.net.transport import loopback_pair
from repro.persist import write_checkpoint

ROUNDS = 40
#: Client 2 goes dark for these rounds, then restarts from its journal.
DARK = range(30, 34)
EARLY, LATE = range(5, 20), range(20, ROUNDS)


def fresh_live_size(node, path) -> int:
    """Bytes a compaction of the node's current state would write."""
    return write_checkpoint(path, node._snapshot_payload(), kind="node")


def test_forty_rounds_keep_journals_and_outboxes_bounded(tmp_path):
    # alpha=0.5 lets rounds complete while one of three clients is dark.
    policy = Policy(alpha=0.5)
    with NetworkedSession.build(
        group_name="test-256",
        num_servers=2,
        num_clients=3,
        seed=13,
        mode="loopback",
        policy=policy,
        checkpoint_dir=str(tmp_path / "ckpt"),
    ) as session:
        session.setup()
        hub = session._hub
        dark = session.node_name("client", 2)
        appended: dict[str, dict[int, int]] = {}
        longest_line: dict[str, int] = {}
        missed = []
        for r in range(ROUNDS):
            if r == DARK.start:
                session.kill_node("client", 2)
                session.wait_dark(dark)
                dark_from = hub.links[dark].seq
            if r == DARK.stop:
                replayed_before = session.registry.counter("net.replay.envelopes").value
                session.restart_node("client", 2)
                session.wait_live(dark)
                # Every frame queued while dark went out on resume.
                replayed = session.registry.counter("net.replay.envelopes").value
                assert replayed - replayed_before == len(missed)
            session.post(r % 2, f"round {r} says hello".encode())
            before = {name: link.seq for name, link in hub.links.items()}
            counts = {
                name: node._journal.appends if node._journal else 0
                for name, node in session._node_objects.items()
            }
            record = session.run_round({0, 1} if r in DARK else None)
            assert record.status is RoundStatus.COMPLETED
            # No barrier bucket outlives its round, late reports included.
            assert not session._buckets, (r, sorted(session._buckets))

            for name, node in session._node_objects.items():
                journal = node._journal
                if journal.appends > counts[name]:
                    appended.setdefault(name, {})[r] = journal.last_write_bytes
                    longest_line[name] = max(
                        longest_line.get(name, 0), journal.last_write_bytes
                    )
                assert journal.size == os.path.getsize(node.checkpoint_path)
                if node.role == "server":
                    live = fresh_live_size(node, tmp_path / "live.ckpt")
                    assert journal.size <= 2 * live + longest_line.get(name, 0)

            for name, link in hub.links.items():
                seqs = [seq for seq, _ in link.outbox]
                if name == dark and r in DARK:
                    # Dark: nothing is trimmed, nothing is lost.
                    assert seqs == list(range(seqs[0], link.seq + 1))
                    assert seqs[0] <= dark_from + 1
                    missed = seqs
                else:
                    # Live: only frames of the round just finished remain.
                    assert all(seq > before[name] for seq in seqs), (name, r)

        # Appended bytes per barrier stay flat as history accumulates.
        for name, sizes in appended.items():
            early = [sizes[r] for r in EARLY if r in sizes]
            late = [sizes[r] for r in LATE if r in sizes]
            if early and late:
                assert max(late) <= 1.25 * max(early), name
        assert {"server-0", "server-1"} <= set(appended)
        # The dark client caught up from replay: same deliveries as a peer.
        assert session.expelled == set()
        assert session.delivered_messages(2) == session.delivered_messages(0)
        assert len(session.delivered_messages(0)) == ROUNDS
        trimmed = session.registry.counter("net.outbox.trimmed").value
        assert trimmed > 0


def test_hub_trims_exactly_the_acked_frames():
    """An ack drops frames up to its count and no further; the cap still
    bounds a peer that never acks; a resume replays the rest, and one
    below the trimmed prefix is refused instead of silently skipped."""

    async def scenario():
        hub = _Hub(outbox_limit=6)
        for name in ("client-0", "client-1"):
            hub.links[name] = _PeerLink(name, 6)  # dark: frames only queue
        for k in range(10):
            await hub.deliver("client-0", b"frame %d" % k)
        link = hub.links["client-0"]
        assert [seq for seq, _ in link.outbox] == [5, 6, 7, 8, 9, 10]
        hub.ack("client-0", 7)
        assert [seq for seq, _ in link.outbox] == [8, 9, 10]
        hub.ack("client-0", 3)  # a stale ack trims nothing more
        assert [seq for seq, _ in link.outbox] == [8, 9, 10]

        hub_side, node_side = loopback_pair()
        assert await hub._resume(link, hub_side, 7)
        assert [await node_side.recv() for _ in range(3)] == [
            b"frame 7", b"frame 8", b"frame 9"
        ]

        for k in range(3):
            await hub.deliver("client-1", b"frame %d" % k)
        hub.ack("client-1", 3)
        assert not hub.links["client-1"].outbox
        hub_side, _ = loopback_pair()
        assert not await hub._resume(hub.links["client-1"], hub_side, 1)
        refusal = hub.inbox.get_nowait()
        assert refusal.kind == K_NODE_ERROR and b"gap unreplayable" in refusal.body

    asyncio.run(scenario())


def test_node_error_reports_are_bounded_but_all_counted():
    with NetworkedSession.build(
        group_name="test-256", num_servers=2, num_clients=3, seed=3
    ) as session:
        session.setup()
        victim = session.node_name("client", 0)
        injected = NODE_ERRORS_KEPT + 16

        async def inject(count):
            for _ in range(count):
                await session._send(victim, "not-a-frame-kind", 0, b"")

        session._call(inject(injected))

        async def settle():
            while session.node_error_count < injected:
                await asyncio.sleep(0.01)

        session._call(settle(), timeout=10.0)
        assert len(session._node_errors) == NODE_ERRORS_KEPT
        assert session.registry.counter("session.node_errors").value == injected
        # Stale reports neither wedge nor abort the next round...
        assert session.run_round().status is RoundStatus.COMPLETED

        # ...but a report arriving during a barrier still aborts it, and
        # names only the new error.
        async def barrier_with_fresh_error():
            waiting = asyncio.ensure_future(session._gather("never-sent", 10**6, 1))
            await asyncio.sleep(0.05)
            await session._send(victim, "also-not-a-frame-kind", 0, b"")
            return await waiting

        with pytest.raises(SessionTimeout) as excinfo:
            session._call(barrier_with_fresh_error(), timeout=10.0)
        assert "also-not-a-frame-kind" in str(excinfo.value)
        assert "'not-a-frame-kind'" not in str(excinfo.value)
        assert session.node_error_count == injected + 1
