"""Durable checkpoints: store format, audit chain, JSON round-trips.

Every restore parity test goes through real serialization — the state is
checkpointed to a file, read back, and decoded into a *freshly built*
session — so in-memory aliasing can never mask a codec gap.  The
round-trip property must hold on both the modp and the ristretto255
group backends (satellite requirement), including scheduler and PRNG
state.
"""

import json
import os
import random

import pytest

from repro.core import DissentSession, Policy
from repro.core.rounds import RoundStatus
from repro.errors import CheckpointError
from repro.net.node import NodeRuntime
from repro.net.runner import NetworkedSession
from repro.persist import (
    AuditLog,
    CheckpointJournal,
    read_audit_log,
    read_checkpoint,
    read_journal,
    restore_session,
    save_session,
    write_checkpoint,
)
from repro.persist import checkpoint as checkpoint_module
from repro.util.serialization import canonical_json
from repro.persist.codec import (
    decode_rng_state,
    decode_scheduler,
    encode_rng_state,
    encode_scheduler,
)

#: Fast modp representative + the EC backend (same pairing the backend
#: parity suite uses); ``modp1536`` gets one slow leg below.
BACKENDS = ("test-256", "ec25519")


def built_session(group_name="test-256", seed=7, num_servers=2, num_clients=3):
    session = DissentSession.build(
        group_name=group_name,
        num_servers=num_servers,
        num_clients=num_clients,
        seed=seed,
    )
    session.setup()
    return session


class TestCheckpointStore:
    def test_write_read_round_trip(self, tmp_path):
        path = tmp_path / "state.ckpt"
        payload = {"rounds": [1, 2, 3], "note": "barrier"}
        written = write_checkpoint(path, payload, kind="session")
        assert written == os.path.getsize(path)
        assert read_checkpoint(path, kind="session") == payload

    def test_missing_file_is_typed(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint"):
            read_checkpoint(tmp_path / "absent.ckpt")

    def test_tampered_payload_fails_checksum(self, tmp_path):
        path = tmp_path / "state.ckpt"
        write_checkpoint(path, {"round": 4}, kind="session")
        document = json.loads(path.read_text())
        document["payload"]["round"] = 5
        path.write_text(json.dumps(document))
        with pytest.raises(CheckpointError, match="checksum"):
            read_checkpoint(path)

    def test_version_and_kind_are_enforced(self, tmp_path):
        path = tmp_path / "state.ckpt"
        write_checkpoint(path, {"x": 1}, kind="node")
        with pytest.raises(CheckpointError, match="kind"):
            read_checkpoint(path, kind="session")
        document = json.loads(path.read_text())
        document["version"] = 99
        path.write_text(json.dumps(document))
        with pytest.raises(CheckpointError, match="version"):
            read_checkpoint(path)

    def test_atomic_replace_keeps_old_on_unencodable(self, tmp_path):
        path = tmp_path / "state.ckpt"
        write_checkpoint(path, {"round": 1}, kind="session")
        with pytest.raises(CheckpointError, match="JSON-encodable"):
            write_checkpoint(path, {"bad": object()}, kind="session")
        # The original checkpoint survives an aborted overwrite.
        assert read_checkpoint(path)["round"] == 1

    def test_payload_is_encoded_once_and_spliced(self, tmp_path, monkeypatch):
        """The document is byte-identical to canonicalizing the whole
        dict, but the payload itself is serialized only once."""
        payload = {"round": 3, "blob": "ab" * 64, "nested": {"z": [1, None]}}
        calls = []
        real = checkpoint_module.canonical_json

        def counting(obj):
            calls.append(obj)
            return real(obj)

        monkeypatch.setattr(checkpoint_module, "canonical_json", counting)
        path = tmp_path / "state.ckpt"
        written = write_checkpoint(path, payload, kind="node")
        assert sum(1 for obj in calls if obj is payload) == 1
        expected = canonical_json(
            {
                "kind": "node",
                "payload": payload,
                "sha256": checkpoint_module._payload_digest(payload),
                "version": checkpoint_module.CHECKPOINT_VERSION,
            }
        )
        assert path.read_bytes() == expected
        assert written == len(expected)

    def test_checkpoint_metrics(self, tmp_path):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        write_checkpoint(tmp_path / "m.ckpt", {"a": 1}, registry=registry)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["session.checkpoint.bytes"] > 0
        assert snapshot["counters"]["session.checkpoint.seconds"] > 0
        assert "span.phase.checkpoint" in snapshot["histograms"]


class TestAuditLog:
    def test_append_and_verify_chain(self, tmp_path):
        path = tmp_path / "audit.ndjson"
        log = AuditLog(path)
        log.append("abandon", round=3, reason="timeout")
        log.append("expulsion", client=2, reason="dark")
        entries = read_audit_log(path)
        assert [e["event"] for e in entries] == ["abandon", "expulsion"]
        assert entries[1]["prev"] == entries[0]["hash"]

    def test_chain_continues_across_reopen(self, tmp_path):
        path = tmp_path / "audit.ndjson"
        AuditLog(path).append("abandon", round=0)
        reopened = AuditLog(path)
        reopened.append("blame", culprit=1)
        entries = read_audit_log(path)
        assert entries[1]["index"] == 1
        assert entries[1]["prev"] == entries[0]["hash"]

    def test_tampering_breaks_the_chain(self, tmp_path):
        path = tmp_path / "audit.ndjson"
        log = AuditLog(path)
        log.append("abandon", round=0)
        log.append("abandon", round=1)
        lines = path.read_bytes().split(b"\n")
        first = json.loads(lines[0])
        first["data"]["round"] = 9
        lines[0] = json.dumps(first, sort_keys=True, separators=(",", ":")).encode()
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(CheckpointError):
            read_audit_log(path)

    def test_torn_final_line_is_tolerated(self, tmp_path):
        path = tmp_path / "audit.ndjson"
        log = AuditLog(path)
        log.append("abandon", round=0)
        with open(path, "ab") as handle:
            handle.write(b'{"index": 1, "event": "abandon"')  # no newline
        assert len(read_audit_log(path)) == 1

    def test_unknown_event_rejected(self, tmp_path):
        with pytest.raises(CheckpointError, match="unknown audit event"):
            AuditLog(tmp_path / "a.ndjson").append("surprise")


class TestStateCodecs:
    def test_rng_state_round_trips_through_json(self):
        rng = random.Random(123)
        rng.random()
        encoded = json.loads(json.dumps(encode_rng_state(rng.getstate())))
        clone = random.Random()
        clone.setstate(decode_rng_state(encoded))
        assert [clone.random() for _ in range(8)] == [
            rng.random() for _ in range(8)
        ]

    def test_scheduler_round_trips_through_json(self):
        session = built_session()
        session.post(0, b"fill the scheduler with demand")
        session.run_rounds(2)
        scheduler = session.servers[0].scheduler
        encoded = json.loads(json.dumps(encode_scheduler(scheduler)))
        rebuilt = decode_scheduler(encoded, session.definition.policy)
        assert rebuilt.round_number == scheduler.round_number
        assert (
            rebuilt.current_layout().capacities
            == scheduler.current_layout().capacities
        )


@pytest.mark.parametrize("group_name", BACKENDS)
class TestSessionRoundTrip:
    def test_restored_session_is_bit_identical(self, tmp_path, group_name):
        """Checkpoint at a barrier, restore into a fresh session, and the
        next rounds must be bit-identical to the uninterrupted original —
        scheduler, PRNG, archives, and pseudonym keys all included."""
        path = tmp_path / "session.ckpt"
        session = built_session(group_name=group_name)
        session.post(0, b"before the barrier")
        session.post(2, b"queued across it")
        session.run_rounds(2)
        save_session(session, path)

        fresh = built_session(group_name=group_name)
        restore_session(fresh, path)
        continued = session.run_rounds(3)
        restored = fresh.run_rounds(3)
        assert [r.output.cleartext for r in restored] == [
            r.output.cleartext for r in continued
        ]
        assert fresh.delivered_messages(1) == session.delivered_messages(1)

    def test_checkpoint_file_is_portable_json(self, tmp_path, group_name):
        path = tmp_path / "session.ckpt"
        session = built_session(group_name=group_name)
        session.run_rounds(1)
        save_session(session, path)
        document = json.loads(path.read_text())
        assert document["kind"] == "session"
        payload = document["payload"]
        assert payload["round_number"] == 1
        assert len(payload["servers"]) == 2
        assert len(payload["clients"]) == 3


class TestModpWideBackend:
    def test_modp1536_round_trips_once(self, tmp_path):
        """One slow leg on the real 1536-bit modulus: the hex codecs must
        not assume the test group's element width."""
        path = tmp_path / "wide.ckpt"
        session = built_session(group_name="modp1536", seed=3)
        session.post(1, b"wide")
        session.run_rounds(1)
        save_session(session, path)
        fresh = built_session(group_name="modp1536", seed=3)
        restore_session(fresh, path)
        continued = session.run_rounds(1)
        restored = fresh.run_rounds(1)
        assert [r.output.cleartext for r in restored] == [
            r.output.cleartext for r in continued
        ]


class TestMismatchedRestore:
    def test_wrong_group_size_is_refused(self, tmp_path):
        path = tmp_path / "session.ckpt"
        session = built_session()
        session.run_rounds(1)
        save_session(session, path)
        other = DissentSession.build(num_servers=3, num_clients=3, seed=7)
        other.setup()
        with pytest.raises(CheckpointError):
            restore_session(other, path)


# ---------------------------------------------------------------------------
# Node checkpoint journals
# ---------------------------------------------------------------------------


def journal_payload(inbox, window, tick):
    return {
        "role": "client",
        "index": 1,
        "tick": tick,
        "state": {"received": list(inbox), "archive": dict(window)},
    }


def write_journal(path, barriers):
    """Journal a scripted history; returns the writer and the payload
    after each barrier.

    ``barriers`` is a list of (inbox additions, window puts, window drops).
    """
    journal = CheckpointJournal(path, "node", ("state.received", "state.archive"))
    inbox, window, folds = [], {}, []
    for tick, (added, puts, drops) in enumerate(barriers):
        written = len(inbox)
        inbox.extend(added)
        for key in drops:
            del window[key]
        window.update(puts)
        head = {"role": "client", "index": 1, "tick": tick, "state": {}}
        delta = {
            "state.received": {"extend": inbox[written:]},
            "state.archive": {"put": dict(puts), "drop": list(drops)},
        }
        journal.write((head, delta), lambda: journal_payload(inbox, window, tick))
        folds.append(journal_payload(inbox, window, tick))
    return journal, folds


def message(k):
    return f"m{k}-" + "x" * 400


#: Inbox items and window entries large next to a line's framing, as
#: real delivered messages and round archives are.
SCRIPT = [
    ([message(0)], {"0": "a" * 400}, []),
    ([message(1), message(2)], {"1": "b" * 400}, []),
    ([], {"2": "c" * 400}, ["0"]),
    ([message(3)], {"3": "d" * 400}, ["1"]),
]


def journal_lines(path):
    return path.read_bytes().split(b"\n")


class TestJournalFormat:
    def test_fold_equals_each_barrier_without_rewrites(self, tmp_path):
        path = tmp_path / "client-1.ckpt"
        for barriers in range(1, len(SCRIPT)):
            _, folds = write_journal(path, SCRIPT[:barriers])
            assert read_journal(path, kind="node") == folds[-1]
        journal, folds = write_journal(path, SCRIPT)
        assert read_journal(path, kind="node") == folds[-1]
        # One base plus one line per later barrier, no rewrite.
        assert journal.compactions == 1
        assert len(journal_lines(path)) == len(SCRIPT)
        assert journal.size == path.stat().st_size
        # A plain checkpoint document is a journal with no lines.
        write_checkpoint(path, folds[0], kind="node")
        assert read_journal(path, kind="node") == folds[0]

    def test_dead_bytes_past_live_bytes_compact(self, tmp_path):
        """A window that keeps replacing its entries compacts back to one
        base once superseded bytes outgrow live ones."""
        churn = [
            ([], {str(k): "x" * 400}, [str(k - 1)] if k else []) for k in range(12)
        ]
        path = tmp_path / "server-0.ckpt"
        journal, folds = write_journal(path, churn)
        assert journal.compactions > 1
        assert journal.size <= 2 * journal.live_bytes + journal.last_write_bytes
        assert read_journal(path, kind="node") == folds[-1]

    def test_truncated_last_line_restores_previous_barrier(self, tmp_path):
        path = tmp_path / "client-1.ckpt"
        _, folds = write_journal(path, SCRIPT)
        raw = path.read_bytes()
        last = raw.rindex(b"\n")
        for cut in (last + 1, last + 2, (last + len(raw)) // 2, len(raw) - 1):
            path.write_bytes(raw[:cut])
            assert read_journal(path, kind="node") == folds[-2]

    def test_flipped_byte_mid_file_is_detected(self, tmp_path):
        path = tmp_path / "client-1.ckpt"
        write_journal(path, SCRIPT)
        lines = journal_lines(path)
        lines[1] = lines[1].replace(b'"m1-', b'"m9-')
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(CheckpointError, match="checksum"):
            read_journal(path, kind="node")
        # Damage that breaks the JSON itself, not at the tail, also raises.
        lines = journal_lines(path)
        lines[2] = lines[2][:-3] + b"\x00" + lines[2][-2:]
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(CheckpointError):
            read_journal(path, kind="node")

    def test_broken_chain_link_is_detected(self, tmp_path):
        """A line with a valid checksum that does not link to its
        predecessor — spliced in from elsewhere — breaks the chain."""
        path = tmp_path / "client-1.ckpt"
        write_journal(path, SCRIPT)
        lines = journal_lines(path)
        entry = json.loads(lines[2])
        entry["prev"] = "0" * 64
        entry["hash"] = checkpoint_module.hashlib.sha256(
            canonical_json({k: v for k, v in entry.items() if k != "hash"})
        ).hexdigest()
        lines[2] = canonical_json(entry)
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(CheckpointError, match="chain"):
            read_journal(path, kind="node")
        # Dropping a middle line breaks the index sequence.
        write_journal(path, SCRIPT)
        lines = journal_lines(path)
        path.write_bytes(b"\n".join(lines[:1] + lines[2:]))
        with pytest.raises(CheckpointError):
            read_journal(path, kind="node")

    def test_wrong_kind_role_or_index_is_refused(self, tmp_path):
        path = tmp_path / "client-1.ckpt"
        write_journal(path, SCRIPT)
        assert read_journal(path, kind="node", match={"role": "client", "index": 1})
        with pytest.raises(CheckpointError):
            read_journal(path, kind="session")
        with pytest.raises(CheckpointError, match="role"):
            read_journal(path, kind="node", match={"role": "server", "index": 1})
        with pytest.raises(CheckpointError, match="index"):
            read_journal(path, kind="node", match={"role": "client", "index": 2})


def journaled_session(tmp_path, seed=5, **kwargs):
    return NetworkedSession.build(
        group_name="test-256",
        num_servers=2,
        num_clients=3,
        seed=seed,
        mode="loopback",
        checkpoint_dir=str(tmp_path / "ckpt"),
        **kwargs,
    )


class TestNodeJournal:
    def test_fold_matches_snapshot_at_every_barrier(self, tmp_path, monkeypatch):
        """After every barrier write, the journal on disk folds to exactly
        the node's live snapshot — across compactions, an abandoned round,
        and an expelled client."""
        checked, mismatches = [], []
        real = NodeRuntime._maybe_checkpoint

        def checking(node):
            real(node)
            if node.checkpoint_path is None:
                return
            checked.append(node.name)
            folded = read_journal(node.checkpoint_path, kind="node")
            if folded != node._snapshot_payload():
                mismatches.append((node.name, node.rounds_done))

        monkeypatch.setattr(NodeRuntime, "_maybe_checkpoint", checking)
        with journaled_session(tmp_path) as session:
            session.setup()
            session.post(0, b"first")
            session.post(2, b"second")
            records = session.run_rounds(3)
            abandoned = session.run_round(online=set())
            session.expel(2)
            session.post(1, b"after the expulsion")
            records += session.run_rounds(6)
            journals = {
                name: node._journal for name, node in session._node_objects.items()
            }
        assert abandoned.status is RoundStatus.FAILED
        assert all(r.status is RoundStatus.COMPLETED for r in records)
        assert not mismatches
        assert len(checked) >= 10 * 5
        # Servers append archive deltas and compact as evictions pile up;
        # clients with near-empty inboxes mostly compact (their head
        # dominates), so both paths are covered.
        for name in ("server-0", "server-1"):
            assert journals[name].appends > 0
            assert journals[name].compactions > 1

    def test_restore_checkpoint_refuses_another_nodes_journal(self, tmp_path):
        with journaled_session(tmp_path) as session:
            session.setup()
            session.run_round()
            server = session._node_objects["server-0"]
            client = session._node_objects["client-1"]
            with pytest.raises(CheckpointError, match="role"):
                client.restore_checkpoint(server.checkpoint_path)
            with pytest.raises(CheckpointError, match="index"):
                client.restore_checkpoint(
                    session._node_objects["client-2"].checkpoint_path
                )

    def test_torn_append_restores_previous_barrier_bit_identically(self, tmp_path):
        """A node that crashed mid-append (its last line torn, its ack
        never sent) restarts from the previous barrier, and the
        transcript matches an unfaulted run."""
        def drive(session, hook=None):
            session.setup()
            session.post(0, b"meet at dawn")
            session.post(2, b"burn the ledger")
            records = []
            for n in range(5):
                if hook is not None:
                    hook(session, n)
                records.append(session.run_round())
            return [r.output.cleartext for r in records], session.delivered_messages(1)

        with journaled_session(tmp_path / "plain") as session:
            expected = drive(session)

        def crash(session, n):
            if n != 3:
                return
            victim = session.node_name("client", 1)
            path = session._node_objects[victim].checkpoint_path
            session.kill_node("client", 1)
            session.wait_dark(victim)
            durable = read_journal(path, kind="node")
            with open(path, "ab") as handle:
                handle.write(b'\n{"body":{"delta":{"state.received":{"extend":[[3,')
            assert read_journal(path, kind="node") == durable
            session.restart_node("client", 1)
            session.wait_live(victim)

        with journaled_session(tmp_path / "torn") as session:
            assert drive(session, crash) == expected
            assert session.metrics()["counters"]["chaos.nodes_restarted"] == 1
