"""Workloads, their seeded message schedules, the round driver and its gate.

Rounds run in a closed loop: round r+1 starts only when round r returns,
which is how ``run_round`` drives every session type.  Message arrivals
are open loop on a schedule counted in rounds, not wall time: before
round r the driver posts every message due at r whether or not earlier
ones were delivered.  Counting in rounds keeps outputs deterministic, so
a TCP run can be checked bit for bit against its in-process twin.
"""

from __future__ import annotations

import hashlib
import os
import random
import shutil
import statistics
import time
from dataclasses import asdict, dataclass

#: Rounds run before the timed window: the request-bit round that opens a
#: slot, the round that opens it, and one more so the slot-opening backlog
#: has drained.
WARMUP_ROUNDS = 3
#: Rounds the driver may spend after the window delivering what is queued.
MAX_DRAIN_ROUNDS = 24
#: Setups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Cut-and-choose bridges in the setup key shuffle.  The program's default
#: (16) makes one 32-client setup take ~15 s on 2 CPUs, and a run repeats
#: setup; 2 keeps every step of the shuffle and its proof.
SOUNDNESS_BITS = 2
#: Percentile reported as ``round_tail_s``.  A 10 s window holds 16-31
#: rounds, so p75 has 4-7 rounds beyond it: the highest percentile that
#: is still a tail on every workload.
TAIL_PERCENTILE = 75


class GateError(Exception):
    """A correctness check failed: the run's numbers must not be reported."""


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a pinned group, a driver and a schedule."""

    name: str
    driver: str  # "inproc" (DissentSession), "tcp" or "loopback" (NetworkedSession)
    group: str
    clients: int
    schedule: str  # "chat" or "bulk"
    servers: int = 3
    checkpoint: bool = False
    twin: bool = False  # outputs must equal an in-process run's
    slot_payload: int = 128


#: Why each workload exists, and which layers it loads or skips, is in
#: README.md beside this file.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("chat-ec25519-c32-inproc", "inproc", "ec25519", 32, "chat"),
        Workload("chat-ec25519-c32-tcp", "tcp", "ec25519", 32, "chat", twin=True),
        Workload("bulk-ec25519-c8-loopback-ckpt", "loopback", "ec25519", 8, "bulk",
                 checkpoint=True, slot_payload=4096),
        Workload("chat-modp1536-c8-inproc", "inproc", "modp1536", 8, "chat"),
    )
}


# ---------------------------------------------------------------------------
# Seeded schedules
# ---------------------------------------------------------------------------


def posters(seed: int, spec: Workload) -> list[int]:
    """Chat senders: about one client in eight, chosen by the seed."""
    rng = random.Random(f"{seed}|chat-posters|{spec.clients}")
    return sorted(rng.sample(range(spec.clients), max(1, spec.clients // 8)))


def messages_for_round(seed: int, spec: Workload, r: int) -> list[tuple[int, bytes]]:
    """(client, message) pairs due before round ``r``.

    Every message starts with a tag naming its round and sender, so all
    messages of a run are distinct and delivery can be checked exactly.
    The schedule depends on the seed, the schedule kind and the group
    size, never on the driver, so twins post identical traffic.
    """
    rng = random.Random(f"{seed}|{spec.schedule}|{spec.clients}|{r}")
    due = []
    if spec.schedule == "chat":
        # Each chat sender posts one short message every round.  Two fit
        # the 128-byte slot, so the backlog left while the slot opens
        # drains at once, and the steady rate (one) stays below capacity.
        for client in posters(seed, spec):
            size = rng.randint(32, 48)
            due.append((client, _tag(r, client) + rng.randbytes(size - 8)))
    elif r == 0:
        # A short hello asks every bulk slot open (round 0 carries the
        # request bit, round 1 opens the slot and delivers the hello).
        for client in range(spec.clients):
            due.append((client, _tag(r, client) + rng.randbytes(8)))
    elif r >= 2:
        # Then every client posts one ~4 KB chunk per round into its 4 KB
        # slot: the slot is full every round and nothing queues.
        for client in range(spec.clients):
            size = rng.randint(3968, spec.slot_payload - 2)
            due.append((client, _tag(r, client) + rng.randbytes(size - 8)))
    return due


def _tag(r: int, client: int) -> bytes:
    return r.to_bytes(4, "big") + client.to_bytes(2, "big") + b"\xd1\x55"


# ---------------------------------------------------------------------------
# Sessions
# ---------------------------------------------------------------------------


def build_session(spec: Workload, seed: int, driver: str, scratch: str):
    """Build (not set up) a session for ``spec`` on ``driver``.

    The group is pinned here and telemetry is on, as ``NetworkedSession``
    defaults, so neither ``DISSENT_GROUP_BACKEND`` nor ``DISSENT_TELEMETRY``
    can steer a workload.
    """
    from repro.core import DissentSession, Policy
    from repro.net.runner import NetworkedSession

    policy = Policy(
        group_backend=spec.group,
        shuffle_soundness_bits=SOUNDNESS_BITS,
        initial_slot_payload=spec.slot_payload,
    )
    if driver == "inproc":
        return DissentSession.build(
            spec.group, spec.servers, spec.clients, policy, seed=seed, telemetry=True
        )
    checkpoint_dir = None
    if spec.checkpoint:
        checkpoint_dir = os.path.join(scratch, f"ckpt-{time.monotonic_ns()}")
    return NetworkedSession.build(
        spec.group, spec.servers, spec.clients, policy, seed=seed, mode=driver,
        telemetry=True, checkpoint_dir=checkpoint_dir,
    )


def close_session(session) -> None:
    close = getattr(session, "close", None)
    if close is not None:
        close()
    checkpoint_dir = getattr(session, "checkpoint_dir", None)
    if checkpoint_dir:
        shutil.rmtree(checkpoint_dir, ignore_errors=True)


def timed_setup(spec: Workload, seed: int, driver: str, scratch: str):
    """Build and set up a session; returns (session, seconds)."""
    start = time.perf_counter()
    session = build_session(spec, seed, driver, scratch)
    try:
        session.setup()
    except BaseException:
        close_session(session)
        raise
    return session, time.perf_counter() - start


# ---------------------------------------------------------------------------
# Driving rounds
# ---------------------------------------------------------------------------


class Driver:
    """Runs rounds on one session and keeps the per-round timeline."""

    def __init__(self, session, spec: Workload, seed: int) -> None:
        self.session = session
        self.spec = spec
        self.seed = seed
        self.records = []
        #: round -> (boundary, start, end): boundary is when the previous
        #: round returned, before this round's messages were posted.
        self.times: dict[int, tuple[float, float, float]] = {}
        self.due: dict[bytes, int] = {}

    def play(self, post: bool, before=None, after=None) -> None:
        """Post round r's messages (if ``post``), then run round r."""
        r = self.session.round_number
        boundary = time.perf_counter()
        if post:
            for client, message in messages_for_round(self.seed, self.spec, r):
                self.session.post(client, message)
                self.due[message] = r
        if before is not None:
            before(r)
        start = time.perf_counter()
        try:
            record = self.session.run_round()
        finally:
            end = time.perf_counter()
            if after is not None:
                after(r)
        if record.round_number != r:
            raise GateError(f"round {r} returned a record for {record.round_number}")
        self.records.append(record)
        self.times[r] = (boundary, start, end)

    def drain(self) -> list[tuple[int, int, bytes]]:
        """Run rounds without posting until every due message is delivered."""
        seen = self.session.delivered_messages(0)
        for _ in range(MAX_DRAIN_ROUNDS):
            if len(seen) >= len(self.due):
                break
            self.play(post=False)
            seen = self.session.delivered_messages(0)
        return seen


def output_digest(records) -> str:
    """SHA-256 over every round's status, participation, output and signatures."""
    h = hashlib.sha256()
    for record in records:
        h.update(f"{record.round_number}|{record.status.value}|{record.participation}|".encode())
        output = record.output
        if output is None:
            h.update(b"-")
            continue
        h.update(len(output.cleartext).to_bytes(8, "big"))
        h.update(output.cleartext)
        for signature in output.signatures:
            h.update(f"{signature.t}:{signature.s};".encode())
    return h.hexdigest()


def check_certificates(session, records) -> None:
    """Every completed round carries a certificate that verifies offline."""
    for record in records:
        if not record.completed:
            continue
        if record.certificate is None:
            raise GateError(f"round {record.round_number} has no certificate")
        try:
            record.certificate.verify(session.definition)
        except Exception as exc:
            raise GateError(
                f"round {record.round_number} certificate does not verify: {exc}"
            ) from exc


def check_delivery(due: dict[bytes, int], seen) -> dict[bytes, int]:
    """Every scheduled message delivered byte-exact exactly once.

    Returns message -> round whose output first held it.
    """
    first: dict[bytes, int] = {}
    for round_number, _slot, message in seen:
        message = bytes(message)
        if message in first:
            raise GateError(f"message delivered twice (rounds {first[message]} and {round_number})")
        if message not in due:
            raise GateError(f"unscheduled message delivered in round {round_number}")
        first[message] = round_number
    missing = [m for m in due if m not in first]
    if missing:
        raise GateError(f"{len(missing)} of {len(due)} scheduled messages never delivered")
    return first


def check_twin(digest: str, twin_digest: str) -> None:
    if digest != twin_digest:
        raise GateError(
            f"output digest {digest[:16]} differs from the in-process twin's {twin_digest[:16]}"
        )


def run_twin(spec: Workload, seed: int, rounds: int, post_rounds: int, scratch: str) -> str:
    """Replay the schedule on an in-process session; returns its digest."""
    session, _ = timed_setup(spec, seed, "inproc", scratch)
    try:
        driver = Driver(session, spec, seed)
        for r in range(rounds):
            driver.play(post=r < post_rounds)
        return output_digest(driver.records)
    finally:
        close_session(session)


def percentile(values, p: float) -> float:
    """Linear-interpolated percentile, ``p`` in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        raise GateError("no samples")
    k = (len(ordered) - 1) * p / 100.0
    lo = int(k)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (k - lo)


def params(spec: Workload) -> dict:
    out = asdict(spec)
    out["warmup_rounds"] = WARMUP_ROUNDS
    out["setup_repeats"] = SETUP_REPEATS
    out["tail_percentile"] = TAIL_PERCENTILE
    out["shuffle_soundness_bits"] = SOUNDNESS_BITS
    out["posters"] = None if spec.schedule != "chat" else max(1, spec.clients // 8)
    return out


def mean(values) -> float:
    return statistics.fmean(values) if values else 0.0
