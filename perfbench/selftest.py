"""The benchmark's own self-test, at a tiny size (about a minute on 2 CPUs).

Runs tiny workloads on the toy ``test-256`` group through every driver,
traced and untraced, and checks that the gate catches wrong answers: a
tampered output digest, a lost message, a duplicated message.  Then it
checks the compare mode's verdicts on synthetic records.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import sys

from perfbench import compare
from perfbench.bench import END_TO_END_UNITS, run_workload
from perfbench.workloads import (
    Driver,
    GateError,
    Workload,
    check_delivery,
    check_twin,
    close_session,
    output_digest,
    timed_setup,
)

TINY = {
    "inproc": Workload("selftest-chat-inproc", "inproc", "test-256", 8, "chat", servers=2),
    "tcp": Workload("selftest-chat-tcp", "tcp", "test-256", 8, "chat", servers=2, twin=True),
    "ckpt": Workload("selftest-bulk-loopback-ckpt", "loopback", "test-256", 2, "bulk",
                     servers=2, checkpoint=True, slot_payload=4096),
}


def _expect_gate_error(what: str, fn) -> None:
    try:
        fn()
    except GateError:
        return
    raise AssertionError(f"the gate did not catch {what}")


def _check_runs(out_dir: str, spec: dict) -> None:
    per_layer = {m["name"] for m in spec["per_layer"]}
    for kind, workload in TINY.items():
        plain = run_workload(workload, seed=3, seconds=0.5, trace=False, out_dir=out_dir)
        assert plain["correct"] and plain["attempted"] >= 1, kind
        assert set(plain["metrics"]) == set(END_TO_END_UNITS), kind
        assert all(entry["value"] > 0 for entry in plain["metrics"].values()), kind
        if workload.twin:
            assert plain["gate"]["output_digest"] == plain["gate"]["twin_digest"]
        traced = run_workload(workload, seed=3, seconds=1.0, trace=True, out_dir=out_dir)
        metrics = {name: entry["value"] for name, entry in traced["metrics"].items()}
        assert set(metrics) == per_layer, sorted(set(metrics) ^ per_layer)
        assert metrics["consensus.views_changed"] == 0, kind
        if workload.driver == "inproc":
            assert metrics["codec.calls_per_round"] == 0, kind
            assert metrics["transport.frames_per_round"] == 0, kind
        else:
            assert metrics["codec.calls_per_round"] > 0, kind
            assert metrics["transport.frames_per_round"] > 0, kind
        assert (metrics["persist.writes_per_round"] > 0) == workload.checkpoint, kind
        assert metrics["round.unattributed_s_per_round"] >= 0, kind


def _check_gate_negatives(out_dir: str) -> None:
    workload = TINY["inproc"]
    scratch = os.path.join(out_dir, "tmp")
    os.makedirs(scratch, exist_ok=True)
    session, _ = timed_setup(workload, 5, "inproc", scratch)
    try:
        driver = Driver(session, workload, 5)
        for _ in range(6):
            driver.play(post=True)
        seen = driver.drain()
    finally:
        close_session(session)
    digest = output_digest(driver.records)

    # A tampered round output changes the digest, and the twin check fails.
    victim = next(i for i, rec in enumerate(driver.records) if rec.output is not None)
    record = driver.records[victim]
    flipped = bytes([record.output.cleartext[0] ^ 1]) + record.output.cleartext[1:]
    tampered = list(driver.records)
    tampered[victim] = dataclasses.replace(
        record, output=dataclasses.replace(record.output, cleartext=flipped)
    )
    _expect_gate_error("a tampered output digest",
                       lambda: check_twin(output_digest(tampered), digest))
    check_twin(output_digest(list(driver.records)), digest)

    # Delivery must be exact: nothing lost, nothing twice, nothing foreign.
    assert seen, "the tiny run delivered nothing"
    check_delivery(driver.due, seen)
    _expect_gate_error("a lost message", lambda: check_delivery(driver.due, seen[1:]))
    _expect_gate_error("a duplicated message", lambda: check_delivery(driver.due, seen + seen[:1]))
    forged = [(seen[0][0], seen[0][1], b"forged")] + seen[1:]
    _expect_gate_error("an altered message", lambda: check_delivery(driver.due, forged))


def _record(workload: str, seed: int, values: dict) -> dict:
    return {
        "header": {"workload": workload, "seed": seed, "trace": False},
        "metrics": {name: {"value": value, "unit": "s"} for name, value in values.items()},
    }


def _check_compare(spec: dict) -> None:
    bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}["round_p50_s"]
    base = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]
    same = [v * 1.002 for v in base]
    slower = [v * (1 + 2 * bound) for v in base]
    faster = [v * 0.5 for v in base]
    noisy = [1.0 + (bound * 3 if i % 2 else -bound * 3) for i in range(10)]
    pairs = lambda a, b: list(zip(a, b))  # noqa: E731
    cases = {
        "within-bound": same,
        "worse": slower,
        "better": faster,
        "unresolved": noisy,
    }
    for expected, values in cases.items():
        got = compare.verdict(base, values, pairs(base, values), "lower", bound)
        assert got == expected, (expected, got)


def main(out_dir: str) -> int:
    out_dir = os.path.join(out_dir, "selftest")
    shutil.rmtree(out_dir, ignore_errors=True)
    spec = compare.load_spec()
    try:
        _check_compare(spec)
        _check_gate_negatives(out_dir)
        _check_runs(out_dir, spec)
    except (AssertionError, GateError) as exc:
        sys.stderr.write(f"perfbench self-test FAILED: {exc!r}\n")
        return 1
    print("perfbench self-test ok")
    return 0
