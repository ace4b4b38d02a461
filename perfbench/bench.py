"""One benchmark run: set up, warm up, measure a window, drain, gate, report."""

from __future__ import annotations

import datetime
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from perfbench.ledger import Ledger, layer_of, self_time_table
from perfbench.workloads import (
    SETUP_REPEATS,
    TAIL_PERCENTILE,
    WARMUP_ROUNDS,
    WORKLOADS,
    Driver,
    GateError,
    Workload,
    check_certificates,
    check_delivery,
    check_twin,
    close_session,
    mean,
    output_digest,
    params,
    percentile,
    run_twin,
    timed_setup,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: End-to-end metrics with their units, in report order.
END_TO_END_UNITS = {
    "setup_s": "s",
    "round_p50_s": "s",
    "round_tail_s": "s",
    "rounds_per_s": "1/s",
    "msg_latency_p50_s": "s",
    "goodput_Bps": "B/s",
    "round_ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}

#: Slack for the accounting identity: summed self time may exceed the
#: round's wall time by this much (clock reads around a round's edges).
IDENTITY_SLACK_S = 2e-3


def _git_rev() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _src_digest() -> str:
    """SHA-256 over the program's sources, for runs outside a git checkout."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as handle:
                    h.update(handle.read())
    return h.hexdigest()


def header(spec: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """The one header every result record carries."""
    return {
        "workload": spec.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_rev": _git_rev(),
        "src_sha256": _src_digest(),
        "backend": spec.group,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "params": params(spec),
        "started_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def _peak_rss_mb() -> float:
    # ru_maxrss is kibibytes on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(spec: Workload, seed: int, seconds: float, trace: bool, out_dir: str) -> dict:
    """Run one workload; raises :class:`GateError` when an output is wrong."""
    scratch = os.path.join(out_dir, "tmp", f"{spec.name}-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    tempfile.tempdir = scratch
    try:
        result = _run(spec, seed, seconds, trace, out_dir, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    record_dir = os.path.join(out_dir, "results", spec.name)
    os.makedirs(record_dir, exist_ok=True)
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%S")
    path = os.path.join(record_dir, f"seed{seed}-trace{int(trace)}-{stamp}-{os.getpid()}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
    print("header " + json.dumps(result["header"], sort_keys=True))
    for name, entry in result["metrics"].items():
        print(f"{name:<40} {entry['value']:>16.6g} {entry['unit']}")
    print(f"record {path}")
    return result


def _run(spec, seed, seconds, trace, out_dir, scratch) -> dict:
    ledger = Ledger() if trace else None
    if ledger is not None:
        ledger.install()
        ledger.bucket = "setup"
        ledger.active = True
    try:
        session, first_setup = timed_setup(spec, seed, spec.driver, scratch)
    finally:
        if ledger is not None:
            ledger.active = False
            ledger.bucket = None
            ledger.uninstall()

    traced_rounds: list[int] = []
    plain_rounds: list[int] = []

    def before(r: int) -> None:
        if ledger is not None and traced_rounds and traced_rounds[-1] == r:
            ledger.install()
            ledger.bucket = r
            ledger.active = True

    def after(r: int) -> None:
        if ledger is not None and ledger.active:
            ledger.active = False
            ledger.bucket = None
            ledger.uninstall()

    try:
        driver = Driver(session, spec, seed)
        for _ in range(WARMUP_ROUNDS):
            driver.play(post=True)
        window: list[int] = []
        window_start = time.perf_counter()
        while time.perf_counter() - window_start < seconds:
            r = session.round_number
            # Traced runs alternate traced and untraced rounds, so slow
            # drift (checkpoints grow with rounds) hits both halves alike.
            (traced_rounds if trace and len(window) % 2 else plain_rounds).append(r)
            driver.play(post=True, before=before, after=after)
            window.append(r)
        window_end = time.perf_counter()
        post_rounds = session.round_number
        seen = driver.drain()
        rss = _peak_rss_mb()
        views_changed = None
        if trace:
            counters = session.metrics().get("counters", {})
            views_changed = counters.get("consensus.views_changed", 0)
        first = check_delivery(driver.due, seen)
        check_certificates(session, driver.records)
        digest = output_digest(driver.records)
    finally:
        close_session(session)

    setups = [first_setup]
    if not trace:
        for _ in range(SETUP_REPEATS - 1):
            extra, elapsed = timed_setup(spec, seed, spec.driver, scratch)
            close_session(extra)
            setups.append(elapsed)
    twin_digest = None
    if spec.twin:
        twin_digest = run_twin(spec, seed, len(driver.records), post_rounds, scratch)
        check_twin(digest, twin_digest)

    by_round = {rec.round_number: rec for rec in driver.records}
    window_set = set(window)
    window_messages = [m for m, r in driver.due.items() if r in window_set]
    if spec.schedule == "bulk":
        late = [m for m in window_messages if first[m] != driver.due[m]]
        if late:
            raise GateError(
                f"bulk backlog: {len(late)} window chunks missed the round they were due"
            )
    completed = [r for r in window if by_round[r].completed]
    failed = len(window) - len(completed)

    hdr = header(spec, seed, seconds, trace)
    result = {
        "header": hdr,
        "correct": True,
        "attempted": len(window),
        "failed": failed,
        "gate": {
            "rounds_total": len(driver.records),
            "messages_scheduled": len(driver.due),
            "messages_delivered": len(first),
            "certificates_verified": sum(1 for rec in driver.records if rec.completed),
            "output_digest": digest,
            "twin_digest": twin_digest,
        },
    }
    if not trace:
        durations = [driver.times[r][2] - driver.times[r][1] for r in window]
        latencies = [
            driver.times[first[m]][2] - driver.times[driver.due[m]][0]
            for m in window_messages
        ]
        delivered_bytes = sum(len(m) for m, r in first.items() if r in window_set)
        wall = window_end - window_start
        values = {
            "setup_s": statistics.median(setups),
            "round_p50_s": statistics.median(durations),
            "round_tail_s": percentile(durations, TAIL_PERCENTILE),
            "rounds_per_s": len(completed) / wall,
            "msg_latency_p50_s": statistics.median(latencies),
            "goodput_Bps": delivered_bytes / wall,
            "round_ok_ratio": len(completed) / len(window),
            "peak_rss_mb": rss,
        }
        result["metrics"] = {
            name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }
        result["samples"] = {
            "setups_s": setups,
            "round_s": durations,
            "window_rounds": len(window),
            "window_messages": len(window_messages),
            "tail_percentile": TAIL_PERCENTILE,
        }
    else:
        result["metrics"] = _ledger_metrics(ledger, driver, traced_rounds, plain_rounds,
                                            views_changed)
        trace_dir = os.path.join(out_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        base = os.path.join(trace_dir, f"{spec.name}-seed{seed}")
        rounds = {r: (driver.times[r][1], driver.times[r][2] - driver.times[r][1])
                  for r in traced_rounds}
        ledger.chrome_trace(rounds, base + ".trace.json")
        wall = mean([driver.times[r][2] - driver.times[r][1] for r in traced_rounds])
        table = self_time_table(ledger.merged(traced_rounds), len(traced_rounds), wall)
        with open(base + ".layers.txt", "w", encoding="utf-8") as handle:
            handle.write(table + "\n")
        print(table)
        print(f"chrome trace {base}.trace.json")
    return result


def _ledger_metrics(ledger: Ledger, driver: Driver, traced: list[int], plain: list[int],
                    views_changed) -> dict:
    """The per-layer ledger, normalised per traced round (or per setup)."""
    if not traced or not plain:
        raise GateError("a traced run needs at least two window rounds")
    n = len(traced)
    stats = ledger.merged(traced)
    setup = ledger.merged(["setup"])

    def total(field: int, pick, source=stats) -> float:
        return sum(entry[field] for name, entry in source.items() if pick(name))

    def suffix(text: str):
        return lambda name: name.startswith("crypto") and name.endswith(text)

    def prefix(text: str):
        return lambda name: name.startswith(text)

    def layer(text: str):
        return lambda name: layer_of(name) == text

    walls = {r: driver.times[r][2] - driver.times[r][1] for r in traced + plain}
    unattributed = []
    for r in traced:
        self_sum, root_sum = ledger.self_time(r)
        if abs(self_sum - root_sum) > 1e-6 * max(1.0, root_sum) or root_sum > walls[r] + IDENTITY_SLACK_S:
            raise GateError(
                f"round {r}: self times ({self_sum:.6f} s) and root spans "
                f"({root_sum:.6f} s) do not fit the round's {walls[r]:.6f} s"
            )
        unattributed.append(walls[r] - self_sum)

    sizes = ledger.checkpoint_sizes
    values = {
        "crypto.self_s_per_round": (total(1, layer("crypto")) / n, "s"),
        "crypto.multiexp.calls_per_round": (total(0, suffix(".multiexp")) / n, "count"),
        "crypto.multiexp.self_s_per_round": (total(1, suffix(".multiexp")) / n, "s"),
        "crypto.sign.self_s_per_round": (total(1, prefix("crypto:schnorr.sign")) / n, "s"),
        "crypto.exp_fixed.calls_per_round": (total(0, suffix(".exp_fixed")) / n, "count"),
        "crypto.exp_fixed.self_s_per_round": (total(1, suffix(".exp_fixed")) / n, "s"),
        "crypto.is_element.calls_per_round": (total(0, suffix(".is_element")) / n, "count"),
        "crypto.is_element.self_s_per_round": (total(1, suffix(".is_element")) / n, "s"),
        "crypto.is_element.modp_self_s_per_round": (
            total(1, prefix("crypto:SchnorrGroup.is_element")) / n, "s"),
        "crypto.shuffle.setup_self_s": (total(5, prefix("crypto.shuffle:"), setup), "s"),
        "core.key_shuffle.setup_s": (
            total(2, prefix("core.key_shuffle:keyshuffle.run_key_shuffle"), setup), "s"),
        "prng.pad_bytes_per_round": (total(4, layer("prng")) / n, "B"),
        "prng.self_s_per_round": (total(1, layer("prng")) / n, "s"),
        "bytesops.xor_bytes_per_round": (total(4, layer("bytesops")) / n, "B"),
        "bytesops.xor.self_s_per_round": (total(1, layer("bytesops")) / n, "s"),
        "codec.calls_per_round": (total(3, layer("codec")) / n, "count"),
        "codec.bytes_per_round": (total(4, layer("codec")) / n, "B"),
        "codec.self_s_per_round": (total(1, layer("codec")) / n, "s"),
        "transport.frames_per_round": (total(3, layer("transport")) / n, "count"),
        "transport.bytes_per_round": (total(4, layer("transport")) / n, "B"),
        "consensus.self_s_per_round": (total(1, layer("consensus")) / n, "s"),
        "consensus.views_changed": (float(views_changed or 0), "count"),
        "core.client.self_s_per_round": (total(1, prefix("core.client:")) / n, "s"),
        "core.server.self_s_per_round": (total(1, prefix("core.server:")) / n, "s"),
        "persist.writes_per_round": (
            total(0, prefix("persist:checkpoint.write_checkpoint")) / n, "count"),
        "persist.write.self_s_per_round": (total(1, layer("persist")) / n, "s"),
        "persist.checkpoint_bytes": (mean(list(sizes.values())), "B"),
        "obs.self_s_per_round": (total(1, layer("obs")) / n, "s"),
        "round.unattributed_s_per_round": (mean(unattributed), "s"),
        "tracing_overhead_ratio": (
            statistics.median(walls[r] for r in traced)
            / statistics.median(walls[r] for r in plain), "ratio"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def run_all(seed: int, seconds: float, trace: int, out_dir: str) -> int:
    """Run every workload, each in its own process, and print one table."""
    script = os.path.join(ROOT, "perfbench", "run.py")
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, script, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace), "--out", out_dir],
            capture_output=True, text=True,
        )
        sys.stdout.write(f"== {name}\n")
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stdout.write(proc.stderr)
            merged["correct"] = False
            status = 1
            continue
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        result = json.loads(lines[-1])
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(merged))
    return status
