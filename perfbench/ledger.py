"""Per-layer ledger: spans around the public functions of each layer.

The ledger wraps functions from the outside (the program is not edited):
each wrapper is installed at every name a caller binds, so
``repro.core.server.xor_many`` and ``repro.util.bytesops.xor_many`` both
record.  A span's self time is its duration minus the spans it called,
kept on a per-thread stack.  Asynchronous transport calls get counts
only, so coroutines interleaving on the event loop never corrupt a stack.

Spans are attributed to the *bucket* the driver set when they started: a
round number, ``"setup"``, or ``None`` (between rounds).  Aggregates are
kept per bucket; raw spans are kept for the Chrome trace of the traced
rounds.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
import time
from collections import defaultdict

#: Span-name prefix per layer.  ``core.client`` / ``core.server`` /
#: ``core.key_shuffle`` are sub-layers of ``core``.
LAYERS = (
    "crypto",
    "prng",
    "bytesops",
    "codec",
    "transport",
    "consensus",
    "core",
    "persist",
    "obs",
)

#: Public server methods that belong to the consensus stage, not core.
CONSENSUS_SERVER_METHODS = ("propose_round", "vote_on_proposal", "view_change_envelope")

#: Codec calls count only when made from the network drivers (or from
#: inside a codec call they made).  Core code, and ``net.message`` which
#: signs envelopes in-process too, encodes bodies with the same helpers;
#: such calls stay in their caller's self time.
CODEC_CALLERS = frozenset({"repro.net.node", "repro.net.runner", "repro.net.transport"})

#: At most this many raw spans are kept for the Chrome trace.
MAX_TRACE_SPANS = 200_000


def _size_of(value) -> int:
    if isinstance(value, (bytes, bytearray, memoryview)):
        return len(value)
    return 0


def _result_or_first_bytes(args, kwargs, result) -> int:
    size = _size_of(result)
    if size:
        return size
    for arg in args:
        size = _size_of(arg)
        if size:
            return size
    return 0


def _result_bytes(args, kwargs, result) -> int:
    return _size_of(result)


def _xor_operand_bytes(args, kwargs, result) -> int:
    operands = args[0] if args else kwargs.get("operands", ())
    if isinstance(operands, (list, tuple)):
        return sum(len(op) for op in operands)
    return _size_of(result)


class Ledger:
    """Records spans and counts while :attr:`active` is set."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.active = False
        self.bucket = None
        self._local = threading.local()
        self._installed: list[tuple[object, str, object]] = []
        self._plan: list[tuple[object, str, object]] | None = None
        # bucket -> span name -> [calls, self_s, incl_s, outer_calls,
        # outer_bytes, outer_incl_s]; "outer" means no span of the same
        # layer is below it on the stack, so nested calls count once.
        self.stats: dict = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0.0, 0, 0, 0.0]))
        # bucket -> [sum of self_s, sum of root durations]
        self.totals: dict = defaultdict(lambda: [0.0, 0.0])
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        self.checkpoint_sizes: dict[str, int] = {}
        self._tids: dict[int, int] = {}

    # -- recording --------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str, layer: str, size=None, on_result=None, callers=None):
        """Sync wrapper recording one span per call of ``fn``.

        With ``callers`` set, only calls from those modules, or from inside
        a recorded span of the same layer, record.
        """
        ledger = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not ledger.active:
                return fn(*args, **kwargs)
            stack = ledger._stack()
            if (
                callers is not None
                and not (stack and stack[-1][1] == layer)
                and sys._getframe(1).f_globals.get("__name__") not in callers
            ):
                return fn(*args, **kwargs)
            # frame: [child seconds, layer]
            frame = [0.0, layer]
            outer = not any(entry[1] == layer for entry in stack)
            bucket = ledger.bucket
            stack.append(frame)
            start = ledger.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = ledger.clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
            nbytes = size(args, kwargs, result) if (size and outer) else 0
            if on_result is not None:
                on_result(args, kwargs, result)
            ledger._record(bucket, name, start, duration, duration - frame[0],
                           outer, nbytes, not stack)
            return result

        return traced

    def wrap_count(self, fn, name: str, size):
        """Wrapper for coroutine functions: counts calls and bytes only."""
        ledger = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if ledger.active:
                entry = ledger.stats[ledger.bucket][name]
                entry[0] += 1
                entry[3] += 1
                entry[4] += size(args, kwargs, None)
            return fn(*args, **kwargs)

        return counted

    def _record(self, bucket, name, start, duration, self_s, outer, nbytes, root):
        entry = self.stats[bucket][name]
        entry[0] += 1
        entry[1] += self_s
        entry[2] += duration
        if outer:
            entry[3] += 1
            entry[4] += nbytes
            entry[5] += duration
        totals = self.totals[bucket]
        totals[0] += self_s
        if root:
            totals[1] += duration
        if isinstance(bucket, int):
            if len(self.spans) < MAX_TRACE_SPANS:
                tid = self._tids.setdefault(threading.get_ident(), len(self._tids) + 1)
                self.spans.append((name, start, duration, self_s, nbytes, tid))
            else:
                self.dropped_spans += 1

    # -- installing wrappers ----------------------------------------------

    def _build_plan(self) -> list[tuple[object, str, object]]:
        """(owner, attribute, wrapper) for every binding to replace."""
        plan: list[tuple[object, str, object]] = []

        def add_method(cls, attr: str, name: str, layer: str, size=None, callers=None):
            fn = cls.__dict__[attr]
            plan.append((cls, attr, self.wrap(fn, name, layer, size, callers=callers)))

        def add_class(cls, layer: str, prefix: str, skip=(), extra=()):
            for attr, value in list(vars(cls).items()):
                if attr in skip or not inspect.isfunction(value):
                    continue
                if attr.startswith("_") and attr not in extra:
                    continue
                add_method(cls, attr, f"{prefix}:{cls.__name__}.{attr}", layer)

        def add_function(module_name: str, attr: str, name: str, layer: str,
                         size=None, on_result=None, callers=None):
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            wrapper = self.wrap(fn, name, layer, size, on_result, callers)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not mod_name.startswith("repro."):
                    continue
                for bound, value in list(vars(mod).items()):
                    if value is fn:
                        plan.append((mod, bound, wrapper))

        def add_module(module_name: str, layer: str, prefix: str, size=None,
                       skip=(), callers=None):
            module = importlib.import_module(module_name)
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or attr in skip:
                    continue
                if not inspect.isfunction(value) or value.__module__ != module_name:
                    continue
                if inspect.isgeneratorfunction(value) or inspect.iscoroutinefunction(value):
                    continue
                short = module_name.rsplit(".", 1)[1]
                add_function(module_name, attr, f"{prefix}:{short}.{attr}", layer, size,
                             callers=callers)

        import repro.net.runner  # noqa: F401  (loads every caller module)
        from repro.consensus import certificate, rotation
        from repro.core.client import DissentClient
        from repro.core.server import DissentServer
        from repro.crypto import ec25519, groups, keys, prng
        from repro.net import transport, wire
        from repro.obs import flight, metrics, propagate, trace

        # crypto: group backends and the protocols built on them.
        for cls in (groups.Group, groups.SchnorrGroup, ec25519.RistrettoGroup):
            add_class(cls, "crypto", "crypto")
        for cls in (keys.PrivateKey, keys.PublicKey):
            add_class(cls, "crypto", "crypto")
        for module in ("schnorr", "dh", "elgamal", "proofs", "hashing"):
            add_module(f"repro.crypto.{module}", "crypto", "crypto")
        add_module("repro.crypto.shuffle", "crypto", "crypto.shuffle")
        # prng: pad generation, sized by the pad bytes produced.
        add_module("repro.crypto.prng", "prng", "prng", size=_result_bytes)
        for attr in ("prefetch", "pair_stream"):
            add_method(prng.PadPrefetcher, attr, f"prng:PadPrefetcher.{attr}",
                       "prng", size=_result_bytes)
        # bytesops: XOR combining, sized by the operand bytes combined.
        for attr in ("xor_many", "xor_bytes"):
            add_function("repro.util.bytesops", attr, f"bytesops:bytesops.{attr}",
                         "bytesops", size=_xor_operand_bytes)
        # codec: wire and serialization helpers, recorded on network-driver calls.
        add_module("repro.net.wire", "codec", "codec", size=_result_or_first_bytes,
                   callers=CODEC_CALLERS)
        add_method(wire.FrameDecoder, "feed", "codec:FrameDecoder.feed", "codec",
                   size=_result_or_first_bytes, callers=CODEC_CALLERS)
        add_module("repro.util.serialization", "codec", "codec",
                   size=_result_or_first_bytes, callers=CODEC_CALLERS)
        # transport: coroutine sends, counted as frames and bytes.
        for cls in (transport.TcpTransport, transport.LoopbackTransport):
            plan.append((cls, "send", self.wrap_count(
                cls.__dict__["send"], "transport:send",
                lambda args, kwargs, result: _size_of(args[1] if len(args) > 1 else kwargs.get("payload")),
            )))
        # consensus: certificates, rotation and the server's consensus stage.
        add_module("repro.consensus.certificate", "consensus", "consensus")
        add_module("repro.consensus.rotation", "consensus", "consensus")
        for cls in (certificate.RoundCertificate, certificate.EquivocationProof,
                    rotation.LeaderSchedule):
            add_class(cls, "consensus", "consensus")
        for attr in CONSENSUS_SERVER_METHODS:
            add_method(DissentServer, attr, f"consensus:DissentServer.{attr}", "consensus")
        # core: the client and server algorithms and the key shuffle.
        add_class(DissentClient, "core", "core.client")
        add_class(DissentServer, "core", "core.server", skip=CONSENSUS_SERVER_METHODS)
        add_module("repro.core.keyshuffle", "core", "core.key_shuffle")
        # persist: checkpoint files and the state codecs feeding them.
        add_function("repro.persist.checkpoint", "write_checkpoint",
                     "persist:checkpoint.write_checkpoint", "persist",
                     on_result=self._note_checkpoint)
        add_function("repro.persist.checkpoint", "read_checkpoint",
                     "persist:checkpoint.read_checkpoint", "persist")
        add_module("repro.persist.codec", "persist", "persist")
        # obs: the program's own telemetry.
        for cls in (metrics.Counter, metrics.Gauge, metrics.Histogram,
                    metrics.MetricsRegistry, trace.Tracer, flight.FlightRecorder,
                    propagate.TraceContext):
            add_class(cls, "obs", "obs")
        add_class(trace.Span, "obs", "obs", extra=("__enter__", "__exit__"))
        add_module("repro.obs.propagate", "obs", "obs")
        return plan

    def _note_checkpoint(self, args, kwargs, result) -> None:
        path = args[0] if args else kwargs.get("path")
        self.checkpoint_sizes[str(path)] = int(result)

    def install(self) -> None:
        """Replace every planned binding with its wrapper (idempotent)."""
        if self._installed:
            return
        if self._plan is None:
            self._plan = self._build_plan()
        for owner, attr, wrapper in self._plan:
            original = (owner.__dict__ if isinstance(owner, type) else vars(owner))[attr]
            self._installed.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every original binding."""
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed = []

    # -- reading ------------------------------------------------------------

    def merged(self, buckets) -> dict:
        """Span name -> stats entry summed over ``buckets``."""
        out: dict = defaultdict(lambda: [0, 0.0, 0.0, 0, 0, 0.0])
        for bucket in buckets:
            for name, entry in self.stats.get(bucket, {}).items():
                acc = out[name]
                for k in range(6):
                    acc[k] += entry[k]
        return out

    def self_time(self, bucket) -> tuple[float, float]:
        """(sum of self times, sum of root-span durations) in one bucket."""
        totals = self.totals.get(bucket, (0.0, 0.0))
        return totals[0], totals[1]

    def chrome_trace(self, rounds: dict, path: str) -> None:
        """Write kept spans plus driver round spans as Chrome trace events.

        The same ``{"traceEvents": [...]}`` "X"-event layout the program's
        own Perfetto export uses; times are microseconds.
        """
        events = [
            {"ph": "M", "pid": 1, "tid": 0, "name": "thread_name",
             "args": {"name": "driver rounds"}},
        ]
        for r, (start, duration) in sorted(rounds.items()):
            events.append({"ph": "X", "pid": 1, "tid": 0, "name": f"round {r}",
                           "cat": "round", "ts": start * 1e6, "dur": duration * 1e6})
        for name, start, duration, self_s, nbytes, tid in self.spans:
            events.append({
                "ph": "X", "pid": 1, "tid": tid, "name": name,
                "cat": name.split(":", 1)[0].split(".", 1)[0],
                "ts": start * 1e6, "dur": duration * 1e6,
                "args": {"self_us": round(self_s * 1e6, 3), "bytes": nbytes},
            })
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": {"dropped_spans": self.dropped_spans}},
                      handle, separators=(",", ":"))


def layer_of(name: str) -> str:
    """Top-level layer of a span name (``core.client:...`` -> ``core``)."""
    return name.split(":", 1)[0].split(".", 1)[0]


def self_time_table(stats: dict, rounds: int, wall_per_round: float) -> str:
    """Per-layer and per-function self time per round, as text."""
    per_layer: dict[str, float] = defaultdict(float)
    for name, entry in stats.items():
        per_layer[layer_of(name)] += entry[1]
    lines = [f"{'layer':<12} {'self ms/round':>14} {'share':>7}"]
    attributed = 0.0
    for layer in LAYERS:
        value = per_layer.get(layer, 0.0) / max(rounds, 1)
        attributed += value
        share = value / wall_per_round if wall_per_round else 0.0
        lines.append(f"{layer:<12} {value * 1e3:>14.3f} {share:>7.1%}")
    rest = wall_per_round - attributed
    lines.append(f"{'unattributed':<12} {rest * 1e3:>14.3f} "
                 f"{(rest / wall_per_round if wall_per_round else 0.0):>7.1%}")
    lines.append(f"{'round wall':<12} {wall_per_round * 1e3:>14.3f}")
    lines.append("")
    lines.append(f"{'span':<52} {'calls/rnd':>10} {'self ms/rnd':>12}")
    top = sorted(stats.items(), key=lambda item: -item[1][1])[:25]
    for name, entry in top:
        lines.append(f"{name:<52} {entry[0] / max(rounds, 1):>10.1f} "
                     f"{entry[1] / max(rounds, 1) * 1e3:>12.3f}")
    return "\n".join(lines)
