"""Run one benchmark workload, all of them, a comparison, or the self-test.

Usage (from the repository root):

    python3 perfbench/run.py --workload chat-ec25519-c32-inproc --seed 1 \\
        --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10
    python3 perfbench/run.py --compare .perfbench/results-A .perfbench/results-B
    python3 perfbench/run.py --self-test

A workload run prints its header, a metric table and, as its last line,
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` they
are the per-layer ledger.  It also writes the full record (header
included) under ``--out``.  A failed correctness check exits non-zero and
reports no number.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

for _var in ("DISSENT_GROUP_BACKEND", "DISSENT_TELEMETRY"):
    os.environ.pop(_var, None)


def _import_program() -> None:
    if not os.path.isdir(os.path.join(SRC, "repro", "core")):
        sys.stderr.write(f"perfbench: no program sources at {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, SRC)
    if ROOT not in sys.path:
        sys.path.insert(0, ROOT)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=os.path.join(ROOT, ".perfbench"),
                        help="directory for result records, traces and scratch files")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "CHANGE"),
                        help="compare two directories of result records")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)

    _import_program()
    if args.compare:
        from perfbench.compare import compare_dirs

        print(compare_dirs(*args.compare))
        return 0
    if args.self_test:
        from perfbench.selftest import main as self_test

        return self_test(args.out)
    if not args.workload:
        parser.error("--workload is required")

    from perfbench.bench import GateError, run_all, run_workload
    from perfbench.workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace, args.out)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    try:
        result = run_workload(
            WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), args.out
        )
    except GateError as exc:
        sys.stderr.write(f"perfbench: correctness gate failed: {exc}\n")
        return 1
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
