"""Compare two sets of result records, workload by workload.

For each end-to-end metric: each side's median and quartiles, and a
verdict against the bound fixed in ``BENCHMARK.json``:

* ``better`` — the change wins at least nine tenths of the paired runs
  and the medians differ by more than the base's own quartile spread;
* ``worse`` — the change's median is worse than the base's by more than
  the bound;
* ``unresolved`` — either side's run-to-run spread is wider than the
  bound, and not every run of the change beats every run of the base;
* ``within-bound`` — otherwise.

Runs pair up by seed when both sets share seeds, else in file order.
Per-layer metrics (traced records) are listed with medians only: they
have no bound.
"""

from __future__ import annotations

import glob
import json
import os
import statistics

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec(path: str | None = None) -> dict:
    with open(path or os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def load_records(directory: str) -> dict[tuple[str, bool], list[dict]]:
    """(workload, traced) -> records, from every ``*.json`` below ``directory``."""
    out: dict[tuple[str, bool], list[dict]] = {}
    for path in sorted(glob.glob(os.path.join(directory, "**", "*.json"), recursive=True)):
        with open(path, encoding="utf-8") as handle:
            record = json.load(handle)
        if not isinstance(record, dict) or "header" not in record:
            continue
        key = (record["header"]["workload"], bool(record["header"]["trace"]))
        out.setdefault(key, []).append(record)
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _pairs(base: list[dict], change: list[dict], metric: str) -> list[tuple[float, float]]:
    by_seed_a = {r["header"]["seed"]: r["metrics"][metric]["value"] for r in base}
    by_seed_b = {r["header"]["seed"]: r["metrics"][metric]["value"] for r in change}
    common = sorted(set(by_seed_a) & set(by_seed_b))
    if common:
        return [(by_seed_a[s], by_seed_b[s]) for s in common]
    return list(zip((r["metrics"][metric]["value"] for r in base),
                    (r["metrics"][metric]["value"] for r in change)))


def verdict(base_values, change_values, pairs, better: str, bound: float) -> str:
    """Classify one metric on one workload (rules in the module docstring)."""
    a_q1, a_med, a_q3 = quartiles(base_values)
    b_q1, b_med, b_q3 = quartiles(change_values)
    sign = 1.0 if better == "higher" else -1.0

    def improves(a: float, b: float) -> bool:
        return sign * (b - a) > 0

    a_spread = (a_q3 - a_q1) / abs(a_med) if a_med else float("inf")
    b_spread = (b_q3 - b_q1) / abs(b_med) if b_med else float("inf")
    all_better = all(improves(a, b) for a in base_values for b in change_values)
    wins = sum(1 for a, b in pairs if improves(a, b))
    if (pairs and wins >= 0.9 * len(pairs) and improves(a_med, b_med)
            and abs(b_med - a_med) > (a_q3 - a_q1)):
        return "better"
    if max(a_spread, b_spread) > bound and not all_better:
        return "unresolved"
    worse_by = -sign * (b_med - a_med) / abs(a_med) if a_med else 0.0
    if worse_by > bound:
        return "worse"
    return "within-bound"


def compare_dirs(base_dir: str, change_dir: str, spec: dict | None = None) -> str:
    spec = spec or load_spec()
    base = load_records(base_dir)
    change = load_records(change_dir)
    lines = [f"base: {base_dir}", f"change: {change_dir}", ""]
    header = (f"{'metric':<40} {'base q1/med/q3':>32} {'change q1/med/q3':>32} "
              f"{'bound':>6}  verdict")
    for workload in [w["name"] for w in spec["workloads"]]:
        a, b = base.get((workload, False), []), change.get((workload, False), [])
        if a and b:
            lines.append(f"== {workload}  (runs: base {len(a)}, change {len(b)})")
            lines.append(header)
            for metric in spec["end_to_end"]:
                name = metric["name"]
                av = [r["metrics"][name]["value"] for r in a]
                bv = [r["metrics"][name]["value"] for r in b]
                result = verdict(av, bv, _pairs(a, b, name), metric["better"], metric["bound"])
                lines.append(
                    f"{name:<40} {_fmt(quartiles(av)):>32} {_fmt(quartiles(bv)):>32} "
                    f"{metric['bound']:>6.2f}  {result}"
                )
            lines.append("")
        ta, tb = base.get((workload, True), []), change.get((workload, True), [])
        if ta and tb:
            lines.append(f"== {workload} per-layer (traced runs: base {len(ta)}, change {len(tb)})")
            for metric in spec["per_layer"]:
                name = metric["name"]
                am = statistics.median(r["metrics"][name]["value"] for r in ta)
                bm = statistics.median(r["metrics"][name]["value"] for r in tb)
                ratio = f"{bm / am:.3f}x" if am else "-"
                lines.append(f"{name:<44} {am:>14.6g} {bm:>14.6g} {ratio:>9} {metric['unit']}")
            lines.append("")
    return "\n".join(lines)


def _fmt(q: tuple[float, float, float]) -> str:
    return "/".join(f"{v:.4g}" for v in q)
