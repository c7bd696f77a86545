#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark results.

    python3 bench/e2e/compare.py A.json B.json
    python3 bench/e2e/compare.py --self-test

A and B are files written by `run.py --out FILE`: one JSON record per
(workload, invocation). When a side has several records for a workload (for
example ten seeds), each record's median is one sample; with a single record,
its per-rep values are the samples.

For every (workload, end-to-end metric) it prints both medians and quartiles,
the bound from BENCHMARK.json, and a verdict:
  unresolved  the wider relative spread (q3 - q1) / median of the two sides
              exceeds the bound, unless every B sample beats every A sample
  worse       B is worse than A by more than the bound
  better      B is better than A by more than the bound
  unchanged   otherwise
Per-layer medians and their relative change print alongside (no verdict:
per-layer metrics have no bound).
"""

import argparse
import io
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def load(path):
    with open(path) as f:
        return group([json.loads(line) for line in f if line.strip()])


def group(recs):
    """{workload: {"end_to_end": {metric: [samples]}, "per_layer": {...}}}"""
    records = {}
    for rec in recs:
        records.setdefault(rec["workload"], []).append(rec)
    out = {}
    for workload, recs in records.items():
        side = {}
        for section in ("end_to_end", "per_layer"):
            samples = {}
            for rec in recs:
                for metric, s in rec.get(section, {}).items():
                    if len(recs) == 1:
                        samples.setdefault(metric, []).extend(s["values"])
                    else:
                        samples.setdefault(metric, []).append(s["median"])
            side[section] = samples
        out[workload] = side
    return out


def verdict(a, b, better, bound):
    """Verdict for samples a (parent) and b (change) of one metric."""
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    spread = max((a_q3 - a_q1) / abs(a_med) if a_med else 0.0,
                 (b_q3 - b_q1) / abs(b_med) if b_med else 0.0)
    sign = 1.0 if better == "higher" else -1.0
    gain = sign * (b_med - a_med) / abs(a_med) if a_med else 0.0
    if spread > bound:
        wins = all(sign * (y - x) > 0 for x in a for y in b)
        return "better" if wins else "unresolved"
    if gain < -bound:
        return "worse"
    if gain > bound:
        return "better"
    return "unchanged"


def compare(a, b, spec, out=sys.stdout):
    """Prints the comparison; returns {(workload, metric): verdict}."""
    verdicts = {}
    for workload in sorted(set(a) & set(b)):
        print(f"== {workload}", file=out)
        print(f"  {'metric':<26} {'A median [q1, q3]':>34} {'B median [q1, q3]':>34} "
              f"{'change':>8} {'bound':>6}  verdict", file=out)
        for m in spec["end_to_end"]:
            xs = a[workload]["end_to_end"].get(m["name"])
            ys = b[workload]["end_to_end"].get(m["name"])
            if not xs or not ys:
                continue
            v = verdict(xs, ys, m["better"], m["bound"])
            verdicts[(workload, m["name"])] = v
            (a_q1, a_med, a_q3), (b_q1, b_med, b_q3) = quartiles(xs), quartiles(ys)
            change = (b_med - a_med) / abs(a_med) if a_med else 0.0
            cell_a = f"{a_med:.6g} [{a_q1:.6g}, {a_q3:.6g}]"
            cell_b = f"{b_med:.6g} [{b_q1:.6g}, {b_q3:.6g}]"
            print(f"  {m['name']:<26} {cell_a:>34} {cell_b:>34} {change:>+8.2%} "
                  f"{m['bound']:>6.2%}  {v}", file=out)
        layer_names = [m["name"] for m in spec["per_layer"]]
        rows = []
        for name in layer_names:
            xs = a[workload]["per_layer"].get(name)
            ys = b[workload]["per_layer"].get(name)
            if xs and ys:
                ma, mb = statistics.median(xs), statistics.median(ys)
                change = f"{(mb - ma) / abs(ma):+.2%}" if ma else "n/a"
                rows.append(f"    {name:<40} {ma:>14.6g} {mb:>14.6g} {change:>9}")
        if rows:
            print("  per layer (A median, B median, change):", file=out)
            print("\n".join(rows), file=out)
    return verdicts


def self_test():
    spec = {"end_to_end": [
        {"name": "cycles_per_s", "unit": "cycles/s", "better": "higher", "bound": 0.05},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "recall", "unit": "frac", "better": "higher", "bound": 0.02},
        {"name": "peak_bytes_per_node", "unit": "B", "better": "lower", "bound": 0.05},
        {"name": "msgs_per_user", "unit": "msgs", "better": "lower", "bound": 0.01},
    ], "per_layer": [{"name": "beep.busy_s", "unit": "s", "better": "lower"}]}

    def record(seed, **metrics):
        return {"workload": "w", "seed": seed,
                "end_to_end": {k: {"median": v, "values": [v]} for k, v in metrics.items()},
                "per_layer": {"beep.busy_s": {"median": 1.0 + seed / 100, "values": [1.0]}}}

    a, b = [], []
    for seed in range(10):
        jitter = 1 + 0.002 * (seed % 3)
        a.append(record(seed, cycles_per_s=30 * jitter, setup_s=0.010 * jitter,
                        recall=0.60 * jitter, peak_bytes_per_node=5e4 * (1 + 0.03 * (seed % 5)),
                        msgs_per_user=2000 * jitter))
        b.append(record(seed, cycles_per_s=36 * jitter, setup_s=0.014 * jitter,
                        recall=0.60 * jitter, peak_bytes_per_node=5e4 * (1 + 0.03 * (seed % 5)),
                        msgs_per_user=1990 * jitter))
    got = compare(group(a), group(b), spec, out=io.StringIO())
    want = {("w", "cycles_per_s"): "better",          # +20% > 5% bound
            ("w", "setup_s"): "worse",                # +40% slower > 25% bound
            ("w", "recall"): "unchanged",             # identical
            ("w", "peak_bytes_per_node"): "unresolved",  # 6% spread > 5% bound
            ("w", "msgs_per_user"): "unchanged"}      # -0.5% < 1% bound
    # Every B sample beating every A sample resolves a wide spread.
    got["disjoint"] = verdict([10, 12, 14, 16], [20, 22, 24, 26], "higher", 0.05)
    want["disjoint"] = "better"
    got["overlapping"] = verdict([10, 12, 14, 16], [13, 15, 17, 19], "higher", 0.05)
    want["overlapping"] = "unresolved"
    bad = {k: (got.get(k), v) for k, v in want.items() if got.get(k) != v}
    if bad:
        print(f"self-test FAILED: {bad}")
        return 1
    print(f"self-test passed ({len(want)} verdicts)")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("a", nargs="?", help="parent results (run.py --out)")
    parser.add_argument("b", nargs="?", help="change results (run.py --out)")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.a or not args.b:
        parser.error("two result files are required")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    compare(load(args.a), load(args.b), spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
