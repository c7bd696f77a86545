#!/usr/bin/env python3
"""End-to-end benchmark of the WhatsUp simulator.

Builds the `wbench` program (this directory's CMake project, which builds the
`whatsup` library from the repository's sources), runs each workload as one
closed batch job per rep in a fresh process, checks the outputs, and prints
every metric by name with its unit. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

    python3 bench/e2e/run.py                          # all four workloads
    python3 bench/e2e/run.py --workload paper-500 --seed 3 --seconds 20 --trace 0
    python3 bench/e2e/run.py --smoke                  # toy sizes, < 20 s

With --trace 0 a run reports the end-to-end metrics of BENCHMARK.json; with
--trace 1 (the default) timed and traced reps alternate and a single-workload
run reports the per-layer metrics. The metric names, units and bounds live in
BENCHMARK.json at the repository root. See README.md.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build" / "e2e"
WBENCH = BUILD / "wbench"

WORKLOADS = ["paper-500", "scale-10k", "faults-500", "split-500"]
# split-500 replays paper-500's trajectory over forked fragments; its
# fragments hold partial trackers, so its quality and latency come from an
# untimed paper-500 reference rep whose digest series it must reproduce.
REFERENCE = {"split-500": "paper-500"}
# Quality floors that catch garbage output (measured values sit well above).
FLOORS = {
    "paper-500": {"recall": 0.45, "precision": 0.25},
    "scale-10k": {"recall": 0.30, "precision": 0.25},
    "faults-500": {"recall": 0.45, "precision": 0.25},
}
# CPUs each workload's processes are pinned to (its threads, or its fragments).
CPUS = {"paper-500": 1, "scale-10k": 2, "faults-500": 1, "split-500": 2}
MIN_REPS = 2            # two timed reps (a determinism check), or one timed + one traced
MAX_REPS = 64
REP_TIMEOUT_S = 150
CLOSURE_LIMIT = 0.05    # |trace.closure_frac| above this invalidates the trace


def die(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def load_catalog():
    path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(path.read_text())
    except (OSError, ValueError) as e:
        die(f"cannot read {path}: {e}")
    return spec["end_to_end"], spec["per_layer"]


# The child process group in flight, killed if this script is stopped.
_child = None


def run_child(cmd, timeout=None, cpus=None, **kwargs):
    """Runs cmd in its own process group; returns (returncode, stdout, stderr).

    The group (a forked fragment worker included) is killed on timeout, and
    by stop() when this script receives SIGTERM or SIGINT."""
    global _child
    preexec = (lambda: os.sched_setaffinity(0, cpus)) if cpus else None
    _child = subprocess.Popen(cmd, text=True, start_new_session=True, preexec_fn=preexec,
                              **kwargs)
    try:
        out, err = _child.communicate(timeout=timeout)
        return _child.returncode, out, err
    except subprocess.TimeoutExpired:
        os.killpg(_child.pid, signal.SIGKILL)
        _child.communicate()
        return None, "", f"timed out after {timeout} s"
    finally:
        _child = None


def stop(signum, _frame):
    if _child is not None:
        os.killpg(_child.pid, signal.SIGKILL)
        _child.wait()
    sys.exit(128 + signum)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        die(f"no WhatsUp sources under {ROOT} (CMakeLists.txt and src/ are required)")
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        # FULLY_DISCONNECTED: a missing GoogleTest must fail the configure
        # rather than trigger the root project's download fallback.
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release",
                      "-DFETCHCONTENT_FULLY_DISCONNECTED=ON"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "wbench", "-j", jobs])
    with open(log, "w") as out:
        for cmd in steps:
            try:
                rc, _, _ = run_child(cmd, stdout=out, stderr=subprocess.STDOUT)
            except OSError as e:
                die(f"cannot run {cmd[0]}: {e}")
            if rc != 0:
                out.flush()
                print("\n".join(log.read_text().splitlines()[-30:]), file=sys.stderr)
                die(f"build failed ({' '.join(cmd)}); log: {log}")


def pinned_cpus(count):
    """The last `count` CPUs this process may use (all of them if fewer)."""
    allowed = sorted(os.sched_getaffinity(0))
    return set(allowed[-count:])


def launch(args, cpus):
    """Runs wbench once, pinned to `cpus`.

    Returns (parsed last stdout line or None, error text, wall seconds)."""
    start = time.monotonic()
    rc, out, err = run_child([str(WBENCH)] + args, timeout=REP_TIMEOUT_S, cpus=cpus,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    wall = time.monotonic() - start
    if rc != 0:
        return None, err.strip()[-300:] if rc is None else f"exit {rc}: {err.strip()[-300:]}", wall
    try:
        return json.loads(out.strip().splitlines()[-1]), "", wall
    except (ValueError, IndexError):
        return None, f"unparsable output: {out[-300:]!r}", wall


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


class Workload:
    """Reps, checks and metrics of one workload within one invocation."""

    def __init__(self, name, seed, smoke):
        self.name = name
        self.seed = seed
        self.smoke = smoke
        self.timed = []
        self.traced = []
        self.reference = None
        self.checks = []          # (description, passed)
        self.rep_walls = []
        self.trace_file = BUILD / "traces" / f"{name}-seed{seed}.trace.json"

    def launch(self, mode, workload, *extra):
        args = [mode, "--workload", workload, "--seed", str(self.seed), *extra]
        return launch(args + (["--smoke"] if self.smoke else []), pinned_cpus(CPUS[workload]))

    def check(self, what, passed):
        self.checks.append((what, bool(passed)))

    def run_reference(self):
        ref = REFERENCE.get(self.name)
        if ref is not None:
            result, error, _ = self.launch("timed", ref, "--digests")
            self.check(f"{ref} reference rep runs ({error or 'ok'})", result is not None)
            self.reference = result

    def run_timed(self):
        result, error, wall = self.launch("timed", self.name)
        self.rep_walls.append(wall)
        self.check(f"timed rep {len(self.timed) + 1} runs ({error or 'ok'})", result is not None)
        if result is None:
            return
        if self.timed:
            self.check(f"timed rep {len(self.timed) + 1} reproduces rep 1's signature",
                       result["sig"] == self.timed[0]["sig"])
        self.timed.append(result)

    def run_traced(self):
        self.trace_file.parent.mkdir(parents=True, exist_ok=True)
        result, error, wall = self.launch("traced", self.name, "--trace-out", str(self.trace_file))
        self.rep_walls.append(wall)
        self.check(f"traced rep {len(self.traced) + 1} runs ({error or 'ok'})", result is not None)
        if result is not None:
            self.traced.append(result)

    def wants_rep(self, seconds):
        """Whether another rep fits the budget (at least MIN_REPS, at most MAX_REPS)."""
        done = len(self.rep_walls)
        if done < MIN_REPS:
            return True
        next_rep = statistics.median(self.rep_walls)
        return done < MAX_REPS and sum(self.rep_walls) + next_rep <= seconds

    def follows_timed(self, traced):
        """Whether a traced rep's signature equals the timed one on every field it reports."""
        sig = self.timed[0]["sig"]
        return all(sig.get(k) == v for k, v in traced["sig"].items())

    def finish_checks(self):
        """Checks that compare reps with each other and with the reference."""
        if not self.timed:
            return
        sig = self.timed[0]["sig"]
        for i, t in enumerate(self.traced):
            self.check(f"traced rep {i + 1} follows the timed trajectory", self.follows_timed(t))
        if self.reference is not None:
            ref = self.reference["sig"]
            self.check("digest series equals the single-process reference",
                       sig["series_fp"] == ref["series_fp"])
            self.check("message count equals the single-process reference",
                       sig["msgs_per_user"] == ref["msgs_per_user"])
        for key, floor in ({} if self.smoke else FLOORS.get(self.name, {})).items():
            self.check(f"{key} {sig[key]:.4f} >= floor {floor}", sig[key] >= floor)

    def end_to_end(self):
        """Per metric: the list of per-rep values."""
        if not self.timed:
            return {}
        values = {
            "cycles_per_s": [t["cycles"] / t["wall_s"] for t in self.timed],
            "setup_s": [t["setup_s"] for t in self.timed],
            "peak_bytes_per_node": [t["peak_kib"] * 1024.0 / t["nodes"] for t in self.timed],
            "msgs_per_user": [t["sig"]["msgs_per_user"] for t in self.timed],
        }
        quality = [self.reference] if self.name in REFERENCE else self.timed
        for metric, key in (("recall", "recall"), ("precision", "precision"), ("f1", "f1"),
                            ("delivery_latency_cycles", "latency")):
            values[metric] = [t["sig"][key] for t in quality if t is not None]
        return values

    def per_layer(self):
        if not self.traced or not self.timed:
            return {}
        values = {}
        for t in self.traced:
            for key, v in t["layers"].items():
                values.setdefault(key, []).append(v)
        timed_wall = statistics.median(t["wall_s"] for t in self.timed)
        traced_wall = statistics.median(t["wall_s"] for t in self.traced)
        values["trace.overhead_frac"] = [traced_wall / timed_wall - 1.0]
        valid = all(self.follows_timed(t)
                    and abs(t["layers"]["trace.closure_frac"]) <= CLOSURE_LIMIT
                    for t in self.traced)
        values["trace.valid"] = [1.0 if valid else 0.0]
        return values


def summarize(values):
    q1, med, q3 = quartiles(values)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values), "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="one of %s, or a comma list (default: all)" % WORKLOADS)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measuring time per workload (default 25)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1)
    parser.add_argument("--smoke", action="store_true", help="toy sizes, for a quick check")
    parser.add_argument("--out", help="append one JSON record per workload to this file")
    args = parser.parse_args()

    names = args.workload.split(",") if args.workload else list(WORKLOADS)
    for name in names:
        if name not in WORKLOADS:
            die(f"unknown workload {name!r}; choose from {WORKLOADS}")
    end_to_end_spec, per_layer_spec = load_catalog()
    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    build()

    seconds = min(args.seconds, 2.0) if args.smoke else args.seconds
    runs = [Workload(name, args.seed, args.smoke) for name in names]
    for w in runs:
        w.run_reference()
    # Rounds interleave the workloads (rotating the order) so slow periods
    # of the machine spread over all of them; each workload stops once its
    # own budget is spent. With tracing, timed and traced reps alternate.
    for r in range(MAX_REPS):
        active = False
        for w in runs[r % len(runs):] + runs[:r % len(runs)]:
            if w.wants_rep(seconds):
                active = True
                if args.trace and len(w.traced) < len(w.timed):
                    w.run_traced()
                else:
                    w.run_timed()
        if not active:
            break

    # A single-workload run reports the metrics BENCHMARK.json names for its
    # mode; a multi-workload run reports everything, keyed by workload.
    if len(names) == 1:
        chosen = per_layer_spec if args.trace else end_to_end_spec
    else:
        chosen = end_to_end_spec + (per_layer_spec if args.trace else [])
    contract = {}
    attempted = failed = 0
    for w in runs:
        w.finish_checks()
        e2e = {k: summarize(v) for k, v in w.end_to_end().items() if v}
        layers = {k: summarize(v) for k, v in w.per_layer().items()}
        for m in chosen:
            s = e2e.get(m["name"]) or layers.get(m["name"])
            w.check(f"{m['name']} measured", s is not None)
            if s is not None:
                key = m["name"] if len(names) == 1 else f"{w.name}/{m['name']}"
                contract[key] = {"value": s["median"], "unit": m["unit"]}
        n_failed = sum(1 for _, ok in w.checks if not ok)
        attempted += len(w.checks)
        failed += n_failed

        print(f"== {w.name} (seed {w.seed}{', smoke' if w.smoke else ''}): "
              f"{len(w.timed)} timed rep(s), {len(w.traced)} traced")
        for m in end_to_end_spec:
            s = e2e.get(m["name"])
            if s is None:
                print(f"  {m['name']:<28} missing")
                continue
            print(f"  {m['name']:<28} {s['median']:>14.6g} {m['unit']:<9} "
                  f"[q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']}]")
        frac = n_failed / len(w.checks) if w.checks else 0.0
        print(f"  {'check_fail_frac':<28} {frac:>14.6g} {'frac':<9} "
              f"[{n_failed} of {len(w.checks)} checks failed]")
        for what, ok in w.checks:
            if not ok:
                print(f"    FAILED: {what}")
        if layers:
            print(f"  per layer (traced; trace written to {w.trace_file}):")
            for m in per_layer_spec:
                s = layers.get(m["name"])
                value = "missing" if s is None else f"{s['median']:.6g}"
                print(f"    {m['name']:<40} {value:>14} {m['unit']}")
            if layers.get("trace.valid", {}).get("median") != 1.0:
                print("    WARNING: trace.valid=0 -- per-layer numbers do not describe "
                      "the timed run")

        if args.out:
            record = {"workload": w.name, "seed": w.seed, "smoke": w.smoke, "trace": args.trace,
                      "end_to_end": e2e, "per_layer": layers,
                      "checks": {"attempted": len(w.checks), "failed": n_failed,
                                 "failures": [what for what, ok in w.checks if not ok]}}
            with open(args.out, "a") as out:
                out.write(json.dumps(record) + "\n")

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": contract}))


if __name__ == "__main__":
    main()
