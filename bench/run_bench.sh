#!/usr/bin/env bash
# Runs the kernel benchmarks (micro_primitives) and writes
# BENCH_micro.json at the repo root, so every PR leaves a perf trajectory
# behind. End-to-end numbers come from bench/e2e/run.py instead.
#
#   bench/run_bench.sh [output.json]
#
# Environment:
#   BUILD_DIR     build tree with bench binaries (default: build; configure
#                 with -DWHATSUP_BENCH=ON)
#   MICRO_FILTER  --benchmark_filter for micro_primitives (default: all).
#                 A filtered run into an existing output file replaces the
#                 re-run rows by name and keeps every other row.
#   MIN_TIME      --benchmark_min_time per micro benchmark (default: 0.5)
#   ALLOW_DEBUG   set to 1 to record from a non-Release build tree and/or a
#                 non-release benchmark LIBRARY anyway (the JSON keeps both
#                 stamps in context: "build_type" for the tree and the
#                 library's own "library_build_type"). Both are refused by
#                 default so a slow baseline can never silently land in
#                 BENCH_micro.json.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR=${BUILD_DIR:-build}
OUT=${1:-BENCH_micro.json}
MICRO_FILTER=${MICRO_FILTER:-.}
MIN_TIME=${MIN_TIME:-0.5}
ALLOW_DEBUG=${ALLOW_DEBUG:-0}

if [[ ! -x "$BUILD_DIR/micro_primitives" ]]; then
  echo "error: $BUILD_DIR/micro_primitives not found — configure with -DWHATSUP_BENCH=ON" >&2
  exit 1
fi

# CMake stamps the configured build type into the tree (see CMakeLists.txt).
BUILD_TYPE=unknown
if [[ -f "$BUILD_DIR/whatsup_build_type.txt" ]]; then
  BUILD_TYPE=$(<"$BUILD_DIR/whatsup_build_type.txt")
fi
if [[ "$BUILD_TYPE" != "Release" && "$ALLOW_DEBUG" != "1" ]]; then
  echo "error: $BUILD_DIR is a '$BUILD_TYPE' tree, not Release — perf numbers" >&2
  echo "       from it are not comparable. Reconfigure with" >&2
  echo "       'cmake -B $BUILD_DIR -S . -DCMAKE_BUILD_TYPE=Release -DWHATSUP_BENCH=ON'" >&2
  echo "       or set ALLOW_DEBUG=1 to record anyway (tagged in the JSON)." >&2
  exit 1
fi
if [[ "$BUILD_TYPE" != "Release" ]]; then
  echo "warning: recording from a '$BUILD_TYPE' tree (ALLOW_DEBUG=1)" >&2
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

"$BUILD_DIR/micro_primitives" \
  --benchmark_filter="$MICRO_FILTER" \
  --benchmark_min_time="$MIN_TIME" \
  --benchmark_out="$tmp/micro.json" --benchmark_out_format=json

# The benchmark library stamps its own build flavor into the JSON context
# (library_build_type). A debug-assert library — e.g. Debian's package,
# which CMake falls back to when the source build can't be fetched — skews
# kernel timings even under a Release tree, so refuse it like a Debug tree.
LIB_BUILD_TYPE=$(python3 -c "
import json, sys
print(json.load(open(sys.argv[1])).get('context', {}).get('library_build_type', 'unknown'))
" "$tmp/micro.json")
if [[ "$LIB_BUILD_TYPE" != "release" && "$ALLOW_DEBUG" != "1" ]]; then
  echo "error: the benchmark library reports library_build_type='$LIB_BUILD_TYPE'," >&2
  echo "       not 'release' — its timings are not comparable. Reconfigure with" >&2
  echo "       network access so CMake builds the library from source matching" >&2
  echo "       the tree, or set ALLOW_DEBUG=1 to record anyway (tagged in the" >&2
  echo "       JSON)." >&2
  exit 1
fi
if [[ "$LIB_BUILD_TYPE" != "release" ]]; then
  echo "warning: benchmark library_build_type='$LIB_BUILD_TYPE' (ALLOW_DEBUG=1)" >&2
fi

python3 - "$tmp/micro.json" "$OUT" "$BUILD_TYPE" "$ALLOW_DEBUG" \
  "$LIB_BUILD_TYPE" "$MICRO_FILTER" <<'EOF'
import json
import os
import sys

(micro_path, out_path, build_type, allow_debug, lib_build_type,
 micro_filter) = sys.argv[1:7]
with open(micro_path) as f:
    merged = json.load(f)
# A filtered run refreshes only its own rows: keep every other row of an
# existing baseline, in its original order, and replace re-run rows by name.
# An unfiltered run rewrites the file, so deleted benchmarks drop out.
if micro_filter != "." and os.path.exists(out_path):
    with open(out_path) as f:
        previous = json.load(f)["benchmarks"]
    fresh = {b["name"]: b for b in merged["benchmarks"]}
    rows = [fresh.pop(b["name"], b) for b in previous]
    merged["benchmarks"] = rows + list(fresh.values())
context = merged.setdefault("context", {})
context["build_type"] = build_type
# Make any guard bypass visible IN the committed artifact, not just on the
# recording terminal: a baseline whose context reads allow_debug=true or a
# non-release library_build_type is flagged at review time, which is how
# the silently-Debug BENCH_micro.json of PRs past should have been caught.
context["allow_debug"] = allow_debug == "1"
context["library_build_type"] = lib_build_type

with open(out_path, "w") as f:
    json.dump(merged, f, indent=2)
    f.write("\n")
EOF

echo "wrote $OUT"
