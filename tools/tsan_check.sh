#!/usr/bin/env bash
# ThreadSanitizer job.
#
# The library plans, evaluates and replays on the calling thread. What
# still runs on more than one thread is obs::MetricsRegistry, which stays
# safe to record from any thread: obs_test's CounterMergesAcrossThreads and
# HistogramMergesAcrossThreads add to one counter's atomic and one
# histogram's mutex-guarded buckets from several std::threads while a
# reader thread exports the registry and reads the values. The trace sink
# and the flight recorder keep their mutexes for callers off the simulator
# thread.
#
# Configures a dedicated build tree with -fsanitize=thread and runs the
# tests selected by ctest label (see tests/CMakeLists.txt for the tier/label
# scheme): the `sanitize` set (obs_test among it) plus every `property`
# suite, the `shard` epoch-barrier suite, the `actionspace`
# advertisement/catchment suites, and the `control` always-on control-plane
# suites (minus `slow`). Any data race fails the job.
#
# Usage: tools/tsan_check.sh [build-dir] [label-regex]
#        (defaults: build-tsan, 'sanitize|property|shard|actionspace|control')
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build-tsan}"
LABELS="${2:-sanitize|property|shard|actionspace|control}"

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"

# Test names are target names; build exactly what the label selection runs.
mapfile -t TARGETS < <(ctest --test-dir "$BUILD_DIR" -N -L "$LABELS" -LE slow |
  sed -n 's/^ *Test *#[0-9]*: //p')
[[ ${#TARGETS[@]} -gt 0 ]] || { echo "no tests match -L '$LABELS'" >&2; exit 1; }
cmake --build "$BUILD_DIR" -j "$(nproc)" --target "${TARGETS[@]}"

ctest --test-dir "$BUILD_DIR" --output-on-failure -L "$LABELS" -LE slow
echo "TSan check passed: no data races."
