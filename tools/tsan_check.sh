#!/usr/bin/env bash
# ThreadSanitizer job for the parallel evaluation paths.
#
# Configures a dedicated build tree with -fsanitize=thread and runs the
# tests selected by ctest label (see tests/CMakeLists.txt for the tier/label
# scheme). The default selection is the memory/thread-heavy `sanitize` set
# plus every `property` suite, the `shard` epoch-barrier suite, the
# `actionspace` advertisement/catchment suites, and the `control` always-on
# control-plane suites (whose services drive the multi-threaded
# orchestrator from DES callbacks) (minus `slow`) — this includes the
# thread-pool suites, the orchestrator's parallel CELF scans, and the
# faultsim chaos batch that re-runs the same seeds at 1/2/4 worker threads.
# Any data race fails the job.
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
cmake --build "$BUILD_DIR" -j --target "${TARGETS[@]}"

ctest --test-dir "$BUILD_DIR" --output-on-failure -L "$LABELS" -LE slow
echo "TSan check passed: no data races in the parallel evaluation paths."
