#!/usr/bin/env bash
# AddressSanitizer + UndefinedBehaviorSanitizer job.
#
# Configures a dedicated build tree with -fsanitize=address,undefined and
# runs the tests selected by ctest label (see tests/CMakeLists.txt for the
# tier/label scheme). The default selection is the memory-heavy `sanitize`
# set plus every `property` suite, the `shard` epoch-barrier suite, the
# `actionspace` advertisement/catchment suites, the `control`
# always-on-control-plane suites and the `fuzz` parser fuzzers (minus
# `slow`), which covers the observability registry, the orchestrator and
# evaluator paths, the simulator's in-place handler slots (netsim_test,
# tm_test), the faultsim chaos properties, the sharded-replay bit-identity
# suites, the DeltaBus/service reaction loop, and the config_io and
# trace-loader mutation fuzzers. Any heap error, leak, or UB
# report fails the job.
#
# Usage: tools/asan_check.sh [build-dir] [label-regex]
#   (defaults: build-asan, 'sanitize|property|shard|actionspace|control|fuzz')
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build-asan}"
LABELS="${2:-sanitize|property|shard|actionspace|control|fuzz}"

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-omit-frame-pointer" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined"

# Test names are target names; build exactly what the label selection runs.
mapfile -t TARGETS < <(ctest --test-dir "$BUILD_DIR" -N -L "$LABELS" -LE slow |
  sed -n 's/^ *Test *#[0-9]*: //p')
[[ ${#TARGETS[@]} -gt 0 ]] || { echo "no tests match -L '$LABELS'" >&2; exit 1; }
cmake --build "$BUILD_DIR" -j "$(nproc)" --target "${TARGETS[@]}"

ctest --test-dir "$BUILD_DIR" --output-on-failure -L "$LABELS" -LE slow
echo "ASan+UBSan check passed: no memory errors or undefined behavior."
