#!/usr/bin/env bash
# Line-coverage report via gcc --coverage + gcov + python3 (no gcovr/lcov in
# the image). Builds a dedicated instrumented tree, runs the tier1+property
# test selection, then unions executed lines across translation units with
# tools/coverage_summary.py.
#
# Enforced floor: every file under src/tm/, src/workload/, src/obs/,
# src/bgpsim/, and src/control/ must be at least 70% line-covered (the
# Traffic Manager and workload engine are the layers the fault-injection
# work leans on hardest; obs is the telemetry every run report and
# post-mortem depends on; bgpsim carries the widened prepend/community
# best-path semantics every advertisement decision rides on; control is the
# always-on re-optimization loop every churn reaction flows through); the
# script exits non-zero otherwise.
#
# Usage: tools/coverage.sh [build-dir] [label-regex]
#        (defaults: build-cov, 'tier1|property')
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build-cov}"
LABELS="${2:-tier1|property}"

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="--coverage" \
  -DCMAKE_EXE_LINKER_FLAGS="--coverage" >/dev/null
cmake --build "$BUILD_DIR" -j "$(nproc)" >/dev/null

# Stale counters from a previous run would inflate the numbers.
find "$BUILD_DIR" -name '*.gcda' -delete

ctest --test-dir "$BUILD_DIR" -L "$LABELS" --output-on-failure >/dev/null

python3 tools/coverage_summary.py "$BUILD_DIR" \
  --min-file 70 --enforce-dir src/tm --enforce-dir src/workload \
  --enforce-dir src/obs --enforce-dir src/bgpsim \
  --enforce-dir src/control \
  --output "$BUILD_DIR/coverage_report.txt"
echo "report written to $BUILD_DIR/coverage_report.txt"
