#!/usr/bin/env bash
# The full local CI pipeline, in escalating order of cost:
#
#   0. lint     — tools/metrics_lint.py: metric-name literals must follow
#                 the registry naming convention (free, fails fast).
#   1. tier1    — the deterministic correctness gate (ctest -L tier1,
#                 including the slow property suites): must stay green on
#                 every change.
#   2. property — the randomized suites on their own (ctest -L property),
#                 surfacing seed-dependent regressions with --output-on-failure.
#   3. actionspace — the advertisement action-space tier (ctest -L
#                 actionspace: prepend/community best-path properties,
#                 v2 config wire format, CELF golden schedules and counter
#                 pins under the widened variant table, the flat index's
#                 catchment superset and the pruning-audit suites).
#   4. workload — the workload-engine tier (ctest -L workload, including
#                 replay_alloc_test: a replay's heap allocations must not
#                 grow with the trace) plus a smoke run of
#                 bench/workload_throughput (tiny trace, full pipeline:
#                 generate -> pin-lookup -> edge probe loop -> latency-only
#                 replay -> load-aware sweep over shard counts).
#   5. shard    — the sharded DES tier (ctest -L shard: epoch-barrier
#                 protocol ordering, shards on the calling thread,
#                 bit-identity across shard counts, the canonical-stats
#                 pins, chaos/timeline identity under the sharded engine)
#                 plus a sharded smoke of bench/unified_timeline
#                 (--shards 2, its own gates still apply).
#   6. timeline — the unified-timeline tier (ctest -L timeline: integer-µs
#                 clock, tick-grid, TTL-cache, and byte-identity tests) plus
#                 a smoke run of bench/unified_timeline, whose own gates
#                 require >= 2 advertisement rounds interleaved with the
#                 trace and a zero tick skew.
#   7. control  — the always-on control-plane tier (ctest -L control:
#                 DeltaBus ordering/overflow, config diffing, churn
#                 environment double-entry, re-armable LearningTimeline,
#                 service reaction/hysteresis/determinism, and the
#                 incremental-vs-full audit property) plus a smoke run of
#                 bench/control_loop, whose own gates require every scripted
#                 fault answered within the reaction SLO, zero audit
#                 mismatches, and the equal-reactivity recompute savings.
#   8. golden   — tools/golden_check.sh: reruns every deterministic bench
#                 (21 runs) and diffs each stdout against
#                 bench/results/golden/<name>.stdout; records each run's
#                 wall time in $BUILD_DIR/bench_reports/BENCH_suite.json and
#                 prints the total (a record, not a gate).
#   9. ASan+UBSan, then TSan — dedicated sanitizer build trees running the
#                 `sanitize` + `property` + `shard` + `actionspace` +
#                 `control` label selection (tools/asan_check.sh and
#                 tools/tsan_check.sh); ASan+UBSan also runs the `fuzz`
#                 label, the seeded mutation fuzzer of the config_io
#                 parser. The selection includes the faultsim chaos
#                 properties, the sharded-replay suites, netsim_test and
#                 tm_test (the simulator's in-place handler slots: growth
#                 while a handler runs, throwing and pending handlers), and
#                 obs_test, whose threads record into one counter and one
#                 histogram while another exports the registry (the one
#                 multi-threaded subject TSan has left). replay_alloc_test
#                 replaces the global operator new and stays out of it
#                 (the replay code it runs is in the selection anyway).
#
# Any stage failing aborts the pipeline with that stage's exit status.
#
# Usage: tools/ci_check.sh [build-dir]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"

echo "=== ci 0/10: metrics naming lint ==="
python3 tools/metrics_lint.py

echo "=== ci 1/10: tier1 correctness gate ==="
cmake -B "$BUILD_DIR" -S . >/dev/null
cmake --build "$BUILD_DIR" -j "$(nproc)"
ctest --test-dir "$BUILD_DIR" -L tier1 --output-on-failure

echo "=== ci 2/10: property suites ==="
ctest --test-dir "$BUILD_DIR" -L property --output-on-failure

echo "=== ci 3/10: action-space tier ==="
ctest --test-dir "$BUILD_DIR" -L actionspace --output-on-failure

echo "=== ci 4/10: workload tier + throughput smoke ==="
ctest --test-dir "$BUILD_DIR" -L workload --output-on-failure
cmake --build "$BUILD_DIR" -j "$(nproc)" --target workload_throughput >/dev/null
"$BUILD_DIR"/bench/workload_throughput --smoke >/dev/null

echo "=== ci 5/10: shard tier + sharded-timeline smoke ==="
ctest --test-dir "$BUILD_DIR" -L shard --output-on-failure
cmake --build "$BUILD_DIR" -j "$(nproc)" --target unified_timeline >/dev/null
"$BUILD_DIR"/bench/unified_timeline --smoke --shards 2 >/dev/null

echo "=== ci 6/10: timeline tier + unified-timeline smoke ==="
ctest --test-dir "$BUILD_DIR" -L timeline --output-on-failure
cmake --build "$BUILD_DIR" -j "$(nproc)" --target unified_timeline >/dev/null
"$BUILD_DIR"/bench/unified_timeline --smoke >/dev/null

echo "=== ci 7/10: control tier + control-loop smoke ==="
ctest --test-dir "$BUILD_DIR" -L control --output-on-failure
cmake --build "$BUILD_DIR" -j "$(nproc)" --target control_loop >/dev/null
"$BUILD_DIR"/bench/control_loop --smoke >/dev/null

echo "=== ci 8/10: golden stdout of every deterministic bench ==="
tools/golden_check.sh "$BUILD_DIR"

echo "=== ci 9/10: ASan+UBSan (sanitize|property|shard|actionspace|control|fuzz labels) ==="
tools/asan_check.sh

echo "=== ci 10/10: TSan (sanitize|property|shard|actionspace|control labels) ==="
tools/tsan_check.sh

echo "ci_check: all stages green."
