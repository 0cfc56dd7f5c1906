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
#                 v2 config wire format, CELF golden schedules under the
#                 widened variant table, catchment-predictor superset and
#                 pruning-audit suites).
#   4. workload — the workload-engine tier (ctest -L workload) plus a smoke
#                 run of bench/workload_throughput (tiny trace, full pipeline:
#                 generate -> pin-lookup -> policy replay -> sharded sweep).
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
#   8. golden   — reruns every deterministic bench (all but
#                 workload_throughput, which prints timings, and
#                 micro_orchestrator) at its defaults, plus
#                 unified_timeline --shards 4 and chaos_runner --under_load
#                 --shards 4 (the sharded replay), and diffs each stdout
#                 against bench/results/golden/<name>.stdout. Their stdout
#                 carries no timings, so any byte that moves is a change in
#                 what the planner, the evaluators, the control plane, the
#                 TM-Edge probe loop or the replay computed; a change that
#                 means to move one re-pins the file and says why.
#   9. ASan+UBSan, then TSan — dedicated sanitizer build trees running the
#                 `sanitize` + `property` + `shard` + `actionspace` +
#                 `control` label selection (tools/asan_check.sh and
#                 tools/tsan_check.sh); ASan+UBSan also runs the `fuzz`
#                 label, the seeded mutation fuzzer of the config_io
#                 parser. The selection includes the faultsim chaos
#                 properties, the sharded-replay suites and the metrics
#                 registry's per-thread shards (obs_test's threads, the
#                 one multi-threaded subject TSan has left).
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
# "<golden name>=<bench> [args...]"; a bare bench name runs it at its
# defaults and is its own golden name.
GOLDEN_RUNS=(
  fig3_dns_ttl
  fig5_deployment
  fig6a_benefit_budget
  fig6b_prototype
  fig6c_learning
  fig7_persistence
  fig8_deployability
  fig9a_granularity
  fig9b_dns_steering
  fig10_failover
  fig11_resilience
  fig12_geolocation
  fig14_ranges
  fig15_scaling
  table_impact
  ablations
  control_loop
  chaos_runner
  unified_timeline
  "unified_timeline.shards4=unified_timeline --shards 4"
  "chaos_runner.under_load.shards4=chaos_runner --under_load --shards 4"
)
mapfile -t GOLDEN_BENCHES < <(for run in "${GOLDEN_RUNS[@]}"; do
  read -ra cmd <<<"${run#*=}"
  echo "${cmd[0]}"
done | sort -u)
cmake --build "$BUILD_DIR" -j "$(nproc)" --target "${GOLDEN_BENCHES[@]}" >/dev/null
bench_bin="$(cd "$BUILD_DIR/bench" && pwd)"
golden_out="$(mktemp -d)"
trap 'rm -rf "$golden_out"' EXIT
for run in "${GOLDEN_RUNS[@]}"; do
  name="${run%%=*}"
  read -ra cmd <<<"${run#*=}"
  # Run inside the temp dir with PAINTER_REPORT_DIR unset: the reports
  # land there, and the "Report: BENCH_<bench>.json" line the goldens carry
  # stays a bare file name.
  (cd "$golden_out" && env -u PAINTER_REPORT_DIR "$bench_bin/${cmd[0]}" \
      "${cmd[@]:1}") >"$golden_out/$name.stdout"
  diff -u "bench/results/golden/$name.stdout" "$golden_out/$name.stdout"
done

echo "=== ci 9/10: ASan+UBSan (sanitize|property|shard|actionspace|control|fuzz labels) ==="
tools/asan_check.sh

echo "=== ci 10/10: TSan (sanitize|property|shard|actionspace|control labels) ==="
tools/tsan_check.sh

echo "ci_check: all stages green."
