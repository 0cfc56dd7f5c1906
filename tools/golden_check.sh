#!/usr/bin/env bash
# Golden stdout of every deterministic bench, with the suite's wall time.
#
# Reruns every deterministic bench (all but workload_throughput, which
# prints timings, and micro_orchestrator) at its defaults, plus
# unified_timeline --shards 4 and chaos_runner --under_load --shards 4 (the
# sharded replay), and diffs each stdout against
# bench/results/golden/<name>.stdout. Their stdout carries no timings, so
# any byte that moves is a change in what the planner, the evaluators, the
# control plane, the TM-Edge probe loop or the replay computed; a change
# that means to move one re-pins the file and says why.
#
# Each run's wall time lands in $BUILD_DIR/bench_reports/BENCH_suite.json
# (painter.bench.v1, one phase per golden name; compare two with
# tools/bench_compare.py), and the total is printed. The times are a
# record, not a gate.
#
# tools/ci_check.sh runs this as its stage 8.
#
# Usage: tools/golden_check.sh [build-dir]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"

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
report_dir="$BUILD_DIR/bench_reports"
mkdir -p "$report_dir"
golden_out="$(mktemp -d)"
trap 'rm -rf "$golden_out"' EXIT
for run in "${GOLDEN_RUNS[@]}"; do
  name="${run%%=*}"
  read -ra cmd <<<"${run#*=}"
  # Run inside the temp dir with PAINTER_REPORT_DIR unset: the reports
  # land there, and the "Report: BENCH_<bench>.json" line the goldens carry
  # stays a bare file name.
  start="$EPOCHREALTIME"
  (cd "$golden_out" && env -u PAINTER_REPORT_DIR "$bench_bin/${cmd[0]}" \
      "${cmd[@]:1}") >"$golden_out/$name.stdout"
  echo "$name $start $EPOCHREALTIME" >>"$golden_out/wall_times"
  diff -u "bench/results/golden/$name.stdout" "$golden_out/$name.stdout"
done

python3 - "$golden_out/wall_times" "$report_dir/BENCH_suite.json" <<'EOF'
import json
import sys

times_path, report_path = sys.argv[1:]
phases = []
with open(times_path, encoding="utf-8") as f:
    for line in f:
        name, start, end = line.split()
        phases.append({"name": name,
                       "wall_ms": (float(end) - float(start)) * 1e3})
total_s = sum(p["wall_ms"] for p in phases) / 1e3
report = {"schema": "painter.bench.v1", "name": "suite",
          "config": {"runs": len(phases)}, "phases": phases,
          "values": {"total_s": total_s}}
with open(report_path, "w", encoding="utf-8") as f:
    json.dump(report, f)
    f.write("\n")
print(f"golden suite: {len(phases)} runs match, {total_s:.1f} s wall "
      f"(per run: {report_path})")
EOF
