#!/usr/bin/env bash
# Orchestrator performance gate, fronted by the tier-1 correctness gate.
#
# 1. Builds and runs the ctest `tier1` label selection (minus `slow`) — a
#    perf number from a build that fails correctness is meaningless.
# 2. Builds bench/micro_orchestrator, runs its painter.bench.v1 report pass
#    (--report-only skips the google-benchmark suite), and diffs the fresh
#    report against the committed baseline in bench/results/ with
#    tools/bench_compare.py. A phase slowing down by more than the tolerance
#    fails the job.
# 3. Builds and runs bench/fig6c_learning (which ends with the catchment-
#    pruning phase at the 1200-stub Azure scale) and gates the pruning
#    contract: >= 30% of CELF evaluations saved and a config byte-identical
#    to the from-scratch reference's (the bench itself exits non-zero
#    otherwise).
# 4. Builds and runs bench/workload_throughput at full scale (>= 1M flow
#    events, >= 100k concurrent pins, bit-identical canonical stats across
#    shard counts 1/2/4/8 — the bench exits non-zero if the scale gates
#    fail), diffs its report against the workload baseline the same way,
#    and re-asserts the shard-count identity on the report.
# 5. Builds and runs bench/unified_timeline at full scale (its own gates
#    require >= 2 advertisement rounds on the shared clock and zero tick
#    skew) and diffs its report against the timeline baseline.
# 6. Builds and runs bench/chaos_runner --under_load (detection-latency SLO
#    under a full flow table; the runner exits non-zero on an invariant
#    violation or a p99 SLO breach) and diffs its report against the
#    chaos-under-load baseline.
# 7. Builds and runs bench/control_loop at full scale (its own gates: every
#    scripted fault answered by a compensating commit, reaction p99 within
#    the structural SLO, zero incremental-vs-full audit mismatches with
#    checks > 0, cross-call seed-cache hits > 0, equal-reactivity recompute
#    savings >= 5x), re-asserts the reaction-p99 and savings-ratio gates on
#    the report values, and diffs the report against the control-loop
#    baseline.
#
# If a baseline doesn't exist yet, the fresh report is installed as the
# baseline (commit it) and that gate succeeds.
#
# A failing correctness gate (1) stops the script. Every later gate runs
# whatever the others did, so a noisy phase in one cannot hide whether the
# rest hold; the script then names each gate that failed and exits non-zero
# if any did.
#
# Usage: tools/perf_check.sh [build-dir] [tolerance] [label-regex]
#        (defaults: build, 0.25 = 25% allowed slowdown per phase, tier1)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
TOLERANCE="${2:-0.25}"
LABELS="${3:-tier1}"
BASELINE=bench/results/BENCH_micro_orchestrator.baseline.json
WORKLOAD_BASELINE=bench/results/BENCH_workload_throughput.baseline.json
TIMELINE_BASELINE=bench/results/BENCH_unified_timeline.baseline.json
CHAOS_BASELINE=bench/results/BENCH_chaos_under_load.baseline.json
CONTROL_BASELINE=bench/results/BENCH_control_loop.baseline.json
REPORT_DIR="$BUILD_DIR/bench_reports"

cmake -B "$BUILD_DIR" -S . >/dev/null

# --- Correctness gate: the label-selected tier must be green. ---
mapfile -t TARGETS < <(ctest --test-dir "$BUILD_DIR" -N -L "$LABELS" -LE slow |
  sed -n 's/^ *Test *#[0-9]*: //p')
[[ ${#TARGETS[@]} -gt 0 ]] || { echo "no tests match -L '$LABELS'" >&2; exit 1; }
cmake --build "$BUILD_DIR" -j "$(nproc)" --target "${TARGETS[@]}" >/dev/null
ctest --test-dir "$BUILD_DIR" -L "$LABELS" -LE slow --output-on-failure

FAILED=()

# Runs gate_$1 in a subshell with errexit on, so its first failing command
# ends that gate only; the name of a failed gate is kept for the summary.
run_gate() {
  echo "=== perf gate: $1 ==="
  set +e
  (set -e; "gate_$1")
  local status=$?
  set -e
  if [[ $status -ne 0 ]]; then
    echo "perf gate $1 FAILED (exit $status)" >&2
    FAILED+=("$1")
  fi
}

# --- Performance gate. ---
gate_micro_orchestrator() {
  cmake --build "$BUILD_DIR" -j "$(nproc)" --target micro_orchestrator
  PAINTER_REPORT_DIR="$REPORT_DIR" \
    "$BUILD_DIR"/bench/micro_orchestrator --report-only
  local report="$REPORT_DIR/BENCH_micro_orchestrator.json"

  if [[ ! -f "$BASELINE" ]]; then
    mkdir -p "$(dirname "$BASELINE")"
    cp "$report" "$BASELINE"
    echo "No baseline found; installed $report as $BASELINE — commit it."
  else
    tools/bench_compare.py "$BASELINE" "$report" --tolerance "$TOLERANCE"
    echo "Perf check passed against $BASELINE."
  fi
}

# --- Catchment-pruning gate: evaluation savings. ---
gate_catchment_pruning() {
  cmake --build "$BUILD_DIR" -j "$(nproc)" --target fig6c_learning
  PAINTER_REPORT_DIR="$REPORT_DIR" "$BUILD_DIR"/bench/fig6c_learning >/dev/null
  python3 - "$REPORT_DIR/BENCH_fig6c_learning.json" <<'PY'
import json, sys
report = json.load(open(sys.argv[1]))
saved = report["values"]["pruning.saved_frac"]
print(f"catchment pruning: {saved:.1%} of CELF evaluations saved")
if saved < 0.30:
    sys.exit(f"FAIL: pruning saved {saved:.1%} < 30% of CELF evaluations")
PY
}

# --- Workload-engine gate: scale thresholds + perf trajectory. ---
WORKLOAD_REPORT="$REPORT_DIR/BENCH_workload_throughput.json"
gate_workload_throughput() {
  rm -f "$WORKLOAD_REPORT"  # the sharded gate must not read a stale one
  cmake --build "$BUILD_DIR" -j "$(nproc)" --target workload_throughput
  PAINTER_REPORT_DIR="$REPORT_DIR" "$BUILD_DIR"/bench/workload_throughput

  if [[ ! -f "$WORKLOAD_BASELINE" ]]; then
    cp "$WORKLOAD_REPORT" "$WORKLOAD_BASELINE"
    echo "No workload baseline; installed $WORKLOAD_REPORT as" \
         "$WORKLOAD_BASELINE — commit it."
  else
    tools/bench_compare.py "$WORKLOAD_BASELINE" "$WORKLOAD_REPORT" \
      --tolerance "$TOLERANCE"
    echo "Perf check passed against $WORKLOAD_BASELINE."
  fi
}

# Shard-count identity gate, on the report the workload gate wrote: the
# replay's canonical stats must be byte-identical at 1, 2, 4 and 8 shards.
gate_sharded_replay() {
  python3 - "$WORKLOAD_REPORT" <<'PY'
import json, sys
values = json.load(open(sys.argv[1]))["values"]
sharded = {n: values[f"wall_replay_sharded_s{n}_flows_per_s"]
           for n in (1, 2, 4, 8)}
print("replay flows/s by shard count: " +
      ", ".join(f"{n}: {v:.0f}" for n, v in sharded.items()))
if values.get("sharded_identical") != 1:
    sys.exit("FAIL: canonical stats diverged across shard counts")
PY
}

# --- Unified-timeline gate: one-clock interleaving + perf trajectory. ---
gate_unified_timeline() {
  cmake --build "$BUILD_DIR" -j "$(nproc)" --target unified_timeline
  PAINTER_REPORT_DIR="$REPORT_DIR" "$BUILD_DIR"/bench/unified_timeline
  local report="$REPORT_DIR/BENCH_unified_timeline.json"

  if [[ ! -f "$TIMELINE_BASELINE" ]]; then
    cp "$report" "$TIMELINE_BASELINE"
    echo "No timeline baseline; installed $report as" \
         "$TIMELINE_BASELINE — commit it."
  else
    tools/bench_compare.py "$TIMELINE_BASELINE" "$report" \
      --tolerance "$TOLERANCE"
    echo "Perf check passed against $TIMELINE_BASELINE."
  fi
}

# --- Chaos-under-load gate: detection-latency SLO + perf trajectory. ---
# The runner itself asserts the SLO in its exit status (invariant violations
# or loaded p99 > 8 RTTs fail here, not just drift vs the baseline).
gate_chaos_under_load() {
  cmake --build "$BUILD_DIR" -j "$(nproc)" --target chaos_runner
  PAINTER_REPORT_DIR="$REPORT_DIR" \
    "$BUILD_DIR"/bench/chaos_runner --under_load --seeds 10
  local report="$REPORT_DIR/BENCH_chaos_under_load.json"

  if [[ ! -f "$CHAOS_BASELINE" ]]; then
    cp "$report" "$CHAOS_BASELINE"
    echo "No chaos-under-load baseline; installed $report as" \
         "$CHAOS_BASELINE — commit it."
  else
    tools/bench_compare.py "$CHAOS_BASELINE" "$report" \
      --tolerance "$TOLERANCE"
    echo "Perf check passed against $CHAOS_BASELINE."
  fi
}

# --- Control-loop gate: reaction SLO + incremental recompute savings. ---
# The bench itself exits non-zero if a fault goes unanswered, the audit
# mismatches, or the cross-call cache never hit; the report re-assert below
# keeps the numeric gates visible in CI output.
gate_control_loop() {
  cmake --build "$BUILD_DIR" -j "$(nproc)" --target control_loop
  PAINTER_REPORT_DIR="$REPORT_DIR" "$BUILD_DIR"/bench/control_loop >/dev/null
  local report="$REPORT_DIR/BENCH_control_loop.json"
  python3 - "$report" <<'PY'
import json, sys
values = json.load(open(sys.argv[1]))["values"]
p99, slo = values["reaction.p99_ms"], values["reaction.slo_ms"]
ratio = values["savings.ratio"]
print(f"control loop: reaction p99 {p99:.0f} ms "
      f"({values['reaction.p99_rtts']:.1f} RTTs, SLO {slo:.0f} ms); "
      f"equal-reactivity savings {ratio:.1f}x")
if p99 > slo:
    sys.exit(f"FAIL: reaction p99 {p99:.0f} ms exceeds SLO {slo:.0f} ms")
if ratio < 5.0:
    sys.exit(f"FAIL: recompute savings {ratio:.1f}x < 5x")
if values["audit.mismatches"] != 0 or values["audit.checks"] <= 0:
    sys.exit("FAIL: incremental-vs-full audit not clean")
PY

  if [[ ! -f "$CONTROL_BASELINE" ]]; then
    cp "$report" "$CONTROL_BASELINE"
    echo "No control-loop baseline; installed $report as" \
         "$CONTROL_BASELINE — commit it."
  else
    tools/bench_compare.py "$CONTROL_BASELINE" "$report" \
      --tolerance "$TOLERANCE"
    echo "Perf check passed against $CONTROL_BASELINE."
  fi
}

mkdir -p "$REPORT_DIR"
for gate in micro_orchestrator catchment_pruning workload_throughput \
            sharded_replay unified_timeline chaos_under_load control_loop; do
  run_gate "$gate"
done

if [[ ${#FAILED[@]} -gt 0 ]]; then
  echo "perf_check: ${#FAILED[@]} gate(s) failed: ${FAILED[*]}" >&2
  exit 1
fi
echo "perf_check: all gates passed."
