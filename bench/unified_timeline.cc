// Unified-timeline bench: one DES clock, every component, workload-weighted
// benefit curves.
//
// Replays a diurnal heavy-tailed workload trace through the TM-Edge while
// advertisement rounds, DNS TTL refreshes, and a fault plan run as events on
// the same netsim::Simulator (src/timeline/unified.h). Each round publishes
// a new configuration version; resolvers pick it up with TTL lag; every
// arriving flow is scored under the version its resolver serves. The output
// is the Fig. 6b/6c benefit re-derived under realized bytes — the
// workload-weighted curve — next to the static per-UG weighted mean the
// closed-form evaluation reports (EXPERIMENTS.md).
//
// Determinism: every non-wall value in the report is a pure function of the
// seed, and `summary_fnv64` fingerprints the full CanonicalSummary — the
// same seed must produce byte-identical stripped reports across reruns
// (tests/timeline_test.cc and tools/ci_check.sh enforce this).
//
// Usage:
//   unified_timeline                     # full run (seed 7)
//   unified_timeline --seed 11
//   unified_timeline --shards 4          # sharded workload engine
//                                        # (0 = classic serial timeline)
//   unified_timeline --smoke             # small world + short trace
#include <cstdint>
#include <cstring>
#include <iostream>
#include <string>

#include "bench/bench_common.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/timeseries.h"
#include "timeline/unified.h"
#include "util/table.h"

namespace {

using namespace painter;

std::uint64_t Fnv64(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = 7;
  std::size_t shards = 0;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      shards = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::cerr << "usage: unified_timeline [--seed S] [--shards N] "
                   "[--smoke]\n";
      return 64;
    }
  }

  util::PrintFigureHeader(
      std::cout, "Unified timeline",
      "Advertisement rounds, DNS TTL refresh, fault plan, and workload "
      "replay interleaved on one DES clock; benefit weighted by realized "
      "bytes.");

  obs::Metrics().ResetValues();
  obs::RunReport report{"unified_timeline"};
  report.SetSeed(seed);
  report.AddConfig("smoke", smoke ? 1.0 : 0.0);

  timeline::UnifiedTimelineConfig cfg;
  cfg.seed = seed;
  // --shards is deliberately NOT recorded in the report: results are
  // identical across all shard counts >= 1 (tests pin this), and --shards 0
  // keeps the classic serial timeline — the committed baseline.
  cfg.shards = shards;
  if (smoke) {
    cfg.stubs = 80;
    cfg.pops = 5;
    cfg.transits = 10;
    cfg.regionals = 20;
    cfg.trace_duration_s = 180.0;
    cfg.mean_flows_per_s = 20.0;
    cfg.round_start_s = 10.0;
    cfg.round_interval_s = 60.0;
    cfg.max_rounds = 2;
    cfg.ttl_s = 30.0;
    cfg.curve_bucket_s = 30.0;
  }
  report.AddConfig("trace_duration_s", cfg.trace_duration_s);
  report.AddConfig("max_rounds", static_cast<double>(cfg.max_rounds));
  report.AddConfig("ttl_s", cfg.ttl_s);

  // Streaming telemetry for the whole run: occupancy, per-PoP utilization,
  // TTL staleness, per-round predicted/realized — attached to the report as
  // a painter.timeseries.v1 block (deterministic).
  obs::TimeseriesRegistry timeseries{{.period_s = smoke ? 5.0 : 10.0}};
  cfg.timeseries = &timeseries;

  timeline::UnifiedTimelineResult result;
  {
    const obs::RunReport::ScopedPhase phase{report, "run"};
    result = timeline::RunUnifiedTimeline(cfg);
  }
  report.AttachTimeseries(timeseries);

  std::cout << "Advertisement rounds (on the shared clock):\n";
  util::Table rounds{{"round", "t (s)", "predicted (ms)", "realized (ms)",
                      "realized+ (ms)", "prefixes"}};
  for (std::size_t i = 0; i < result.rounds.size(); ++i) {
    const auto& r = result.rounds[i];
    rounds.AddRow({std::to_string(i), util::Table::Num(r.t_s, 1),
                   util::Table::Num(r.predicted_mean_ms, 2),
                   util::Table::Num(r.realized_ms, 2),
                   util::Table::Num(r.realized_positive_ms, 2),
                   std::to_string(r.prefixes_used)});
  }
  rounds.Print(std::cout);

  std::cout << "\nWorkload-weighted benefit curve:\n";
  util::Table curve{{"t (s)", "GB", "benefit (ms)", "stale bytes %"}};
  for (const auto& c : result.curve) {
    const double stale_pct =
        c.bytes > 0.0 ? 100.0 * c.stale_bytes / c.bytes : 0.0;
    curve.AddRow({util::Table::Num(c.t_s, 0),
                  util::Table::Num(c.bytes / 1e9, 2),
                  util::Table::Num(c.benefit_ms, 2),
                  util::Table::Num(stale_pct, 1)});
  }
  curve.Print(std::cout);

  std::cout << "\nWorkload-weighted mean benefit: "
            << util::Table::Num(result.weighted_benefit_ms, 2)
            << " ms vs static per-UG mean "
            << util::Table::Num(result.static_mean_benefit_ms, 2)
            << " ms; stale-byte fraction "
            << util::Table::Num(100.0 * result.stale_byte_frac, 1) << "%\n";

  const std::string summary = timeline::CanonicalSummary(result);
  const std::uint64_t fingerprint = Fnv64(summary);

  report.AddValue("rounds", static_cast<double>(result.rounds.size()));
  report.AddValue("weighted_benefit_ms", result.weighted_benefit_ms);
  report.AddValue("static_mean_benefit_ms", result.static_mean_benefit_ms);
  report.AddValue("stale_byte_frac", result.stale_byte_frac);
  report.AddValue("workload.arrivals",
                  static_cast<double>(result.workload.arrivals));
  report.AddValue("workload.completed",
                  static_cast<double>(result.workload.completed));
  report.AddValue("workload.down_picks",
                  static_cast<double>(result.workload.down_picks));
  report.AddValue("workload.max_tick_skew_us",
                  static_cast<double>(result.workload.max_tick_skew_us));
  report.AddValue("ttl.refreshes", static_cast<double>(result.ttl.refreshes));
  report.AddValue("ttl.version_updates",
                  static_cast<double>(result.ttl.version_updates));
  report.AddValue("executed_events",
                  static_cast<double>(result.executed_events));
  report.AddValue("summary_fnv64_hi",
                  static_cast<double>(fingerprint >> 32));
  report.AddValue("summary_fnv64_lo",
                  static_cast<double>(fingerprint & 0xFFFFFFFFull));

  const std::string path = bench::ReportPath("unified_timeline");
  report.Write(path);
  std::cout << "\nReport: " << path << "\n";

  // Gates: >= 2 advertisement configurations actually interleaved with the
  // trace, tick grid exact, and the workload must have really run.
  const bool ok = result.rounds.size() >= 2 &&
                  result.workload.max_tick_skew_us == 0 &&
                  result.workload.arrivals > 0 && result.ttl.refreshes > 0;
  if (!ok) {
    std::cerr << "unified_timeline: acceptance gates failed\n";
    return 1;
  }
  return 0;
}
