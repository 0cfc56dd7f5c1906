// Shared world construction for the figure-regeneration benches.
//
// Two standard worlds mirror the paper's two deployments:
//  - AzureScaleWorld: the "simulated Azure" setting — larger deployment,
//    latencies estimated via geolocated targets (Fig. 6a, 9, 11, 12, 14, 15).
//  - PrototypeWorld: the PEERING/Vultr-like prototype — 25 PoPs, latencies
//    measured by actually advertising into the BGP simulation (Fig. 6b, 6c, 7).
//
// Sizes are chosen so every bench finishes in seconds on one core while
// keeping thousands of UGs and hundreds of sessions in play.
#pragma once

#include <cstddef>
#include <cstdlib>
#include <memory>
#include <string>

#include "cloudsim/deployment.h"
#include "cloudsim/ingress.h"
#include "core/problem.h"
#include "measure/geolocation.h"
#include "measure/latency.h"
#include "obs/report.h"
#include "topo/generator.h"

namespace painter::bench {

// Where a bench's JSON run report lands: $PAINTER_REPORT_DIR/BENCH_<name>.json
// when the variable is set, else BENCH_<name>.json in the working directory.
// Schema: painter.bench.v1 (see obs/report.h). Every figure bench and
// micro_orchestrator write one of these so perf and result trajectories can
// be tracked across commits without scraping stdout.
inline std::string ReportPath(const std::string& name) {
  const char* dir = std::getenv("PAINTER_REPORT_DIR");
  std::string path = dir != nullptr ? std::string{dir} + "/" : std::string{};
  path += "BENCH_" + name + ".json";
  return path;
}

// Parses a --shards value into `shards`: a power of two in [1, 256], the
// counts netsim::ShardedSimulator accepts. Returns false, leaving `shards`
// as it was, on anything else (0 included).
inline bool ParseShards(const char* arg, std::size_t& shards) {
  const std::size_t n = std::strtoull(arg, nullptr, 10);
  if (n == 0 || n > 256 || (n & (n - 1)) != 0) return false;
  shards = n;
  return true;
}

// The Internet is heap-allocated because the resolver/oracle hold pointers
// into it; moving a BenchWorld must not relocate it.
struct BenchWorld {
  std::unique_ptr<topo::Internet> internet_ptr;
  std::unique_ptr<cloudsim::Deployment> deployment;
  std::unique_ptr<cloudsim::PolicyCatalog> catalog;
  std::unique_ptr<cloudsim::IngressResolver> resolver;
  std::unique_ptr<measure::LatencyOracle> oracle;

  [[nodiscard]] const topo::Internet& internet() const { return *internet_ptr; }
};

inline BenchWorld MakeBenchWorld(std::uint64_t seed, std::size_t stubs,
                                 std::size_t pops, std::size_t transits = 40,
                                 std::size_t regionals = 120) {
  topo::InternetConfig icfg;
  icfg.seed = seed;
  icfg.tier1_count = 8;
  icfg.transit_count = transits;
  icfg.regional_count = regionals;
  icfg.stub_count = stubs;

  BenchWorld w;
  w.internet_ptr =
      std::make_unique<topo::Internet>(topo::GenerateInternet(icfg));

  cloudsim::DeploymentConfig dcfg;
  dcfg.seed = seed + 1;
  dcfg.pop_count = pops;
  w.deployment = std::make_unique<cloudsim::Deployment>(
      cloudsim::BuildDeployment(*w.internet_ptr, dcfg));
  w.catalog =
      std::make_unique<cloudsim::PolicyCatalog>(*w.internet_ptr, *w.deployment);
  w.resolver =
      std::make_unique<cloudsim::IngressResolver>(*w.internet_ptr, *w.deployment);
  measure::OracleConfig ocfg;
  ocfg.seed = seed + 2;
  w.oracle = std::make_unique<measure::LatencyOracle>(*w.internet_ptr,
                                                      *w.deployment, ocfg);
  return w;
}

// The "simulated Azure" world: broad deployment, many UGs.
inline BenchWorld AzureScaleWorld(std::uint64_t seed = 101) {
  return MakeBenchWorld(seed, /*stubs=*/1200, /*pops=*/20);
}

// The PEERING-prototype world: 25 PoPs like the Vultr deployment.
inline BenchWorld PrototypeWorld(std::uint64_t seed = 202) {
  return MakeBenchWorld(seed, /*stubs=*/800, /*pops=*/25);
}

}  // namespace painter::bench
