// End-to-end observability check: run the learning loop on a small world
// with metrics and tracing enabled, then parse the emitted JSON and verify
// the acceptance-level telemetry is present — per-iteration realized
// benefit, CELF evaluation counts, model and evaluator counters — and that
// two identical runs produce byte-identical documents once the wall-clock
// fields are stripped (the determinism contract from DESIGN.md).
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "core/evaluate.h"
#include "core/orchestrator.h"
#include "core/sim_environment.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "tests/json_test_util.h"
#include "tests/world_fixture.h"

namespace painter {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in{path};
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

class ObsIntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    w_ = test::MakeWorld();
    inst_ = test::MakeInstance(w_);
  }

  // One full learning run with fixed seeds, instrumented registry-wide.
  // Returns the metrics snapshot taken right after the run.
  std::string RunLearningOnce(const std::string& trace_path) {
    obs::Metrics().ResetValues();
    if (!trace_path.empty()) obs::TraceSink::Enable(trace_path);

    core::OrchestratorConfig cfg;
    cfg.prefix_budget = 4;
    cfg.max_learning_iterations = 3;
    cfg.learning_stop_frac = -1.0;  // run all 3 iterations every time
    core::Orchestrator orch{inst_, cfg};
    core::SimEnvironment env{*w_.resolver, *w_.oracle, util::Rng{9}};
    const auto reports = orch.Learn(env);
    EXPECT_FALSE(reports.empty());
    last_realized_ms_ = reports.back().realized_ms;

    if (!trace_path.empty()) obs::TraceSink::Disable();
    return obs::Metrics().ToJson();
  }

  test::World w_;
  core::ProblemInstance inst_;
  double last_realized_ms_ = 0.0;
};

TEST_F(ObsIntegrationTest, MetricsCaptureLearningRun) {
  const std::string json = RunLearningOnce("");
  const test::JsonValue doc = test::ParseJson(json);

  const test::JsonValue& counters = doc.At("counters");
  // CELF work actually happened and was counted.
  EXPECT_GT(counters.At("orchestrator.celf.evaluations").AsNumber(), 0.0);
  EXPECT_GT(counters.At("orchestrator.celf.commits").AsNumber(), 0.0);
  EXPECT_EQ(counters.At("orchestrator.learn.iterations").AsNumber(), 3.0);
  EXPECT_GT(counters.At("orchestrator.model.observations").AsNumber(), 0.0);
  EXPECT_GT(counters.At("model.preferences_learned").AsNumber(), 0.0);
  EXPECT_GT(counters.At("evaluator.predict.calls").AsNumber(), 0.0);
  EXPECT_GT(counters.At("bgpsim.propagations").AsNumber(), 0.0);

  // Per-iteration learning telemetry, one gauge set per iteration.
  const test::JsonValue& gauges = doc.At("gauges");
  for (int iter = 0; iter < 3; ++iter) {
    const std::string prefix =
        "orchestrator.learn.iter" + std::to_string(iter) + ".";
    EXPECT_TRUE(gauges.Has(prefix + "realized_ms")) << prefix;
    EXPECT_TRUE(gauges.Has(prefix + "predicted_mean_ms")) << prefix;
    EXPECT_TRUE(gauges.Has(prefix + "prefixes_used")) << prefix;
    EXPECT_TRUE(gauges.Has(prefix + "preferences_total")) << prefix;
  }
  // The exported gauge agrees with the run's actual result.
  EXPECT_DOUBLE_EQ(
      gauges.At("orchestrator.learn.iter2.realized_ms").AsNumber(),
      last_realized_ms_);
  EXPECT_LE(gauges.At("orchestrator.prefix_budget.used").AsNumber(),
            gauges.At("orchestrator.prefix_budget.total").AsNumber());
}

// The per-iteration gauges describe one learning run: a shorter run after a
// longer one must not leave the longer run's tail in the export.
TEST_F(ObsIntegrationTest, IterationGaugesCoverOnlyTheLastRun) {
  obs::Metrics().ResetValues();
  const auto learn = [&](std::size_t iterations) {
    core::OrchestratorConfig cfg;
    cfg.prefix_budget = 4;
    cfg.max_learning_iterations = iterations;
    cfg.learning_patience = iterations;  // run every iteration
    core::Orchestrator orch{inst_, cfg};
    core::SimEnvironment env{*w_.resolver, *w_.oracle, util::Rng{9}};
    return orch.Learn(env);
  };
  ASSERT_EQ(learn(4).size(), 4u);
  const auto second = learn(2);
  ASSERT_EQ(second.size(), 2u);

  const test::JsonValue doc = test::ParseJson(obs::Metrics().ToJson());
  const test::JsonValue& gauges = doc.At("gauges");
  for (const char* leaf : {"realized_ms", "predicted_mean_ms",
                           "realized_positive_ms", "prefixes_used",
                           "preferences_total"}) {
    EXPECT_TRUE(gauges.Has(std::string{"orchestrator.learn.iter0."} + leaf));
    EXPECT_TRUE(gauges.Has(std::string{"orchestrator.learn.iter1."} + leaf));
    EXPECT_FALSE(gauges.Has(std::string{"orchestrator.learn.iter2."} + leaf));
    EXPECT_FALSE(gauges.Has(std::string{"orchestrator.learn.iter3."} + leaf));
  }
  EXPECT_DOUBLE_EQ(
      gauges.At("orchestrator.learn.iter1.realized_ms").AsNumber(),
      second.back().realized_ms);
  EXPECT_DOUBLE_EQ(gauges.At("orchestrator.learn.last.iteration").AsNumber(),
                   1.0);
}

TEST_F(ObsIntegrationTest, TraceFileIsLoadableAndCoversTheRun) {
  const std::string path = ::testing::TempDir() + "obs_integration_trace.json";
  RunLearningOnce(path);

  const test::JsonValue doc = test::ParseJson(ReadFile(path));
  ASSERT_TRUE(doc.IsArray());
  const auto& events = doc.AsArray();
  ASSERT_FALSE(events.empty());

  int compute_config = 0;
  int learn_iteration = 0;
  int predict = 0;
  for (const auto& e : events) {
    const std::string& name = e.At("name").AsString();
    EXPECT_TRUE(e.Has("ts"));
    EXPECT_TRUE(e.Has("ph"));
    if (name == "orchestrator.ComputeConfig") ++compute_config;
    if (name == "orchestrator.learn.iteration") ++learn_iteration;
    if (name == "orchestrator.Predict") ++predict;
  }
  EXPECT_GE(compute_config, 1);
  EXPECT_EQ(learn_iteration, 3);
  EXPECT_GE(predict, 1);
}

TEST_F(ObsIntegrationTest, IdenticalRunsProduceByteIdenticalReports) {
  const std::string trace_a = ::testing::TempDir() + "obs_det_a.json";
  const std::string trace_b = ::testing::TempDir() + "obs_det_b.json";
  const std::string metrics_a = RunLearningOnce(trace_a);
  const std::string metrics_b = RunLearningOnce(trace_b);

  // Metrics: every non-wall-clock value (counters, gauges, histogram counts)
  // must match exactly; stripping only removes the wall_* timing payloads.
  EXPECT_EQ(obs::StripVolatile(metrics_a), obs::StripVolatile(metrics_b));

  // Trace: same span sequence, differing only in ts/dur.
  EXPECT_EQ(obs::StripVolatile(ReadFile(trace_a)),
            obs::StripVolatile(ReadFile(trace_b)));
}

TEST_F(ObsIntegrationTest, RunReportRoundTripsThroughDisk) {
  const std::string metrics_json = RunLearningOnce("");

  obs::RunReport report{"integration"};
  report.SetSeed(11);
  report.AddConfig("stubs", 150.0);
  report.AddPhaseMs("learn", 1.0);
  report.AddValue("realized_ms", last_realized_ms_);
  report.AttachMetrics();

  const std::string path = ::testing::TempDir() + "obs_integration_report.json";
  report.Write(path);
  const test::JsonValue doc = test::ParseJson(ReadFile(path));
  EXPECT_EQ(doc.At("schema").AsString(), "painter.bench.v1");
  EXPECT_DOUBLE_EQ(doc.At("values").At("realized_ms").AsNumber(),
                   last_realized_ms_);
  // The attached metrics are the live registry — same counters the direct
  // snapshot saw.
  const test::JsonValue direct = test::ParseJson(metrics_json);
  EXPECT_EQ(doc.At("metrics")
                .At("counters")
                .At("orchestrator.celf.evaluations")
                .AsNumber(),
            direct.At("counters")
                .At("orchestrator.celf.evaluations")
                .AsNumber());
}

}  // namespace
}  // namespace painter
