#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "tests/json_test_util.h"

namespace painter::obs {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in{path};
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(MetricsRegistryTest, CounterAddAndValue) {
  MetricsRegistry reg;
  Counter& c = reg.GetCounter("a.b");
  EXPECT_EQ(c.Value(), 0u);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.Value(), 42u);
  EXPECT_EQ(reg.CounterValue("a.b"), 42u);
}

TEST(MetricsRegistryTest, GetOrCreateReturnsSameHandle) {
  MetricsRegistry reg;
  Counter& a = reg.GetCounter("x");
  Counter& b = reg.GetCounter("x");
  EXPECT_EQ(&a, &b);
}

// Runs `read` on its own thread until the writers have joined, and at least
// once: the export races the recorders, which is what TSan checks here.
template <typename Read>
void WhileWritersRun(std::vector<std::thread>& writers, Read read) {
  std::atomic<bool> done{false};
  std::thread reader{[&] {
    do {
      read();
    } while (!done.load());
  }};
  for (auto& w : writers) w.join();
  done.store(true);
  reader.join();
}

TEST(MetricsRegistryTest, CounterMergesAcrossThreads) {
  MetricsRegistry reg;
  Counter& c = reg.GetCounter("threads.total");
  constexpr int kThreads = 8;
  constexpr int kAdds = 10000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c] {
      for (int i = 0; i < kAdds; ++i) c.Add();
    });
  }
  std::uint64_t last_seen = 0;
  bool monotonic = true;
  WhileWritersRun(workers, [&] {
    EXPECT_FALSE(reg.ToJson().empty());
    const std::uint64_t v = c.Value();
    monotonic = monotonic && v >= last_seen;
    last_seen = v;
  });
  EXPECT_TRUE(monotonic);
  EXPECT_EQ(c.Value(), static_cast<std::uint64_t>(kThreads) * kAdds);
  EXPECT_EQ(reg.CounterValue("threads.total"), c.Value());
}

// A registry built where a destroyed one lived shares nothing with it: the
// values live in the new registry's own handles.
TEST(MetricsRegistryTest, RegistryAtAFreedAddressCountsFromZero) {
  std::optional<MetricsRegistry> reg;
  reg.emplace();
  const MetricsRegistry* first = &*reg;
  Counter& a = reg->GetCounter("reuse.count");
  EXPECT_EQ(a.Value(), 0u);
  a.Add(5);
  EXPECT_EQ(a.Value(), 5u);
  reg.emplace();  // destroys the first registry, builds the second in place
  ASSERT_EQ(&*reg, first);
  Counter& b = reg->GetCounter("reuse.count");
  EXPECT_EQ(b.Value(), 0u);
  b.Add(3);
  EXPECT_EQ(b.Value(), 3u);
  EXPECT_EQ(reg->CounterValue("reuse.count"), 3u);
}

TEST(MetricsRegistryTest, GaugeLastWriteWins) {
  MetricsRegistry reg;
  Gauge& g = reg.GetGauge("g");
  g.Set(1.5);
  g.Set(-2.25);
  EXPECT_DOUBLE_EQ(g.Value(), -2.25);
  EXPECT_DOUBLE_EQ(reg.GaugeValue("g"), -2.25);
}

TEST(MetricsRegistryTest, UnsetGaugesDropsOnlyThePrefix) {
  MetricsRegistry reg;
  Gauge& a0 = reg.GetGauge("run.iter0.v");
  Gauge& a1 = reg.GetGauge("run.iter1.v");
  reg.GetGauge("run.last.v").Set(3.0);
  a0.Set(1.0);
  a1.Set(2.0);
  reg.UnsetGauges("run.iter");
  EXPECT_DOUBLE_EQ(a1.Value(), 0.0);
  const test::JsonValue doc = test::ParseJson(reg.ToJson());
  const test::JsonValue& gauges = doc.At("gauges");
  EXPECT_FALSE(gauges.Has("run.iter0.v"));
  EXPECT_FALSE(gauges.Has("run.iter1.v"));
  EXPECT_DOUBLE_EQ(gauges.At("run.last.v").AsNumber(), 3.0);
  // The cached handle still works and brings its name back.
  a0.Set(5.0);
  EXPECT_DOUBLE_EQ(
      test::ParseJson(reg.ToJson()).At("gauges").At("run.iter0.v").AsNumber(),
      5.0);
}

TEST(MetricsRegistryTest, HistogramBucketBoundaries) {
  MetricsRegistry reg;
  Histogram& h = reg.GetHistogram(
      "h", HistogramSpec{.min_bound = 1.0, .growth = 2.0, .buckets = 4});
  h.Record(0.5);   // underflow -> bucket 0
  h.Record(1.5);   // [1,2) -> bucket 1
  h.Record(3.0);   // [2,4) -> bucket 2
  h.Record(5.0);   // [4,..) -> bucket 3
  h.Record(1e9);   // overflow clamps to the last bucket
  h.Record(std::nan(""));  // NaN lands in the underflow bucket
  h.Record(std::numeric_limits<double>::infinity());  // overflow too
  EXPECT_EQ(h.Count(), 7u);
  const auto buckets = h.BucketCounts();
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_EQ(buckets[0], 2u);
  EXPECT_EQ(buckets[1], 1u);
  EXPECT_EQ(buckets[2], 1u);
  EXPECT_EQ(buckets[3], 3u);
}

TEST(MetricsRegistryTest, HistogramMergesAcrossThreads) {
  MetricsRegistry reg;
  Histogram& h = reg.GetHistogram("h");
  constexpr int kThreads = 4;
  constexpr int kRecords = 5000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&h] {
      for (int i = 0; i < kRecords; ++i) h.Record(static_cast<double>(i));
    });
  }
  std::uint64_t last_seen = 0;
  bool monotonic = true;
  WhileWritersRun(workers, [&] {
    EXPECT_FALSE(reg.ToJson().empty());
    const std::uint64_t n = h.Count();
    monotonic = monotonic && n >= last_seen;
    last_seen = n;
  });
  EXPECT_TRUE(monotonic);
  EXPECT_EQ(h.Count(), static_cast<std::uint64_t>(kThreads) * kRecords);
  std::uint64_t total = 0;
  for (const std::uint64_t b : h.BucketCounts()) total += b;
  EXPECT_EQ(total, h.Count());
}

TEST(MetricsRegistryTest, KindMismatchThrows) {
  MetricsRegistry reg;
  reg.GetCounter("name");
  EXPECT_THROW(reg.GetGauge("name"), std::logic_error);
  EXPECT_THROW(reg.GetHistogram("name"), std::logic_error);
  reg.GetGauge("g");
  EXPECT_THROW(reg.GetCounter("g"), std::logic_error);
}

TEST(MetricsRegistryTest, UnknownNameThrows) {
  MetricsRegistry reg;
  EXPECT_THROW((void)reg.CounterValue("nope"), std::out_of_range);
  EXPECT_THROW((void)reg.GaugeValue("nope"), std::out_of_range);
}

TEST(MetricsRegistryTest, ResetValuesKeepsHandlesValid) {
  MetricsRegistry reg;
  Counter& c = reg.GetCounter("c");
  Gauge& g = reg.GetGauge("g");
  Histogram& h = reg.GetHistogram("h");
  c.Add(7);
  g.Set(3.0);
  h.Record(2.0);
  reg.ResetValues();
  EXPECT_EQ(c.Value(), 0u);
  EXPECT_DOUBLE_EQ(g.Value(), 0.0);
  EXPECT_EQ(h.Count(), 0u);
  // The same handles keep working after the reset.
  c.Add(2);
  h.Record(1.0);
  EXPECT_EQ(c.Value(), 2u);
  EXPECT_EQ(h.Count(), 1u);
}

TEST(MetricsRegistryTest, JsonIsValidAndComplete) {
  MetricsRegistry reg;
  reg.GetCounter("b.count").Add(3);
  reg.GetCounter("a.zero");  // registered but never incremented
  reg.GetGauge("g.v").Set(1.5);
  reg.GetHistogram("h.wait",
                   HistogramSpec{.min_bound = 1.0, .growth = 2.0, .buckets = 3})
      .Record(1.5);
  const std::string json = reg.ToJson();
  const test::JsonValue doc = test::ParseJson(json);

  EXPECT_EQ(doc.At("counters").At("b.count").AsNumber(), 3.0);
  EXPECT_EQ(doc.At("counters").At("a.zero").AsNumber(), 0.0);
  EXPECT_DOUBLE_EQ(doc.At("gauges").At("g.v").AsNumber(), 1.5);
  const test::JsonValue& h = doc.At("histograms").At("h.wait");
  EXPECT_EQ(h.At("count").AsNumber(), 1.0);
  EXPECT_EQ(h.At("min_bound").AsNumber(), 1.0);
  EXPECT_EQ(h.At("growth").AsNumber(), 2.0);
  ASSERT_TRUE(h.At("buckets").IsArray());
  EXPECT_EQ(h.At("buckets").AsArray().size(), 3u);

  // Section entries are sorted by metric name in the raw output.
  EXPECT_LT(json.find("\"a.zero\""), json.find("\"b.count\""));
}

TEST(MetricsRegistryTest, WallClockHistogramUsesWallKeys) {
  MetricsRegistry reg;
  reg.GetHistogram("q.wait_us", HistogramSpec{.min_bound = 1.0,
                                              .growth = 4.0,
                                              .buckets = 4,
                                              .wall_clock = true})
      .Record(10.0);
  const std::string json = reg.ToJson();
  const test::JsonValue doc = test::ParseJson(json);
  const test::JsonValue& h = doc.At("histograms").At("q.wait_us");
  // Value-bearing fields are wall_-prefixed so StripVolatile removes them;
  // the sample count is workload-determined and stays.
  EXPECT_TRUE(h.Has("wall_buckets"));
  EXPECT_TRUE(h.Has("wall_sum"));
  EXPECT_FALSE(h.Has("buckets"));
  EXPECT_FALSE(h.Has("sum"));
  EXPECT_EQ(h.At("count").AsNumber(), 1.0);
}

TEST(RunReportTest, SchemaAndContents) {
  MetricsRegistry reg;
  reg.GetCounter("c").Add(5);

  RunReport report{"unit"};
  report.SetSeed(99);
  report.AddConfig("stubs", 600.0);
  report.AddConfig("mode", std::string{"serial"});
  report.AddPhaseMs("build", 12.5);
  {
    const RunReport::ScopedPhase phase{report, "work"};
  }
  report.AddValue("speedup", 2.0);
  report.AttachMetrics(reg);

  const std::string json = report.ToJson();
  const test::JsonValue doc = test::ParseJson(json);
  EXPECT_EQ(doc.At("schema").AsString(), "painter.bench.v1");
  EXPECT_EQ(doc.At("name").AsString(), "unit");
  EXPECT_EQ(doc.At("seed").AsNumber(), 99.0);
  EXPECT_EQ(doc.At("config").At("stubs").AsNumber(), 600.0);
  EXPECT_EQ(doc.At("config").At("mode").AsString(), "serial");
  const auto& phases = doc.At("phases").AsArray();
  ASSERT_EQ(phases.size(), 2u);
  EXPECT_EQ(phases[0].At("name").AsString(), "build");
  EXPECT_DOUBLE_EQ(phases[0].At("wall_ms").AsNumber(), 12.5);
  EXPECT_EQ(phases[1].At("name").AsString(), "work");
  EXPECT_DOUBLE_EQ(doc.At("values").At("speedup").AsNumber(), 2.0);
  EXPECT_EQ(doc.At("metrics").At("counters").At("c").AsNumber(), 5.0);
}

TEST(RunReportTest, WriteRoundTripsAndThrowsOnMissingDirectory) {
  RunReport report{"unit"};
  report.AddValue("speedup", 2.0);
  const std::string path = ::testing::TempDir() + "obs_report_write.json";
  report.Write(path);
  EXPECT_EQ(ReadFile(path), report.ToJson() + "\n");

  // A bench pointed at a report directory that does not exist must fail
  // loudly, not announce a file that was never written.
  const std::string missing =
      ::testing::TempDir() + "obs_no_such_dir/BENCH_unit.json";
  try {
    report.Write(missing);
    ADD_FAILURE() << "Write to a missing directory did not throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find(missing), std::string::npos)
        << e.what();
  }
}

TEST(StripVolatileTest, ZeroesWallClockFieldsOnly) {
  MetricsRegistry reg;
  reg.GetCounter("kept").Add(7);
  reg.GetHistogram("wall.h", HistogramSpec{.wall_clock = true}).Record(3.0);

  RunReport report{"strip"};
  report.AddPhaseMs("phase", 123.456);
  report.AddValue("kept_value", 9.0);
  report.AttachMetrics(reg);

  const std::string stripped = StripVolatile(report.ToJson());
  const test::JsonValue doc = test::ParseJson(stripped);
  EXPECT_DOUBLE_EQ(doc.At("phases").AsArray()[0].At("wall_ms").AsNumber(),
                   0.0);
  EXPECT_DOUBLE_EQ(doc.At("values").At("kept_value").AsNumber(), 9.0);
  const test::JsonValue& h = doc.At("metrics").At("histograms").At("wall.h");
  EXPECT_DOUBLE_EQ(h.At("wall_sum").AsNumber(), 0.0);
  EXPECT_TRUE(h.At("wall_buckets").AsArray().empty());
  EXPECT_EQ(h.At("count").AsNumber(), 1.0);
  EXPECT_EQ(doc.At("metrics").At("counters").At("kept").AsNumber(), 7.0);

  // Idempotent: stripping a stripped document changes nothing.
  EXPECT_EQ(StripVolatile(stripped), stripped);
}

TEST(StripVolatileTest, HandlesTraceEvents) {
  const std::string trace =
      R"([{"name":"a","ph":"X","ts":12.5,"dur":3.25,"pid":1,"tid":0}])";
  const std::string stripped = StripVolatile(trace);
  const test::JsonValue doc = test::ParseJson(stripped);
  EXPECT_DOUBLE_EQ(doc.AsArray()[0].At("ts").AsNumber(), 0.0);
  EXPECT_DOUBLE_EQ(doc.AsArray()[0].At("dur").AsNumber(), 0.0);
  EXPECT_EQ(doc.AsArray()[0].At("name").AsString(), "a");
}

TEST(TraceTest, EmitsValidChromeTraceJson) {
  const std::string path = ::testing::TempDir() + "obs_trace_test.json";
  TraceSink::Enable(path);
  ASSERT_TRUE(TraceSink::Enabled());
  {
    const TraceSpan outer{"outer"};
    { const TraceSpan inner{"inner", "test"}; }
    TraceSink::Instant("marker");
  }
  TraceSink::Disable();
  EXPECT_FALSE(TraceSink::Enabled());

  const std::string text = ReadFile(path);
  const test::JsonValue doc = test::ParseJson(text);
  ASSERT_TRUE(doc.IsArray());
  const auto& events = doc.AsArray();
  ASSERT_EQ(events.size(), 3u);
  // Spans complete innermost-first; the instant fires before `outer` closes.
  EXPECT_EQ(events[0].At("name").AsString(), "inner");
  EXPECT_EQ(events[0].At("ph").AsString(), "X");
  EXPECT_EQ(events[0].At("cat").AsString(), "test");
  EXPECT_GE(events[0].At("dur").AsNumber(), 0.0);
  EXPECT_EQ(events[1].At("name").AsString(), "marker");
  EXPECT_EQ(events[1].At("ph").AsString(), "i");
  EXPECT_EQ(events[2].At("name").AsString(), "outer");
  for (const auto& e : events) {
    EXPECT_TRUE(e.Has("ts"));
    EXPECT_TRUE(e.Has("pid"));
    EXPECT_TRUE(e.Has("tid"));
  }
}

TEST(TraceTest, DisabledSpansWriteNothing) {
  const std::string path = ::testing::TempDir() + "obs_trace_off.json";
  TraceSink::Enable(path);
  TraceSink::Disable();
  const std::string finalized = ReadFile(path);
  {
    const TraceSpan span{"ignored"};
    TraceSink::Instant("also_ignored");
  }
  EXPECT_EQ(ReadFile(path), finalized);  // file untouched while disabled
  const test::JsonValue doc = test::ParseJson(finalized);
  EXPECT_TRUE(doc.IsArray());
  EXPECT_TRUE(doc.AsArray().empty());
}

TEST(TraceTest, ReEnableReplacesFile) {
  const std::string path = ::testing::TempDir() + "obs_trace_reuse.json";
  TraceSink::Enable(path);
  { const TraceSpan span{"first"}; }
  TraceSink::Enable(path);  // finalizes, then truncates and restarts
  { const TraceSpan span{"second"}; }
  TraceSink::Disable();
  const test::JsonValue doc = test::ParseJson(ReadFile(path));
  ASSERT_EQ(doc.AsArray().size(), 1u);
  EXPECT_EQ(doc.AsArray()[0].At("name").AsString(), "second");
}

}  // namespace
}  // namespace painter::obs
