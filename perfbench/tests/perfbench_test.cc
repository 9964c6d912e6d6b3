// The benchmark's own tests: the composed run reproduces the library's
// runner, and the statistics helpers and metric names are well formed.
#include <fstream>
#include <set>
#include <sstream>

#include <gtest/gtest.h>

#include "common/json.h"
#include "probe.h"
#include "runner/runner.h"
#include "scenario.h"
#include "stats.h"

namespace perfbench {
namespace {

using chiller::kMillisecond;
using chiller::runner::ScenarioRunner;
using chiller::runner::ScenarioSpec;

/// Runs `spec` through the benchmark (delegating entries, composed phases)
/// and through ScenarioRunner::Run with the plain registry names, and
/// expects identical measure-window statistics.
void ExpectComposedRunMatchesRunner(const Workload& wl, ScenarioSpec spec) {
  auto bench = RunScenario(wl, spec, /*traced=*/false);
  ASSERT_TRUE(bench.ok()) << bench.status().ToString();
  EXPECT_TRUE(bench.value().violations.empty())
      << bench.value().violations.front();

  spec.workload = spec.workload.substr(std::string("bench-").size());
  spec.protocol = "chiller";
  auto plain = ScenarioRunner::Run(spec);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  const chiller::cc::RunStats& s = plain.value().stats;
  const SimOutcome& o = bench.value().sim;
  EXPECT_GT(o.commits, 0u);
  EXPECT_EQ(o.commits, s.TotalCommits());
  EXPECT_EQ(o.attempts, s.TotalAttempts());
  EXPECT_EQ(o.conflict_aborts, s.TotalConflictAborts());
  EXPECT_EQ(o.shed, s.shed);
  EXPECT_EQ(o.admitted, s.admitted);
  EXPECT_EQ(o.window, s.window);
  EXPECT_DOUBLE_EQ(o.Tps(), s.Throughput());
}

TEST(ComposedRun, ClosedLoopReproducesScenarioRunner) {
  auto wl = MakeWorkload("tpcc-closed", 3);
  ASSERT_TRUE(wl.ok());
  ScenarioSpec spec = wl.value().points.front();
  spec.nodes = 2;
  spec.engines_per_node = 2;
  spec.shards = 2;
  spec.measure = 2 * kMillisecond;
  ExpectComposedRunMatchesRunner(wl.value(), spec);
}

TEST(ComposedRun, OpenLoopReproducesScenarioRunner) {
  auto wl = MakeWorkload("ycsb-hot-open", 3);
  ASSERT_TRUE(wl.ok());
  ScenarioSpec spec = wl.value().points.back();
  spec.measure = 2 * kMillisecond;
  ExpectComposedRunMatchesRunner(wl.value(), spec);
}

TEST(ComposedRun, ContinuousRunReproducesScenarioRunner) {
  auto wl = MakeWorkload("adaptive-shift", 3);
  ASSERT_TRUE(wl.ok());
  ScenarioSpec spec = wl.value().points.front();
  spec.nodes = 2;
  spec.engines_per_node = 2;
  spec.measure = 6 * kMillisecond;
  ExpectComposedRunMatchesRunner(wl.value(), spec);
}

// The composed run builds the controller's options from the spec itself, so
// every controller knob a spec can set must reach it.
TEST(ComposedRun, GovernedContinuousRunReproducesScenarioRunner) {
  auto wl = MakeWorkload("adaptive-shift", 3);
  ASSERT_TRUE(wl.ok());
  ScenarioSpec spec = wl.value().points.front();
  spec.nodes = 2;
  spec.engines_per_node = 2;
  spec.measure = 6 * kMillisecond;
  // One-record batches and short epochs keep each relayout running across
  // several epochs, so the governor widens and narrows the streams.
  spec.controller_period = 50 * chiller::kMicrosecond;
  spec.migrate_batch_records = 1;
  spec.governor = true;
  spec.governor_max_streams = 4;
  ExpectComposedRunMatchesRunner(wl.value(), spec);
}

TEST(ComposedRun, ShadowContinuousRunReproducesScenarioRunner) {
  auto wl = MakeWorkload("adaptive-shift", 3);
  ASSERT_TRUE(wl.ok());
  ScenarioSpec spec = wl.value().points.front();
  spec.nodes = 2;
  spec.engines_per_node = 2;
  spec.measure = 6 * kMillisecond;
  spec.rearm_threshold = 0.0;
  spec.shadow = true;
  ExpectComposedRunMatchesRunner(wl.value(), spec);
}

TEST(ComposedRun, TracingAndShardsLeaveOutcomesUnchanged) {
  auto wl = MakeWorkload("tpcc-closed", 5);
  ASSERT_TRUE(wl.ok());
  ScenarioSpec spec = wl.value().points.front();
  spec.nodes = 2;
  spec.engines_per_node = 2;
  spec.measure = 2 * kMillisecond;
  spec.shards = 1;
  auto one = RunScenario(wl.value(), spec, /*traced=*/false);
  spec.shards = 2;
  auto two = RunScenario(wl.value(), spec, /*traced=*/true);
  ASSERT_TRUE(one.ok() && two.ok());
  EXPECT_TRUE(one.value().sim == two.value().sim);
  EXPECT_GT(two.value().trace.txns, 0u);
}

TEST(ResponseTime, RunsFromTheEarlierOfDrawAndEnqueue) {
  // Two engines: logical id L was drawn by engine (L-1) % 2 as its
  // ((L-1) / 2)-th draw.
  std::vector<Probe::EngineCells> cells(2);
  cells[0].drawn_at = {100, 400};  // logical ids 1, 3
  cells[1].drawn_at = {120};       // logical id 2
  // Id 1: drawn on engine 0 at arrival, routed to engine 1, queued there
  // after the hop at 150: due at the draw.
  cells[1].finished.push_back({.logical_id = 1, .queued_at = 150, .end = 300});
  // Id 2: drawn and queued at arrival on its own engine.
  cells[1].finished.push_back({.logical_id = 2, .queued_at = 120, .end = 220});
  // Id 3: a plain open loop queues at arrival (380) and draws at launch.
  cells[0].finished.push_back({.logical_id = 3, .queued_at = 380, .end = 500});
  EXPECT_EQ(Probe::ResponseTimes(cells),
            (std::vector<uint64_t>{120, 200, 100}));
}

TEST(Percentile, HighestWithTenSamplesBeyond) {
  EXPECT_EQ(HighestReportablePercentile(0), 0.0);
  EXPECT_EQ(HighestReportablePercentile(19), 0.0);
  EXPECT_EQ(HighestReportablePercentile(20), 50.0);
  EXPECT_EQ(HighestReportablePercentile(99), 50.0);
  EXPECT_EQ(HighestReportablePercentile(100), 90.0);
  EXPECT_EQ(HighestReportablePercentile(999), 90.0);
  EXPECT_EQ(HighestReportablePercentile(1000), 99.0);
  EXPECT_EQ(HighestReportablePercentile(9999), 99.0);
  EXPECT_EQ(HighestReportablePercentile(10000), 99.9);
  EXPECT_EQ(HighestReportablePercentile(100000), 99.99);
  EXPECT_EQ(HighestReportablePercentile(5000000), 99.999);
}

TEST(Percentile, NearestRankAndNeverServed) {
  std::vector<uint64_t> v;
  for (uint64_t i = 1; i <= 100; ++i) v.push_back(i * 1000);
  EXPECT_EQ(PercentileOf(v, 50.0), 50000u);
  EXPECT_EQ(PercentileOf(v, 99.0), 99000u);
  EXPECT_DOUBLE_EQ(PercentileUs(v, 100.0), 100.0);
  v.back() = kNeverServed;
  EXPECT_DOUBLE_EQ(PercentileUs(v, 99.0), 99.0);
  EXPECT_DOUBLE_EQ(PercentileUs(v, 100.0), kBeyondLimitUs);
  EXPECT_DOUBLE_EQ(PercentileUs({}, 99.0), 0.0);
}

TEST(MaxTpsAtSlo, HighestRateMeetingLimitWithNothingShed) {
  const std::vector<RatePoint> grid = {
      {.offered_tps = 1e6, .p99_us = 20.0, .shed = 0},
      {.offered_tps = 2e6, .p99_us = 35.0, .shed = 0},
      {.offered_tps = 3e6, .p99_us = 39.0, .shed = 4},  // shed: disqualified
      {.offered_tps = 4e6, .p99_us = 900.0, .shed = 0},
  };
  EXPECT_DOUBLE_EQ(MaxTpsAtSlo(grid, 40.0), 2e6);
  EXPECT_DOUBLE_EQ(MaxTpsAtSlo(grid, 1000.0), 4e6);
  EXPECT_DOUBLE_EQ(MaxTpsAtSlo(grid, 10.0), 0.0);
  EXPECT_DOUBLE_EQ(MaxTpsAtSlo({}, 40.0), 0.0);
}

TEST(MetricNames, BenchmarkJsonNamesAreWellFormedAndUnique) {
  std::ifstream in(PERFBENCH_BENCHMARK_JSON);
  ASSERT_TRUE(in.good()) << PERFBENCH_BENCHMARK_JSON;
  std::stringstream text;
  text << in.rdbuf();
  auto doc = chiller::Json::Parse(text.str());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  std::set<std::string> seen;
  for (const char* section : {"workloads", "end_to_end", "per_layer"}) {
    const chiller::Json* list = doc.value().Get(section);
    ASSERT_NE(list, nullptr) << section;
    for (const chiller::Json& entry : list->AsArray()) {
      const std::string& name = entry.Get("name")->AsString();
      EXPECT_TRUE(ValidMetricName(name)) << name;
      EXPECT_LE(name.size(), 64u) << name;
      EXPECT_TRUE(seen.insert(name).second) << "duplicate " << name;
    }
  }
  for (const std::string& w : WorkloadNames()) EXPECT_TRUE(seen.contains(w));
  EXPECT_FALSE(ValidMetricName(""));
  EXPECT_FALSE(ValidMetricName("p99 us"));
  EXPECT_FALSE(ValidMetricName("rate[0]"));
}

}  // namespace
}  // namespace perfbench
