// Tests for the scenario subsystem: OptionMap, the workload/protocol
// registries, ScenarioRunner wiring, the ycsb workload's knobs, and
// SweepExecutor ordering.
#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <memory>
#include <string>

#include "runner/options.h"
#include "runner/registry.h"
#include "runner/runner.h"
#include "runner/sweep.h"
#include "workload/ycsb.h"

namespace chiller::runner {
namespace {

// ---------------------------------------------------------------------------
// OptionMap
// ---------------------------------------------------------------------------

TEST(OptionMapTest, TypedRoundtrips) {
  OptionMap o;
  o.Set("name", "zipf");
  o.Set("theta", 0.75);
  o.Set("ops", 42);
  o.Set("flag", true);
  EXPECT_EQ(o.GetString("name", ""), "zipf");
  EXPECT_DOUBLE_EQ(o.GetDouble("theta", 0.0), 0.75);
  EXPECT_EQ(o.GetInt("ops", 0), 42u);
  EXPECT_TRUE(o.GetBool("flag", false));
  EXPECT_TRUE(o.Has("theta"));
  EXPECT_FALSE(o.Has("absent"));
  EXPECT_EQ(o.GetInt("absent", 7), 7u);
}

TEST(OptionMapTest, DoubleRoundtripIsExact) {
  OptionMap o;
  const double v = 0.1234567890123456789;  // forces the %.17g path
  o.Set("x", v);
  EXPECT_EQ(o.GetDouble("x", 0.0), v);
}

TEST(OptionMapTest, KeysAreSortedAndToStringStable) {
  OptionMap o;
  o.Set("b", 2);
  o.Set("a", 1);
  EXPECT_EQ(o.Keys(), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(o.ToString(), "a=1 b=2");
}

TEST(OptionMapTest, ExpectOnlyFlagsTypos) {
  OptionMap o;
  o.Set("theta", 0.5);
  o.Set("thetta", 0.5);
  EXPECT_TRUE(o.ExpectOnly({"theta"}).IsInvalidArgument());
  const Status st = o.ExpectOnly({"theta", "thetta"});
  EXPECT_TRUE(st.ok()) << st.ToString();
}

// ---------------------------------------------------------------------------
// Registries
// ---------------------------------------------------------------------------

TEST(RegistryTest, BuiltinsAreRegistered) {
  auto& workloads = WorkloadRegistry::Global();
  for (const char* name : {"tpcc", "instacart", "flight", "ycsb"}) {
    EXPECT_TRUE(workloads.Has(name)) << name;
  }
  auto& protocols = ProtocolRegistry::Global();
  for (const char* name : {"2pl", "occ", "chiller", "chiller-plain"}) {
    EXPECT_TRUE(protocols.Has(name)) << name;
  }
}

TEST(RegistryTest, DuplicateRegistrationIsRejected) {
  auto st = WorkloadRegistry::Global().Register(
      "tpcc", [](const ScenarioSpec&) -> StatusOr<std::unique_ptr<WorkloadBundle>> {
        return Status::Internal("never called");
      });
  EXPECT_TRUE(st.IsFailedPrecondition());
  EXPECT_TRUE(ProtocolRegistry::Global()
                  .Register("2pl",
                            [](cc::Cluster*, const partition::RecordPartitioner*,
                               cc::ReplicationManager*)
                                -> std::unique_ptr<cc::Protocol> {
                              return nullptr;
                            })
                  .IsFailedPrecondition());
}

TEST(RegistryTest, UnknownWorkloadNamesAlternatives) {
  ScenarioSpec spec;
  spec.workload = "not-a-workload";
  auto result = ScenarioRunner::Run(spec);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
  EXPECT_NE(result.status().message().find("ycsb"), std::string::npos);
}

TEST(RegistryTest, UnknownOptionFailsTheScenario) {
  ScenarioSpec spec;
  spec.workload = "ycsb";
  spec.nodes = 2;
  spec.options.Set("not-a-knob", 1);
  auto result = ScenarioRunner::Run(spec);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
  EXPECT_NE(result.status().message().find("not-a-knob"), std::string::npos);
}

// ---------------------------------------------------------------------------
// ScenarioRunner
// ---------------------------------------------------------------------------

ScenarioSpec SmallYcsb() {
  ScenarioSpec spec;
  spec.workload = "ycsb";
  spec.protocol = "chiller";
  spec.nodes = 3;
  spec.engines_per_node = 1;
  spec.concurrency = 2;
  spec.seed = 11;
  spec.warmup = kMillisecond;
  spec.measure = 4 * kMillisecond;
  spec.options.Set("keys_per_partition", 2000);
  spec.options.Set("theta", 0.9);
  return spec;
}

TEST(ScenarioRunnerTest, ValidateRejectsDegenerateSpecs) {
  ScenarioSpec spec = SmallYcsb();
  spec.nodes = 0;
  EXPECT_TRUE(ScenarioRunner::Validate(spec).IsInvalidArgument());
  spec = SmallYcsb();
  spec.concurrency = 0;
  EXPECT_TRUE(ScenarioRunner::Validate(spec).IsInvalidArgument());
  spec = SmallYcsb();
  spec.measure = 0;
  EXPECT_TRUE(ScenarioRunner::Validate(spec).IsInvalidArgument());
}

TEST(ScenarioRunnerTest, ValidateChecksLoadModelKnobs) {
  ScenarioSpec spec = SmallYcsb();
  spec.load_model = "nope";
  EXPECT_TRUE(ScenarioRunner::Validate(spec).IsInvalidArgument());

  spec = SmallYcsb();
  spec.load_model = "open";  // offered_tps still 0
  EXPECT_TRUE(ScenarioRunner::Validate(spec).IsInvalidArgument());
  spec.offered_tps = 50000;
  EXPECT_TRUE(ScenarioRunner::Validate(spec).ok());
  spec.queue_cap = 0;
  EXPECT_TRUE(ScenarioRunner::Validate(spec).IsInvalidArgument());
  spec.queue_cap = 8;
  spec.arrival = "bursty";
  EXPECT_TRUE(ScenarioRunner::Validate(spec).IsInvalidArgument());
}

TEST(ScenarioRunnerTest, ValidateRejectsRemovedAdmissionPaths) {
  // There is no batched load model and no batch-pack scheduler: a spec
  // naming either fails validation, and the message lists the known
  // choices.
  ScenarioSpec spec = SmallYcsb();
  spec.load_model = "batched";
  Status st = ScenarioRunner::Validate(spec);
  ASSERT_TRUE(st.IsInvalidArgument());
  EXPECT_NE(st.message().find("closed, open"), std::string::npos)
      << st.message();

  spec = SmallYcsb();
  spec.scheduler = "batch-pack";
  st = ScenarioRunner::Validate(spec);
  ASSERT_TRUE(st.IsInvalidArgument());
  EXPECT_NE(st.message().find("fifo"), std::string::npos) << st.message();
  EXPECT_NE(st.message().find("hash-affinity"), std::string::npos)
      << st.message();
}

TEST(ScenarioRunnerTest, WireExposesUsableEnv) {
  auto env = ScenarioRunner::Wire(SmallYcsb());
  ASSERT_TRUE(env.ok()) << env.status().ToString();
  EXPECT_EQ(env->cluster->num_engines(), 3u);
  EXPECT_GT(env->cluster->TotalPrimaryRecords(), 0u);
  ASSERT_NE(env->protocol, nullptr);
  auto stats = env->driver->Run(kMillisecond, 2 * kMillisecond);
  env->driver->Quiesce();
  EXPECT_GT(stats.TotalCommits(), 0u);
}

TEST(ScenarioRunnerTest, RunsEveryWorkloadUnderEveryProtocol) {
  for (const std::string& workload : WorkloadRegistry::Global().Names()) {
    for (const std::string& protocol :
         ProtocolRegistry::Global().Names()) {
      ScenarioSpec spec;
      spec.workload = workload;
      spec.protocol = protocol;
      spec.nodes = 2;
      spec.engines_per_node = 1;
      spec.concurrency = 2;
      spec.warmup = kMillisecond;
      spec.measure = 2 * kMillisecond;
      if (workload == "instacart") {
        // Keep the layout build cheap: a small catalog and trace.
        spec.options.Set("num_products", 2000);
        spec.options.Set("num_customers", 5000);
        spec.options.Set("trace_txns", 500);
      }
      if (workload == "ycsb") spec.options.Set("keys_per_partition", 1000);
      auto result = ScenarioRunner::Run(spec);
      ASSERT_TRUE(result.ok())
          << workload << "/" << protocol << ": "
          << result.status().ToString();
      EXPECT_GT(result->stats.TotalCommits(), 0u)
          << workload << "/" << protocol;
    }
  }
}

// ---------------------------------------------------------------------------
// ycsb knobs
// ---------------------------------------------------------------------------

TEST(YcsbTest, ReadOnlyWorkloadNeverConflictsUnder2pl) {
  ScenarioSpec spec = SmallYcsb();
  spec.protocol = "2pl";
  spec.options.Set("read_ratio", 1.0);
  auto result = ScenarioRunner::Run(spec);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->stats.TotalCommits(), 0u);
  // Shared locks are compatible: an all-read mix cannot conflict-abort.
  EXPECT_EQ(result->stats.TotalConflictAborts(), 0u);
}

TEST(YcsbTest, DistributedRatioZeroStaysSinglePartition) {
  ScenarioSpec spec = SmallYcsb();
  spec.options.Set("distributed_ratio", 0.0);
  auto result = ScenarioRunner::Run(spec);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->stats.TotalCommits(), 0u);
  EXPECT_DOUBLE_EQ(result->stats.DistributedRatio(), 0.0);
}

TEST(YcsbTest, DistributedRatioOneSpansPartitions) {
  ScenarioSpec spec = SmallYcsb();
  spec.options.Set("distributed_ratio", 1.0);
  auto result = ScenarioRunner::Run(spec);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->stats.DistributedRatio(), 0.5);
}

TEST(YcsbTest, InvalidKnobsAreRejected) {
  ScenarioSpec spec = SmallYcsb();
  spec.options.Set("theta", 1.5);
  EXPECT_TRUE(ScenarioRunner::Run(spec).status().IsInvalidArgument());
  spec = SmallYcsb();
  spec.options.Set("read_ratio", -0.5);
  EXPECT_TRUE(ScenarioRunner::Run(spec).status().IsInvalidArgument());
  spec = SmallYcsb();
  spec.options.Set("ops_per_txn", 0);
  EXPECT_TRUE(ScenarioRunner::Run(spec).status().IsInvalidArgument());
}

TEST(YcsbTest, PartitionerPlacesAndFlagsHotKeys) {
  workload::ycsb::YcsbPartitioner part(/*num_partitions=*/4,
                                       /*keys_per_partition=*/100,
                                       /*hot_keys_per_partition=*/2);
  EXPECT_EQ(part.PartitionOf({workload::ycsb::kMain, 0}), 0u);
  EXPECT_EQ(part.PartitionOf({workload::ycsb::kMain, 101}), 1u);
  EXPECT_EQ(part.PartitionOf({workload::ycsb::kMain, 399}), 3u);
  EXPECT_TRUE(part.IsHot({workload::ycsb::kMain, 201}));
  EXPECT_FALSE(part.IsHot({workload::ycsb::kMain, 202}));
  EXPECT_EQ(part.LookupEntries(), 0u);
}

// ---------------------------------------------------------------------------
// SweepExecutor
// ---------------------------------------------------------------------------

TEST(SweepExecutorTest, ResultsFollowSpecOrderRegardlessOfJobs) {
  std::vector<ScenarioSpec> specs;
  for (uint64_t seed : {31, 7, 19, 3}) {
    ScenarioSpec spec = SmallYcsb();
    spec.seed = seed;
    spec.measure = 2 * kMillisecond;
    specs.push_back(std::move(spec));
  }
  for (uint32_t jobs : {1u, 4u}) {
    auto results = SweepExecutor(jobs).Run(specs);
    ASSERT_EQ(results.size(), specs.size());
    for (size_t i = 0; i < results.size(); ++i) {
      ASSERT_TRUE(results[i].ok()) << results[i].status().ToString();
      EXPECT_EQ(results[i]->spec.seed, specs[i].seed) << "jobs=" << jobs;
    }
  }
}

TEST(SweepExecutorTest, FailedSpecDoesNotPoisonTheSweep) {
  std::vector<ScenarioSpec> specs = {SmallYcsb(), SmallYcsb()};
  specs[0].workload = "nope";
  specs[0].measure = 2 * kMillisecond;
  specs[1].measure = 2 * kMillisecond;
  auto results = SweepExecutor(2).Run(specs);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].status().IsInvalidArgument());
  ASSERT_TRUE(results[1].ok());
  EXPECT_GT(results[1]->stats.TotalCommits(), 0u);
}

TEST(SweepExecutorTest, ProgressFiresOncePerSpec) {
  std::vector<ScenarioSpec> specs = {SmallYcsb(), SmallYcsb(), SmallYcsb()};
  for (auto& s : specs) s.measure = 2 * kMillisecond;
  std::vector<int> seen(specs.size(), 0);
  SweepExecutor(2).Run(specs,
                       [&](size_t i, const StatusOr<ScenarioResult>& r) {
                         EXPECT_TRUE(r.ok());
                         ++seen[i];
                       });
  for (int count : seen) EXPECT_EQ(count, 1);
}

TEST(ParallelMapTest, MapsEveryIndexInOrder) {
  auto out = ParallelMap(3, 100, [](size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 100u);
  for (size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ParallelMapTest, ZeroJobsResolvesToHardware) {
  EXPECT_GE(ResolveJobs(0), 1u);
  EXPECT_EQ(ResolveJobs(5), 5u);
}

// ---------------------------------------------------------------------------
// Phase plans and the adaptive loop
// ---------------------------------------------------------------------------

std::vector<Phase> AdaptivePlan() {
  return {
      Phase::Warmup(kMillisecond),
      Phase::Sample(2 * kMillisecond, /*rate=*/1.0),
      Phase::Replan(),
      Phase::Migrate(),
      Phase::Warmup(kMillisecond),
      Phase::Measure(4 * kMillisecond),
  };
}

TEST(PhasePlanTest, LegacySpecExpandsToWarmupMeasure) {
  ScenarioSpec spec = SmallYcsb();
  const auto plan = spec.EffectivePhases();
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan[0], Phase::Warmup(spec.warmup));
  EXPECT_EQ(plan[1], Phase::Measure(spec.measure));
}

TEST(PhasePlanTest, ValidateRejectsMalformedPlans) {
  ScenarioSpec spec = SmallYcsb();
  spec.phases = {Phase::Warmup(kMillisecond)};  // nothing measured
  EXPECT_TRUE(ScenarioRunner::Validate(spec).IsInvalidArgument());

  spec.phases = {Phase::Replan(), Phase::Migrate(),
                 Phase::Measure(kMillisecond)};  // replan without a sample
  EXPECT_TRUE(ScenarioRunner::Validate(spec).IsInvalidArgument());

  spec.phases = {Phase::Sample(kMillisecond, 1.0), Phase::Replan(),
                 Phase::Measure(kMillisecond)};  // replan never migrated
  EXPECT_TRUE(ScenarioRunner::Validate(spec).IsInvalidArgument());

  spec.phases = {Phase::Sample(kMillisecond, 1.0), Phase::Migrate(),
                 Phase::Measure(kMillisecond)};  // migrate without replan
  EXPECT_TRUE(ScenarioRunner::Validate(spec).IsInvalidArgument());

  spec.phases = {Phase::Sample(kMillisecond, 2.0), Phase::Replan(),
                 Phase::Migrate(),
                 Phase::Measure(kMillisecond)};  // bad sample rate
  EXPECT_TRUE(ScenarioRunner::Validate(spec).IsInvalidArgument());

  spec.phases = {Phase::Measure(0)};  // zero-length timed phase
  EXPECT_TRUE(ScenarioRunner::Validate(spec).IsInvalidArgument());

  spec.phases = AdaptivePlan();
  spec.workload = "adaptive";
  EXPECT_TRUE(ScenarioRunner::Validate(spec).ok());
}

TEST(PhasePlanTest, ReplanNeedsAnAdaptiveWorkload) {
  ScenarioSpec spec = SmallYcsb();  // plain ycsb: frozen layout
  spec.phases = AdaptivePlan();
  auto result = ScenarioRunner::Run(spec);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsFailedPrecondition());
}

TEST(PhasePlanTest, MultiPhasePlanMatchesLegacyRun) {
  // A plan of {warmup, measure} spelled explicitly must reproduce the
  // implicit legacy shape bit for bit — the refactor is pure.
  ScenarioSpec legacy = SmallYcsb();
  ScenarioSpec phased = SmallYcsb();
  phased.phases = {Phase::Warmup(legacy.warmup),
                   Phase::Measure(legacy.measure)};
  auto a = ScenarioRunner::Run(legacy);
  auto b = ScenarioRunner::Run(phased);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->stats.TotalCommits(), b->stats.TotalCommits());
  EXPECT_EQ(a->stats.TotalConflictAborts(), b->stats.TotalConflictAborts());
  EXPECT_EQ(a->stats.window, b->stats.window);
}

TEST(PhasePlanTest, AdaptiveRelayoutBeatsStaticHashLayout) {
  // The acceptance property of the Section 4.1 loop: starting from a hash
  // layout on a contended ycsb workload, sample -> replan -> migrate must
  // end the measure phase with strictly more committed throughput than
  // the same spec without the adaptive phases.
  ScenarioSpec adaptive;
  adaptive.workload = "adaptive";
  adaptive.protocol = "chiller";
  adaptive.nodes = 4;
  adaptive.engines_per_node = 1;
  adaptive.concurrency = 4;
  adaptive.seed = 5;
  adaptive.options.Set("keys_per_partition", 5000);
  adaptive.options.Set("theta", 0.9);
  adaptive.phases = AdaptivePlan();

  ScenarioSpec still = adaptive;
  still.phases = {Phase::Warmup(5 * kMillisecond),
                  Phase::Measure(4 * kMillisecond)};

  auto moved = ScenarioRunner::Run(adaptive);
  auto frozen = ScenarioRunner::Run(still);
  ASSERT_TRUE(moved.ok()) << moved.status().ToString();
  ASSERT_TRUE(frozen.ok()) << frozen.status().ToString();
  EXPECT_GT(moved->adaptive.sampled_txns, 0u);
  EXPECT_GT(moved->adaptive.migration.moved_records, 0u);
  EXPECT_GT(moved->stats.TotalCommits(), frozen->stats.TotalCommits());
}

// ---------------------------------------------------------------------------
// Load models through the runner
// ---------------------------------------------------------------------------

TEST(LoadModelScenarioTest, OpenLoopBelowCapacityShedsNothing) {
  ScenarioSpec spec = SmallYcsb();
  spec.load_model = "open";
  spec.offered_tps = 30000;  // far below what 3 engines sustain
  spec.queue_cap = 32;
  auto result = ScenarioRunner::Run(spec);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->stats.admitted, 0u);
  EXPECT_EQ(result->stats.shed, 0u);
  EXPECT_DOUBLE_EQ(result->stats.ShedRate(), 0.0);
  EXPECT_GT(result->stats.TotalCommits(), 0u);
}

TEST(LoadModelScenarioTest, OpenLoopOverloadShedsAndBoundsTheQueue) {
  ScenarioSpec spec = SmallYcsb();
  spec.load_model = "open";
  spec.offered_tps = 10000000;  // hopeless overload
  spec.queue_cap = 4;
  auto result = ScenarioRunner::Run(spec);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const cc::RunStats& stats = result->stats;
  EXPECT_GT(stats.shed, 0u);
  EXPECT_GT(stats.ShedRate(), 0.5);
  // Admissions kept flowing even while the queue was shedding.
  EXPECT_GT(stats.admitted, 0u);
  // Delivered throughput is capacity-bound, far under the offered rate.
  EXPECT_LT(stats.Throughput(), spec.offered_tps * 0.5);
  EXPECT_GT(stats.TotalCommits(), 0u);
}

TEST(LoadModelScenarioTest, OpenLoopSurvivesQuiesceAndMigrate) {
  // The satellite property: an open-loop driver can be quiesced mid-run
  // for a layout migration and resumed, with arrival clocks re-armed and
  // already-queued requests surviving the pause.
  ScenarioSpec spec;
  spec.workload = "adaptive";
  spec.protocol = "chiller";
  spec.nodes = 3;
  spec.engines_per_node = 1;
  spec.concurrency = 2;
  spec.seed = 9;
  spec.options.Set("keys_per_partition", 2000);
  spec.options.Set("theta", 0.95);
  spec.load_model = "open";
  spec.offered_tps = 120000;
  spec.queue_cap = 16;
  spec.phases = {
      Phase::Warmup(kMillisecond),
      Phase::Sample(2 * kMillisecond, /*rate=*/1.0),
      Phase::Replan(),
      Phase::Migrate(),
      Phase::Warmup(kMillisecond),
      Phase::Measure(4 * kMillisecond),
  };
  auto result = ScenarioRunner::Run(spec);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // The loop engaged (records moved through a quiesce) and the open loop
  // kept serving afterwards: the measure phase saw commits and arrivals.
  EXPECT_GT(result->adaptive.sampled_txns, 0u);
  EXPECT_GT(result->adaptive.migration.moved_records, 0u);
  EXPECT_GT(result->stats.TotalCommits(), 0u);
  EXPECT_GT(result->stats.admitted, 0u);
}

// ---------------------------------------------------------------------------
// Memory budget
// ---------------------------------------------------------------------------

TEST(FootprintTest, EstimatesScaleWithTopologyAndKnobs) {
  ScenarioSpec spec = SmallYcsb();
  const uint64_t small = EstimateFootprint(spec);
  EXPECT_GT(small, 0u);
  spec.options.Set("keys_per_partition", 20000);
  EXPECT_GT(EstimateFootprint(spec), small);

  ScenarioSpec tpcc;
  tpcc.workload = "tpcc";
  const uint64_t one_per_engine = EstimateFootprint(tpcc);
  EXPECT_GT(one_per_engine, 0u);
  tpcc.options.Set("num_warehouses", 80);
  EXPECT_GT(EstimateFootprint(tpcc), one_per_engine);

  ScenarioSpec unknown;
  unknown.workload = "not-a-workload";
  EXPECT_EQ(EstimateFootprint(unknown), 0u);
}

TEST(SweepExecutorTest, MemBudgetStillRunsEverySpecIdentically) {
  std::vector<ScenarioSpec> specs;
  for (uint64_t seed : {31, 7, 19, 3}) {
    ScenarioSpec spec = SmallYcsb();
    spec.seed = seed;
    spec.measure = 2 * kMillisecond;
    spec.footprint_hint = EstimateFootprint(spec);
    EXPECT_GT(spec.footprint_hint, 0u);
    specs.push_back(std::move(spec));
  }
  SweepExecutor unbounded(4);
  // A budget below a single spec's hint forces scenarios to run alone
  // (the progress guarantee) without changing any result.
  SweepExecutor starved(4);
  starved.set_mem_budget_bytes(1);
  auto a = unbounded.Run(specs);
  auto b = starved.Run(specs);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(a[i].ok());
    ASSERT_TRUE(b[i].ok());
    EXPECT_EQ(a[i]->stats.TotalCommits(), b[i]->stats.TotalCommits());
    EXPECT_EQ(a[i]->stats.TotalConflictAborts(),
              b[i]->stats.TotalConflictAborts());
  }
}

// ---------------------------------------------------------------------------
// Footprint calibration cache (persists the learned EWMA factor across
// bench invocations) and the shards x jobs coordination.
// ---------------------------------------------------------------------------

TEST(FootprintCalibrationCacheTest, SaveLoadRoundtrips) {
  const std::string path =
      testing::TempDir() + "/chiller_footprint_cache_roundtrip";
  std::remove(path.c_str());

  double factor = 99.0;
  EXPECT_FALSE(FootprintCalibrationCache::Load(path, &factor));
  EXPECT_EQ(factor, 99.0) << "a miss must not touch the output";

  const double v = 1.2345678901234567;  // needs the full %.17g precision
  ASSERT_TRUE(FootprintCalibrationCache::Save(path, v));
  ASSERT_TRUE(FootprintCalibrationCache::Load(path, &factor));
  EXPECT_EQ(factor, v);
  std::remove(path.c_str());
}

TEST(FootprintCalibrationCacheTest, ClampBoundsTheFactor) {
  EXPECT_EQ(FootprintCalibrationCache::Clamp(0.0),
            FootprintCalibrationCache::kMinFactor);
  EXPECT_EQ(FootprintCalibrationCache::Clamp(1e9),
            FootprintCalibrationCache::kMaxFactor);
  EXPECT_EQ(FootprintCalibrationCache::Clamp(1.5), 1.5);
  // Corrupt inputs (NaN/inf from a truncated file) reset to neutral.
  EXPECT_EQ(FootprintCalibrationCache::Clamp(
                std::numeric_limits<double>::quiet_NaN()),
            1.0);
  EXPECT_EQ(FootprintCalibrationCache::Clamp(
                std::numeric_limits<double>::infinity()),
            1.0);

  // Save clamps, so a wild factor never round-trips out of range.
  const std::string path =
      testing::TempDir() + "/chiller_footprint_cache_clamp";
  ASSERT_TRUE(FootprintCalibrationCache::Save(path, 1e9));
  double factor = 0.0;
  ASSERT_TRUE(FootprintCalibrationCache::Load(path, &factor));
  EXPECT_EQ(factor, FootprintCalibrationCache::kMaxFactor);
  std::remove(path.c_str());
}

TEST(FootprintCalibrationCacheTest, RejectsGarbageFiles) {
  const std::string path =
      testing::TempDir() + "/chiller_footprint_cache_garbage";
  {
    FILE* f = fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    fputs("not a cache file\n", f);
    fclose(f);
  }
  double factor = 42.0;
  EXPECT_FALSE(FootprintCalibrationCache::Load(path, &factor));
  EXPECT_EQ(factor, 42.0);
  std::remove(path.c_str());
}

TEST(FootprintCalibrationCacheTest, PathSitsNextToTheReport) {
  EXPECT_EQ(FootprintCalibrationCache::PathNextTo("out/BENCH_fig9.json"),
            "out/.chiller_footprint_cache");
  EXPECT_EQ(FootprintCalibrationCache::PathNextTo("BENCH_fig9.json"),
            ".chiller_footprint_cache");
}

TEST(SweepExecutorTest, EffectiveJobsDividesByTheWidestShardCount) {
  SweepExecutor executor(8);
  std::vector<ScenarioSpec> specs(3, SmallYcsb());
  EXPECT_EQ(executor.EffectiveJobs(specs), 8u);
  specs[1].shards = 4;
  EXPECT_EQ(executor.EffectiveJobs(specs), 2u);
  specs[2].shards = 16;  // wider than jobs: never drops below one worker
  EXPECT_EQ(executor.EffectiveJobs(specs), 1u);
}

}  // namespace
}  // namespace chiller::runner
