// Tests for the shared bench harness: CLI flag parsing, the JSON
// utility + report emitter, and the registry-backed protocol factory.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "bench/bench_flags.h"
#include "bench/bench_report.h"
#include "runner/registry.h"
#include "runner/runner.h"
#include "workload/tpcc/tpcc_workload.h"

namespace chiller::bench {
namespace {

namespace tpcc = workload::tpcc;

// ---------------------------------------------------------------------------
// Flag parsing
// ---------------------------------------------------------------------------

Status Parse(std::vector<const char*> argv, BenchFlags* out) {
  argv.insert(argv.begin(), "bench");
  return ParseBenchFlags(static_cast<int>(argv.size()), argv.data(), out);
}

TEST(BenchFlagsTest, DefaultsSurviveEmptyArgv) {
  BenchFlags f;
  ASSERT_TRUE(Parse({}, &f).ok());
  EXPECT_EQ(f.protocol, "chiller");
  EXPECT_EQ(f.nodes, 8u);
  EXPECT_EQ(f.engines, 10u);
  EXPECT_EQ(f.concurrency, 4u);
  EXPECT_DOUBLE_EQ(f.warmup_ms, 3.0);
  EXPECT_DOUBLE_EQ(f.duration_ms, 15.0);
  EXPECT_EQ(f.seed, 1u);
  EXPECT_EQ(f.jobs, 1u);
  EXPECT_TRUE(f.emit_json);
  EXPECT_FALSE(f.help);
  EXPECT_FALSE(f.list_protocols);
  EXPECT_FALSE(f.list_workloads);
}

TEST(BenchFlagsTest, ParsesEveryFlag) {
  BenchFlags f;
  ASSERT_TRUE(Parse({"--protocol=occ", "--nodes=4", "--engines=2",
                     "--concurrency=7", "--warmup-ms=1.5", "--duration-ms=9",
                     "--theta=0.5", "--seed=42", "--jobs=3",
                     "--json=/tmp/out.json"},
                    &f)
                  .ok());
  EXPECT_EQ(f.protocol, "occ");
  EXPECT_EQ(f.nodes, 4u);
  EXPECT_EQ(f.engines, 2u);
  EXPECT_EQ(f.concurrency, 7u);
  EXPECT_DOUBLE_EQ(f.warmup_ms, 1.5);
  EXPECT_DOUBLE_EQ(f.duration_ms, 9.0);
  EXPECT_DOUBLE_EQ(f.theta, 0.5);
  EXPECT_EQ(f.seed, 42u);
  EXPECT_EQ(f.jobs, 3u);
  EXPECT_EQ(f.json_path, "/tmp/out.json");
  EXPECT_EQ(f.JsonPathFor("fig9"), "/tmp/out.json");
}

TEST(BenchFlagsTest, JobsZeroMeansAutoAndParses) {
  BenchFlags f;
  ASSERT_TRUE(Parse({"--jobs=0"}, &f).ok());
  EXPECT_EQ(f.jobs, 0u);  // 0 = all hardware threads, resolved by the sweep
}

TEST(BenchFlagsTest, ListFlagsParse) {
  BenchFlags f;
  ASSERT_TRUE(Parse({"--list-protocols"}, &f).ok());
  EXPECT_TRUE(f.list_protocols);
  BenchFlags g;
  ASSERT_TRUE(Parse({"--list-workloads"}, &g).ok());
  EXPECT_TRUE(g.list_workloads);
}

TEST(BenchFlagsTest, NoJsonAndDefaultPath) {
  BenchFlags f;
  ASSERT_TRUE(Parse({"--no-json"}, &f).ok());
  EXPECT_FALSE(f.emit_json);
  EXPECT_EQ(f.JsonPathFor("fig9"), "BENCH_fig9.json");
}

TEST(BenchFlagsTest, HelpShortCircuits) {
  BenchFlags f;
  ASSERT_TRUE(Parse({"--help", "--garbage"}, &f).ok());
  EXPECT_TRUE(f.help);
}

TEST(BenchFlagsTest, RejectsUnknownFlagAndBadValues) {
  BenchFlags f;
  EXPECT_TRUE(Parse({"--wat=1"}, &f).IsInvalidArgument());
  EXPECT_TRUE(Parse({"positional"}, &f).IsInvalidArgument());
  EXPECT_TRUE(Parse({"--nodes=banana"}, &f).IsInvalidArgument());
  EXPECT_TRUE(Parse({"--nodes=0"}, &f).IsInvalidArgument());
  EXPECT_TRUE(Parse({"--duration-ms=0"}, &f).IsInvalidArgument());
  EXPECT_TRUE(Parse({"--seed="}, &f).IsInvalidArgument());
  EXPECT_TRUE(Parse({"--jobs=banana"}, &f).IsInvalidArgument());
}

TEST(BenchFlagsTest, RemovedAdmissionFlagsAreUnknown) {
  // There is no batching or shed-policy knob: each of these flags is
  // unknown, and the usage text does not offer them.
  for (const char* flag :
       {"--batch-size=8", "--shed-policy=drop-new", "--list-shed-policies"}) {
    BenchFlags f;
    const Status st = Parse({flag}, &f);
    ASSERT_TRUE(st.IsInvalidArgument()) << flag;
    EXPECT_NE(st.message().find("unknown flag"), std::string::npos) << flag;
  }
  const std::string usage = UsageString("fig9");
  EXPECT_EQ(usage.find("--batch-size"), std::string::npos);
  EXPECT_EQ(usage.find("--shed-policy"), std::string::npos);
  EXPECT_EQ(usage.find("batched"), std::string::npos);
}

TEST(BenchFlagsTest, UsageMentionsEveryFlag) {
  const std::string usage = UsageString("fig9");
  for (const char* flag :
       {"--protocol", "--nodes", "--engines", "--concurrency", "--warmup-ms",
        "--duration-ms", "--theta", "--seed", "--load-model", "--offered-tps",
        "--arrival", "--queue-cap", "--jobs", "--json",
        "--no-json", "--list-protocols", "--list-workloads", "--help"}) {
    EXPECT_NE(usage.find(flag), std::string::npos) << flag;
  }
}

TEST(BenchFlagsTest, LoadModelFlagsParseAndApply) {
  BenchFlags f;
  ASSERT_TRUE(Parse({"--load-model=open", "--offered-tps=250000",
                     "--arrival=uniform", "--queue-cap=16"},
                    &f)
                  .ok());
  EXPECT_EQ(f.load_model, "open");
  EXPECT_DOUBLE_EQ(f.offered_tps, 250000.0);
  EXPECT_EQ(f.arrival, "uniform");
  EXPECT_EQ(f.queue_cap, 16u);

  runner::ScenarioSpec spec;
  ApplyLoadModelFlags(f, &spec);
  EXPECT_EQ(spec.load_model, "open");
  EXPECT_DOUBLE_EQ(spec.offered_tps, 250000.0);
  EXPECT_EQ(spec.arrival, "uniform");
  EXPECT_EQ(spec.queue_cap, 16u);
}

TEST(BenchFlagsTest, LoadModelFlagsAreValidated) {
  BenchFlags f;
  EXPECT_TRUE(Parse({"--load-model=nope"}, &f).IsInvalidArgument());
  f = BenchFlags{};
  // Open without an offered rate is caught at parse time, not per scenario.
  EXPECT_TRUE(Parse({"--load-model=open"}, &f).IsInvalidArgument());
  f = BenchFlags{};
  EXPECT_TRUE(Parse({"--offered-tps=banana"}, &f).IsInvalidArgument());
  // The default closed model never needs an offered rate.
  f = BenchFlags{};
  EXPECT_TRUE(Parse({}, &f).ok());
  EXPECT_EQ(f.load_model, "closed");
}

TEST(BenchFlagsTest, UsageListsRegisteredProtocols) {
  const std::string usage = UsageString("fig9");
  for (const std::string& name : runner::ProtocolRegistry::Global().Names()) {
    EXPECT_NE(usage.find(name), std::string::npos) << name;
  }
}

TEST(BenchFlagsTest, UsageReflectsBenchSpecificDefaults) {
  BenchFlags d;
  d.duration_ms = 30.0;
  d.theta = 0.6;
  const std::string usage = UsageString("fig7", d);
  EXPECT_NE(usage.find("window, ms (default 30)"), std::string::npos)
      << usage;
  EXPECT_NE(usage.find("applicable (default 0.6)"), std::string::npos)
      << usage;
}

// ---------------------------------------------------------------------------
// JSON utility
// ---------------------------------------------------------------------------

TEST(JsonTest, DumpParseRoundtrip) {
  Json doc = Json::MakeObject();
  doc["name"] = "fig9";
  doc["count"] = 301;
  doc["rate"] = 0.25;
  doc["flag"] = true;
  doc["nothing"] = nullptr;
  doc["arr"].Append(1);
  doc["arr"].Append("two");
  doc["nested"]["deep"] = 7;

  for (int indent : {0, 2}) {
    auto parsed = Json::Parse(doc.Dump(indent));
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(parsed->Get("name")->AsString(), "fig9");
    EXPECT_DOUBLE_EQ(parsed->Get("count")->AsDouble(), 301);
    EXPECT_DOUBLE_EQ(parsed->Get("rate")->AsDouble(), 0.25);
    EXPECT_TRUE(parsed->Get("flag")->AsBool());
    EXPECT_TRUE(parsed->Get("nothing")->is_null());
    ASSERT_EQ(parsed->Get("arr")->AsArray().size(), 2u);
    EXPECT_EQ(parsed->Get("arr")->AsArray()[1].AsString(), "two");
    EXPECT_DOUBLE_EQ(parsed->Get("nested")->Get("deep")->AsDouble(), 7);
  }
}

TEST(JsonTest, EscapesStrings) {
  Json doc = Json::MakeObject();
  doc["s"] = std::string("a\"b\\c\nd");
  auto parsed = Json::Parse(doc.Dump());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Get("s")->AsString(), "a\"b\\c\nd");
}

TEST(JsonTest, RejectsMalformedInput) {
  for (const char* bad : {"", "{", "[1,", "{\"a\":}", "tru", "01x",
                          "{\"a\":1} trailing", "\"unterminated"}) {
    EXPECT_FALSE(Json::Parse(bad).ok()) << bad;
  }
}

// ---------------------------------------------------------------------------
// Report emitter
// ---------------------------------------------------------------------------

/// A small real measurement so the latency histograms are populated.
cc::RunStats SmallTpccRun(const std::string& proto) {
  runner::ScenarioSpec spec;
  spec.workload = "tpcc";
  spec.protocol = proto;
  spec.nodes = 2;
  spec.engines_per_node = 1;
  spec.concurrency = 2;
  spec.seed = 3;
  spec.warmup = kMillisecond;
  spec.measure = 2 * kMillisecond;
  auto result = runner::ScenarioRunner::Run(spec);
  CHILLER_CHECK(result.ok()) << result.status().ToString();
  return result->stats;
}

TEST(BenchReportTest, EmittedJsonParsesAndHasRequiredKeys) {
  BenchReport report("harness_test");
  report.SetConfig("nodes", 2);
  report.SetConfig("engines_per_node", 1);

  const cc::RunStats stats = SmallTpccRun("chiller");
  ASSERT_GT(stats.TotalCommits(), 0u);
  Json params = Json::MakeObject();
  params["concurrency"] = 2;
  report.AddRun("chiller", std::move(params), stats);

  const std::string path =
      testing::TempDir() + "/BENCH_harness_test.json";
  ASSERT_TRUE(report.WriteFile(path).ok());

  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  auto parsed = Json::Parse(buf.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

  EXPECT_EQ(parsed->Get("bench")->AsString(), "harness_test");
  EXPECT_DOUBLE_EQ(parsed->Get("config")->Get("nodes")->AsDouble(), 2);
  const auto& results = parsed->Get("results")->AsArray();
  ASSERT_EQ(results.size(), 1u);
  const Json& row = results[0];
  EXPECT_EQ(row.Get("protocol")->AsString(), "chiller");
  EXPECT_DOUBLE_EQ(row.Get("params")->Get("concurrency")->AsDouble(), 2);
  for (const char* key : {"throughput_tps", "abort_rate", "latency_p50_ns",
                          "latency_p99_ns", "latency_mean_ns", "commits",
                          "attempts"}) {
    ASSERT_TRUE(row.Has(key)) << key;
    EXPECT_TRUE(row.Get(key)->is_number()) << key;
  }
  EXPECT_GT(row.Get("throughput_tps")->AsDouble(), 0.0);
  EXPECT_GT(row.Get("latency_p99_ns")->AsDouble(), 0.0);
  EXPECT_GE(row.Get("latency_p99_ns")->AsDouble(),
            row.Get("latency_p50_ns")->AsDouble());
  std::remove(path.c_str());
}

TEST(BenchReportTest, QueueFieldsAppearOnlyForOpenLoopRuns) {
  // A closed-loop run never offers load through an admission queue, and
  // its row must keep the historical shape (committed BENCH_*.json files
  // are diffed byte-for-byte).
  const cc::RunStats closed = SmallTpccRun("chiller");
  const Json closed_row = ResultRow("chiller", Json::MakeObject(), closed);
  for (const char* key : {"admitted", "shed", "shed_rate",
                          "queue_delay_p50_ns", "queue_delay_p99_ns",
                          "queue_delay_mean_ns"}) {
    EXPECT_FALSE(closed_row.Has(key)) << key;
  }

  // Emission keys off the load model, not the counters: an open-loop row
  // keeps the queue fields even when its window saw no arrivals.
  cc::RunStats quiet = closed;
  quiet.open_loop = true;
  const Json quiet_row = ResultRow("chiller", Json::MakeObject(), quiet);
  EXPECT_TRUE(quiet_row.Has("admitted"));
  EXPECT_TRUE(quiet_row.Has("queue_delay_p99_ns"));

  cc::RunStats open = closed;
  open.open_loop = true;
  open.admitted = 90;
  open.shed = 10;
  open.queue_delay.Add(1000);
  open.queue_delay.Add(3000);
  const Json open_row = ResultRow("chiller", Json::MakeObject(), open);
  for (const char* key : {"admitted", "shed", "shed_rate",
                          "queue_delay_p50_ns", "queue_delay_p99_ns",
                          "queue_delay_mean_ns"}) {
    ASSERT_TRUE(open_row.Has(key)) << key;
  }
  EXPECT_DOUBLE_EQ(open_row.Get("shed_rate")->AsDouble(), 0.1);
  EXPECT_GT(open_row.Get("queue_delay_p99_ns")->AsDouble(), 0.0);
}

// ---------------------------------------------------------------------------
// Protocol registry (replaces the old bench-header MakeProtocol factory)
// ---------------------------------------------------------------------------

class ProtocolRegistryTest : public testing::Test {
 protected:
  ProtocolRegistryTest() {
    cc::ClusterConfig cfg;
    cfg.topology = net::Topology{.num_nodes = 2,
                                 .engines_per_node = 1,
                                 .replication_degree = 2};
    cfg.schema = tpcc::Schema();
    cluster_ = std::make_unique<cc::Cluster>(cfg);
    partitioner_ = std::make_unique<tpcc::TpccPartitioner>(2);
    repl_ = std::make_unique<cc::ReplicationManager>(cluster_.get());
  }

  StatusOr<std::unique_ptr<cc::Protocol>> Make(const std::string& name) {
    return runner::ProtocolRegistry::Global().Make(
        name, cluster_.get(), partitioner_.get(), repl_.get());
  }

  std::unique_ptr<cc::Cluster> cluster_;
  std::unique_ptr<tpcc::TpccPartitioner> partitioner_;
  std::unique_ptr<cc::ReplicationManager> repl_;
};

TEST_F(ProtocolRegistryTest, BuildsEveryRegisteredProtocol) {
  const std::vector<std::string> names =
      runner::ProtocolRegistry::Global().Names();
  ASSERT_GE(names.size(), 4u);
  for (const std::string& name : names) {
    auto proto = Make(name);
    ASSERT_TRUE(proto.ok()) << name;
    ASSERT_NE(proto.value(), nullptr) << name;
    EXPECT_NE(proto.value()->name(), nullptr) << name;
  }
  // The ablation variant is still the Chiller protocol underneath.
  EXPECT_STREQ(Make("chiller").value()->name(),
               Make("chiller-plain").value()->name());
}

TEST_F(ProtocolRegistryTest, UnknownNameIsInvalidArgumentNotAbort) {
  auto proto = Make("definitely-not-a-protocol");
  ASSERT_FALSE(proto.ok());
  EXPECT_TRUE(proto.status().IsInvalidArgument());
  // The message should steer the user to valid spellings.
  for (const std::string& name :
       runner::ProtocolRegistry::Global().Names()) {
    EXPECT_NE(proto.status().message().find(name), std::string::npos) << name;
  }
}

}  // namespace
}  // namespace chiller::bench
