// End-to-end protocol tests on a simulated cluster: 2PL, OCC, and Chiller
// run the Figure 4 flight-booking workload; afterwards storage must satisfy
// strong invariants (locks released, replicas identical to primaries, seats
// and balances conserved) — a serializability smoke test by conservation.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <tuple>

#include "cc/cluster.h"
#include "cc/driver.h"
#include "cc/load_model.h"
#include "cc/occ.h"
#include "cc/replication.h"
#include "cc/twopl.h"
#include "chiller/two_region.h"
#include "workload/flight.h"

namespace chiller {
namespace {

using workload::FlightPartitioner;
using workload::FlightSchema;
using workload::FlightWorkload;

struct Env {
  std::unique_ptr<cc::Cluster> cluster;
  std::unique_ptr<FlightPartitioner> partitioner;
  std::unique_ptr<FlightWorkload> workload;
  std::unique_ptr<cc::ReplicationManager> repl;
  std::unique_ptr<cc::Protocol> protocol;
  std::unique_ptr<cc::Driver> driver;
};

Env MakeEnv(const std::string& proto_name, uint32_t nodes = 4,
            uint32_t concurrency = 2, uint32_t replication = 2) {
  Env env;
  cc::ClusterConfig cfg;
  cfg.topology = net::Topology{.num_nodes = nodes,
                               .engines_per_node = 1,
                               .replication_degree = replication};
  cfg.schema = FlightSchema::Specs();
  env.cluster = std::make_unique<cc::Cluster>(cfg);

  FlightWorkload::Options opts;
  opts.num_flights = 200;
  opts.num_customers = 2000;
  opts.hot_flights = 8;
  opts.hot_fraction = 0.7;
  env.workload = std::make_unique<FlightWorkload>(opts);
  env.partitioner =
      std::make_unique<FlightPartitioner>(nodes, opts.hot_flights);

  env.workload->ForEachRecord(
      [&](const RecordId& rid, const storage::Record& rec) {
        env.cluster->LoadRecord(rid, rec, *env.partitioner);
      });

  env.repl = std::make_unique<cc::ReplicationManager>(env.cluster.get());
  if (proto_name == "2pl") {
    env.protocol = std::make_unique<cc::TwoPhaseLocking>(
        env.cluster.get(), env.partitioner.get(), env.repl.get());
  } else if (proto_name == "occ") {
    env.protocol = std::make_unique<cc::Occ>(
        env.cluster.get(), env.partitioner.get(), env.repl.get());
  } else if (proto_name == "chiller") {
    env.protocol = std::make_unique<core::ChillerProtocol>(
        env.cluster.get(), env.partitioner.get(), env.repl.get());
  } else {
    env.protocol = std::make_unique<core::ChillerProtocol>(
        env.cluster.get(), env.partitioner.get(), env.repl.get(),
        /*enable_two_region=*/false);
  }
  env.driver = std::make_unique<cc::Driver>(env.cluster.get(),
                                            env.protocol.get(),
                                            env.workload.get(), concurrency);
  return env;
}

/// Checks every storage invariant that must hold at quiescence.
void CheckInvariants(Env& env, uint32_t nodes, uint32_t replication) {
  // (1) Every lock released, on primaries and replicas.
  for (uint32_t p = 0; p < nodes; ++p) {
    EXPECT_EQ(env.cluster->primary(p)->locks_held(), 0u) << "partition " << p;
    for (uint32_t r = 1; r < replication; ++r) {
      EXPECT_EQ(env.cluster->replica(p, r)->locks_held(), 0u);
    }
  }

  // Collect global state from primaries.
  std::map<Key, int64_t> flight_seats, cust_balance;
  std::map<Key, int64_t> seats_sold;          // per flight
  std::map<Key, int64_t> cust_spent_records;  // per customer, from seats
  const auto& opts = env.workload->options();
  for (uint32_t p = 0; p < nodes; ++p) {
    env.cluster->primary(p)->ForEach(
        [&](const RecordId& rid, const storage::Record& rec) {
          if (rid.table == FlightSchema::kFlight) {
            flight_seats[rid.key] = rec.Get(1);
          } else if (rid.table == FlightSchema::kCustomer) {
            cust_balance[rid.key] = rec.Get(0);
          } else if (rid.table == FlightSchema::kSeats) {
            const Key flight = rid.key / FlightSchema::kSeatStride;
            ++seats_sold[flight];
            const Key cust = static_cast<Key>(rec.Get(0));
            const int64_t price = 100 + static_cast<int64_t>(flight % 400);
            const int64_t tax =
                static_cast<int64_t>((cust % opts.num_states) % 20);
            cust_spent_records[cust] += price + tax;
          }
        });
  }

  // (2) Seats conservation: decrements match inserted seat records.
  ASSERT_EQ(flight_seats.size(), static_cast<size_t>(opts.num_flights));
  for (const auto& [f, seats] : flight_seats) {
    EXPECT_EQ(opts.initial_seats - seats, seats_sold[f]) << "flight " << f;
  }

  // (3) Balance conservation: every deducted dollar has a seat record.
  for (const auto& [c, balance] : cust_balance) {
    EXPECT_EQ(opts.initial_balance - balance, cust_spent_records[c])
        << "customer " << c;
  }

  // (4) Replicas converged to primary state.
  for (uint32_t p = 0; p < nodes; ++p) {
    auto* primary = env.cluster->primary(p);
    for (uint32_t r = 1; r < replication; ++r) {
      auto* replica = env.cluster->replica(p, r);
      EXPECT_EQ(primary->num_records(), replica->num_records());
      primary->ForEach([&](const RecordId& rid, const storage::Record& rec) {
        storage::Record* rrec = replica->Find(rid);
        ASSERT_NE(rrec, nullptr) << rid.ToString() << " missing at replica";
        EXPECT_EQ(rec.fields(), rrec->fields()) << rid.ToString();
      });
    }
  }
}

class ProtocolInvariantTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ProtocolInvariantTest, FlightWorkloadConservesState) {
  const uint32_t nodes = 4, replication = 2;
  Env env = MakeEnv(GetParam(), nodes, /*concurrency=*/2, replication);
  cc::RunStats stats = env.driver->Run(2 * kMillisecond, 20 * kMillisecond);
  env.driver->Quiesce();
  EXPECT_GT(stats.TotalCommits(), 100u);
  CheckInvariants(env, nodes, replication);
}

TEST_P(ProtocolInvariantTest, HighConcurrencyStillConserves) {
  const uint32_t nodes = 3, replication = 2;
  Env env = MakeEnv(GetParam(), nodes, /*concurrency=*/6, replication);
  env.driver->Run(1 * kMillisecond, 10 * kMillisecond);
  env.driver->Quiesce();
  CheckInvariants(env, nodes, replication);
}

TEST_P(ProtocolInvariantTest, NoReplicationConfigWorks) {
  const uint32_t nodes = 3, replication = 1;
  Env env = MakeEnv(GetParam(), nodes, /*concurrency=*/2, replication);
  cc::RunStats stats = env.driver->Run(1 * kMillisecond, 10 * kMillisecond);
  env.driver->Quiesce();
  EXPECT_GT(stats.TotalCommits(), 50u);
  CheckInvariants(env, nodes, replication);
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, ProtocolInvariantTest,
                         ::testing::Values("2pl", "occ", "chiller",
                                           "chiller-plain"),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (auto& ch : n) {
                             if (ch == '-') ch = '_';
                           }
                           return n;
                         });

TEST(ChillerProtocolTest, UsesTwoRegionExecutionForHotTxns) {
  Env env = MakeEnv("chiller");
  env.driver->Run(1 * kMillisecond, 10 * kMillisecond);
  env.driver->Quiesce();
  auto* chiller = static_cast<core::ChillerProtocol*>(env.protocol.get());
  EXPECT_GT(chiller->counters().two_region_txns, 0u);
  EXPECT_GT(chiller->counters().fallback_txns, 0u);  // cold bookings
}

TEST(ChillerProtocolTest, DisabledTwoRegionNeverPlans) {
  Env env = MakeEnv("chiller-plain");
  env.driver->Run(1 * kMillisecond, 5 * kMillisecond);
  env.driver->Quiesce();
  auto* chiller = static_cast<core::ChillerProtocol*>(env.protocol.get());
  EXPECT_EQ(chiller->counters().two_region_txns, 0u);
  EXPECT_GT(chiller->counters().fallback_txns, 0u);
}

TEST(ChillerProtocolTest, LowerAbortRateThanTwoPlUnderContention) {
  // The headline mechanism: hot flights cause NO_WAIT conflicts under 2PL
  // (locks span network round trips); Chiller's inner regions shrink the
  // contention span and with it the abort rate.
  Env twopl = MakeEnv("2pl", 4, /*concurrency=*/4);
  Env chiller = MakeEnv("chiller", 4, /*concurrency=*/4);
  auto s2 = twopl.driver->Run(2 * kMillisecond, 30 * kMillisecond);
  auto sc = chiller.driver->Run(2 * kMillisecond, 30 * kMillisecond);
  twopl.driver->Quiesce();
  chiller.driver->Quiesce();
  EXPECT_LT(sc.AbortRate(), s2.AbortRate());
  EXPECT_GT(sc.Throughput(), s2.Throughput());
}

TEST(DriverTest, RetriesEventuallyCommit) {
  Env env = MakeEnv("2pl", 3, /*concurrency=*/3);
  auto stats = env.driver->Run(1 * kMillisecond, 15 * kMillisecond);
  env.driver->Quiesce();
  // Under contention there are conflict aborts, yet commits keep flowing.
  EXPECT_GT(stats.TotalConflictAborts(), 0u);
  EXPECT_GT(stats.TotalCommits(), 100u);
}

TEST(DriverTest, StatsClassNames) {
  Env env = MakeEnv("2pl");
  auto stats = env.driver->Run(0, 5 * kMillisecond);
  env.driver->Quiesce();
  ASSERT_EQ(stats.classes.size(), 1u);
  EXPECT_EQ(stats.classes[0].name, "book");
  EXPECT_GT(stats.classes[0].latency.count(), 0u);
}

TEST(DriverTest, DistributedRatioTracked) {
  Env env = MakeEnv("2pl");
  auto stats = env.driver->Run(0, 5 * kMillisecond);
  env.driver->Quiesce();
  // Random customers/flights over 4 partitions: most bookings span
  // partitions.
  EXPECT_GT(stats.DistributedRatio(), 0.5);
}

// ---------------------------------------------------------------------------
// Load models (cc/load_model.h)
// ---------------------------------------------------------------------------

/// Replaces an Env's driver with one using an explicit load model.
void UseModel(Env* env, std::unique_ptr<cc::LoadModel> model,
              uint64_t seed = 1) {
  env->driver = std::make_unique<cc::Driver>(
      env->cluster.get(), env->protocol.get(), env->workload.get(),
      std::move(model), seed);
}

TEST(LoadModelTest, ExplicitClosedLoopMatchesLegacyConstructor) {
  // The legacy Driver constructor and an injected ClosedLoop must be the
  // same driver, event for event (the Figure 9 baselines depend on it).
  Env legacy = MakeEnv("2pl", 3, /*concurrency=*/3);
  auto a = legacy.driver->Run(kMillisecond, 6 * kMillisecond);
  legacy.driver->Quiesce();

  Env injected = MakeEnv("2pl", 3, /*concurrency=*/3);
  UseModel(&injected, std::make_unique<cc::ClosedLoop>(3));
  auto b = injected.driver->Run(kMillisecond, 6 * kMillisecond);
  injected.driver->Quiesce();

  EXPECT_EQ(a.TotalCommits(), b.TotalCommits());
  EXPECT_EQ(a.TotalConflictAborts(), b.TotalConflictAborts());
  EXPECT_EQ(legacy.cluster->sim()->events_processed(),
            injected.cluster->sim()->events_processed());
  // Closed loop has no admission queue: the accounting must stay zero.
  EXPECT_EQ(b.admitted, 0u);
  EXPECT_EQ(b.shed, 0u);
  EXPECT_EQ(b.queue_delay.count(), 0u);
}

TEST(LoadModelTest, OpenLoopDeliversTheOfferedRate) {
  // Well under capacity the open loop must deliver ~what was offered:
  // uniform arrivals at 20k tps cluster-wide over a 10 ms window = ~200
  // attempts, with an idle queue and nothing shed.
  Env env = MakeEnv("2pl", 2, /*concurrency=*/2);
  cc::OpenLoopOptions o;
  o.offered_tps = 20000;
  o.arrival = "uniform";
  o.slots_per_engine = 2;
  o.queue_cap = 16;
  UseModel(&env, std::make_unique<cc::OpenLoop>(o));
  auto stats = env.driver->Run(2 * kMillisecond, 10 * kMillisecond);
  env.driver->Quiesce();

  EXPECT_GT(stats.admitted, 0u);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_GE(stats.TotalAttempts(), 120u);
  EXPECT_LE(stats.TotalAttempts(), 280u);
  EXPECT_GT(stats.TotalCommits(), 0u);
  // Queueing delay is measured, and at 10% load it is essentially zero.
  EXPECT_GT(stats.queue_delay.count(), 0u);
  EXPECT_LT(stats.queue_delay.Mean(), 10000.0);
}

TEST(LoadModelTest, OpenLoopShedsAtAFullQueue) {
  // Offered load far beyond capacity with a tiny queue: the bounded
  // admission queue must shed most arrivals instead of queueing without
  // limit, and what is admitted still commits.
  Env env = MakeEnv("2pl", 2, /*concurrency=*/1);
  cc::OpenLoopOptions o;
  o.offered_tps = 5000000;
  o.slots_per_engine = 1;
  o.queue_cap = 2;
  UseModel(&env, std::make_unique<cc::OpenLoop>(o));
  auto stats = env.driver->Run(kMillisecond, 8 * kMillisecond);
  env.driver->Quiesce();

  EXPECT_GT(stats.shed, 0u);
  EXPECT_GT(stats.admitted, 0u);
  EXPECT_GT(stats.ShedRate(), 0.5);
  EXPECT_LT(stats.ShedRate(), 1.0);
  EXPECT_GT(stats.TotalCommits(), 0u);
  // The queue was persistently full, so admitted requests waited.
  EXPECT_GT(stats.queue_delay.Percentile(99), 0u);
}

TEST(LoadModelTest, OpenLoopIsDeterministic) {
  auto run = [] {
    Env env = MakeEnv("chiller", 3, /*concurrency=*/2);
    cc::OpenLoopOptions o;
    o.offered_tps = 100000;
    o.slots_per_engine = 2;
    o.queue_cap = 8;
    o.seed = 42;
    UseModel(&env, std::make_unique<cc::OpenLoop>(o), /*seed=*/42);
    auto stats = env.driver->Run(kMillisecond, 6 * kMillisecond);
    env.driver->Quiesce();
    return std::make_tuple(stats.TotalCommits(), stats.admitted, stats.shed,
                           env.cluster->sim()->events_processed());
  };
  EXPECT_EQ(run(), run());
}

TEST(LoadModelTest, FactoryValidatesParams) {
  cc::LoadModelParams p;
  EXPECT_TRUE(cc::MakeLoadModel("closed", p).ok());
  EXPECT_TRUE(cc::MakeLoadModel("nope", p).status().IsInvalidArgument());
  // "batched" is not a load model; the message names the known ones.
  const Status batched = cc::MakeLoadModel("batched", p).status();
  EXPECT_TRUE(batched.IsInvalidArgument());
  EXPECT_NE(batched.message().find("closed, open"), std::string::npos);

  // Open needs a positive offered rate and a non-degenerate queue.
  EXPECT_TRUE(cc::MakeLoadModel("open", p).status().IsInvalidArgument());
  p.offered_tps = 1000;
  EXPECT_TRUE(cc::MakeLoadModel("open", p).ok());
  p.queue_cap = 0;
  EXPECT_TRUE(cc::MakeLoadModel("open", p).status().IsInvalidArgument());
  p.queue_cap = 4;
  p.arrival = "bursty";
  EXPECT_TRUE(cc::MakeLoadModel("open", p).status().IsInvalidArgument());
  p.arrival = "uniform";
  EXPECT_TRUE(cc::MakeLoadModel("open", p).ok());
}

}  // namespace
}  // namespace chiller
