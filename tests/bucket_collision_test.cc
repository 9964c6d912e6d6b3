// Regression tests: two different keys colliding into one bucket inside a
// single transaction must not self-deadlock under NO_WAIT (the bucket lock
// is recognized as already owned and the second write piggybacks on it).
#include <gtest/gtest.h>

#include <memory>

#include "cc/cluster.h"
#include "cc/occ.h"
#include "cc/twopl.h"
#include "chiller/two_region.h"
#include "partition/lookup_table.h"
#include "txn/transaction.h"

namespace chiller {
namespace {

using storage::LockMode;
using storage::Record;
using txn::Operation;
using txn::OpType;
using txn::Outcome;
using txn::Transaction;

/// Schema with a single-bucket table: every key collides.
std::vector<storage::TableSpec> OneBucketSchema() {
  return {storage::TableSpec{.name = "t", .id = 0, .num_fields = 1,
                             .buckets_per_partition = 1}};
}

Operation UpdateKey(Key k, int64_t delta) {
  Operation op;
  op.type = OpType::kUpdate;
  op.table = 0;
  op.mode = LockMode::kExclusive;
  op.key_fn = [k](const txn::TxnContext&) { return k; };
  op.on_apply = [delta](txn::TxnContext&, Record* r) { r->Add(0, delta); };
  return op;
}

struct MiniEnv {
  std::unique_ptr<cc::Cluster> cluster;
  partition::HashPartitioner partitioner{1, [](const RecordId&, uint32_t) {
                                           return PartitionId{0};
                                         }};
  std::unique_ptr<cc::ReplicationManager> repl;
  std::unique_ptr<cc::Protocol> protocol;
};

MiniEnv MakeMini(const std::string& proto) {
  MiniEnv env;
  cc::ClusterConfig cfg;
  cfg.topology = net::Topology{.num_nodes = 2,
                               .engines_per_node = 1,
                               .replication_degree = 2};
  cfg.schema = OneBucketSchema();
  env.cluster = std::make_unique<cc::Cluster>(cfg);
  for (Key k = 1; k <= 4; ++k) {
    Record r(1);
    r.Set(0, 100);
    env.cluster->LoadRecord(RecordId{0, k}, r, env.partitioner);
  }
  env.repl = std::make_unique<cc::ReplicationManager>(env.cluster.get());
  if (proto == "2pl") {
    env.protocol = std::make_unique<cc::TwoPhaseLocking>(
        env.cluster.get(), &env.partitioner, env.repl.get());
  } else if (proto == "occ") {
    env.protocol = std::make_unique<cc::Occ>(env.cluster.get(),
                                             &env.partitioner,
                                             env.repl.get());
  } else {
    env.protocol = std::make_unique<core::ChillerProtocol>(
        env.cluster.get(), &env.partitioner, env.repl.get());
  }
  return env;
}

class BucketCollisionTest : public ::testing::TestWithParam<std::string> {};

TEST_P(BucketCollisionTest, TwoKeysOneBucketCommits) {
  MiniEnv env = MakeMini(GetParam());
  auto t = std::make_shared<Transaction>();
  t->ops = {UpdateKey(1, 5), UpdateKey(2, 7)};
  t->home = 0;
  t->InitAccesses();
  bool done = false;
  env.protocol->Execute(t, [&] { done = true; });
  env.cluster->sim()->Run();
  ASSERT_TRUE(done);
  EXPECT_EQ(t->outcome, Outcome::kCommitted);
  EXPECT_EQ(env.cluster->primary(0)->Find({0, 1})->Get(0), 105);
  EXPECT_EQ(env.cluster->primary(0)->Find({0, 2})->Get(0), 107);
  EXPECT_EQ(env.cluster->primary(0)->locks_held(), 0u);
  // Replica converged too (piggybacked writes replicate with the rest).
  EXPECT_EQ(env.cluster->replica(0, 1)->Find({0, 1})->Get(0), 105);
  EXPECT_EQ(env.cluster->replica(0, 1)->Find({0, 2})->Get(0), 107);
}

TEST_P(BucketCollisionTest, FourKeysOneBucketCommits) {
  MiniEnv env = MakeMini(GetParam());
  auto t = std::make_shared<Transaction>();
  t->ops = {UpdateKey(1, 1), UpdateKey(2, 2), UpdateKey(3, 3),
            UpdateKey(4, 4)};
  t->home = 0;
  t->InitAccesses();
  bool done = false;
  env.protocol->Execute(t, [&] { done = true; });
  env.cluster->sim()->Run();
  ASSERT_TRUE(done);
  EXPECT_EQ(t->outcome, Outcome::kCommitted);
  for (Key k = 1; k <= 4; ++k) {
    EXPECT_EQ(env.cluster->primary(0)->Find({0, k})->Get(0),
              100 + static_cast<int64_t>(k));
  }
  EXPECT_EQ(env.cluster->primary(0)->locks_held(), 0u);
}

TEST_P(BucketCollisionTest, RepeatedKeyAfterPiggybackKeepsBothUpdates) {
  // Key 2's first update piggybacks on key 1's bucket lock; its second
  // update must apply to that same buffered image, not to a fresh copy.
  MiniEnv env = MakeMini(GetParam());
  auto t = std::make_shared<Transaction>();
  t->ops = {UpdateKey(1, 5), UpdateKey(2, 7), UpdateKey(2, 11)};
  t->home = 0;
  t->InitAccesses();
  bool done = false;
  env.protocol->Execute(t, [&] { done = true; });
  env.cluster->sim()->Run();
  ASSERT_TRUE(done);
  EXPECT_EQ(t->outcome, Outcome::kCommitted);
  EXPECT_EQ(env.cluster->primary(0)->Find({0, 1})->Get(0), 105);
  EXPECT_EQ(env.cluster->primary(0)->Find({0, 2})->Get(0), 118);
  EXPECT_EQ(env.cluster->primary(0)->locks_held(), 0u);
  EXPECT_EQ(env.cluster->replica(0, 1)->Find({0, 1})->Get(0), 105);
  EXPECT_EQ(env.cluster->replica(0, 1)->Find({0, 2})->Get(0), 118);
}

TEST_P(BucketCollisionTest, AbortReleasesEverything) {
  MiniEnv env = MakeMini(GetParam());
  auto t = std::make_shared<Transaction>();
  Operation guarded = UpdateKey(2, 7);
  guarded.guard = [](const txn::TxnContext&) { return false; };  // user abort
  t->ops = {UpdateKey(1, 5), std::move(guarded)};
  t->home = 0;
  t->InitAccesses();
  bool done = false;
  env.protocol->Execute(t, [&] { done = true; });
  env.cluster->sim()->Run();
  ASSERT_TRUE(done);
  EXPECT_EQ(t->outcome, Outcome::kAbortUser);
  EXPECT_EQ(env.cluster->primary(0)->Find({0, 1})->Get(0), 100);  // rolled back
  EXPECT_EQ(env.cluster->primary(0)->Find({0, 2})->Get(0), 100);
  EXPECT_EQ(env.cluster->primary(0)->locks_held(), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, BucketCollisionTest,
                         ::testing::Values("2pl", "occ", "chiller"));

}  // namespace
}  // namespace chiller
