// Walks through the paper's Figure 4 end to end: the stored procedure, its
// dependency graph, the run-time two-region decision, and one execution
// trace on a cluster wired by ScenarioRunner::Wire (the runner's
// inspection entry point — it hands back the live protocol so this example
// can read the two-region counters after the run).
//
//   $ ./build/examples/flight_booking
#include <cstdio>

#include "chiller/two_region.h"
#include "runner/runner.h"
#include "txn/dependency_graph.h"
#include "workload/flight.h"

using namespace chiller;

namespace {
const char* kOpNames[] = {"fread", "cread", "tread", "fupd", "cupd", "sins"};
}

int main() {
  std::printf("The Figure 4 flight-booking procedure\n");
  std::printf("=====================================\n\n");

  workload::FlightPartitioner partitioner(4, /*hot_flights=*/10);
  auto txn = workload::MakeBookingTxn(/*flight=*/5, /*cust=*/1234);

  // --- static analysis: the dependency graph ---
  auto status = txn::DependencyAnalysis::Validate(txn->ops);
  std::printf("static analysis: %s\n\n", status.ToString().c_str());
  auto children = txn::DependencyAnalysis::PkChildren(txn->ops);
  for (size_t i = 0; i < txn->ops.size(); ++i) {
    std::printf("  op %zu %-6s table=%u pk-deps:[", i, kOpNames[i],
                txn->ops[i].table);
    for (int d : txn->ops[i].pk_deps) std::printf(" %s", kOpNames[d]);
    std::printf(" ] v-deps:[");
    for (int d : txn->ops[i].v_deps) std::printf(" %s", kOpNames[d]);
    std::printf(" ]%s%s\n", txn->ops[i].guard ? " [guarded]" : "",
                txn->ops[i].co_located_with_dep ? " [co-located]" : "");
  }

  // --- run-time decision (Section 3.3 steps 1-2) ---
  txn->InitAccesses();
  txn->ResolveReadyKeys();
  for (auto& a : txn->accesses) {
    if (a.key_resolved) a.partition = partitioner.PartitionOf(a.rid);
  }
  auto plan = txn::DependencyAnalysis::Plan(
      *txn, [&](const RecordId& r) { return partitioner.IsHot(r); },
      [&](const RecordId& r) { return partitioner.PartitionOf(r); });

  std::printf("\nrun-time decision: %s\n",
              plan.two_region ? "two-region execution"
                              : plan.fallback_reason.c_str());
  std::printf("  inner host: partition %u\n", plan.inner_host);
  std::printf("  inner region:");
  for (int i : plan.inner_ops) std::printf(" %s", kOpNames[i]);
  std::printf("\n  outer region:");
  for (int i : plan.outer_ops) std::printf(" %s", kOpNames[i]);
  std::printf("\n  deferred to outer phase 2:");
  for (int i : plan.deferred_apply) std::printf(" %s", kOpNames[i]);
  std::printf("\n\n");

  // --- execute it on a live simulated cluster ---
  runner::ScenarioSpec spec;
  spec.workload = "flight";
  spec.protocol = "chiller";
  spec.nodes = 4;
  spec.engines_per_node = 1;
  spec.concurrency = 2;
  spec.warmup = 1 * kMillisecond;
  spec.measure = 20 * kMillisecond;

  auto env = runner::ScenarioRunner::Wire(spec);
  if (!env.ok()) {
    std::fprintf(stderr, "%s\n", env.status().ToString().c_str());
    return 1;
  }
  auto stats = env->driver->Run(spec.warmup, spec.measure);
  env->driver->Quiesce();

  const auto* protocol =
      dynamic_cast<const core::ChillerProtocol*>(env->protocol.get());
  if (protocol == nullptr) {
    std::fprintf(stderr, "registry returned a non-Chiller protocol\n");
    return 1;
  }
  std::printf("executed %llu bookings (%.1f%% as two-region, %.1f%% "
              "fallback 2PL)\n",
              static_cast<unsigned long long>(stats.TotalCommits()),
              100.0 * protocol->counters().two_region_txns /
                  (protocol->counters().two_region_txns +
                   protocol->counters().fallback_txns),
              100.0 * protocol->counters().fallback_txns /
                  (protocol->counters().two_region_txns +
                   protocol->counters().fallback_txns));
  std::printf("inner aborts: %llu, outer aborts: %llu\n",
              static_cast<unsigned long long>(
                  protocol->counters().inner_aborts),
              static_cast<unsigned long long>(
                  protocol->counters().outer_aborts));
  return 0;
}
