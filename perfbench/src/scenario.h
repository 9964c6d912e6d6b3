// The benchmark's workloads and one measured scenario run.
#ifndef PERFBENCH_SCENARIO_H_
#define PERFBENCH_SCENARIO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "runner/scenario.h"
#include "trace_split.h"

namespace perfbench {

/// ScenarioSpec::trace_sample_every of the traced runs.
constexpr uint32_t kTraceSampleEvery = 16;

/// Shard count of the per-layer mode's comparison run (the other runs use
/// one): its simulated outcome must equal theirs, and sim.shard_speedup is
/// their run_s over its.
constexpr uint32_t kCompareShards = 4;

/// One benchmark workload: the scenarios a repetition runs, in order.
struct Workload {
  std::string name;
  /// The scenarios of one repetition: an offered-rate grid for an open
  /// loop, or a closed loop drawn from one or more seeds derived from the
  /// run's seed.
  std::vector<chiller::runner::ScenarioSpec> points;
  /// Points [reference, reference + reference_count) pool their outcomes
  /// into the end-to-end simulated metrics; the first of them alone gives
  /// the per-layer ratios.
  size_t reference = 0;
  size_t reference_count = 1;
  /// Open loop: response-time p99 limit for max_tps_at_slo, us.
  double slo_us = 0.0;
  /// TPC-C: checked against consistency conditions 1-5, with ITEM (loaded
  /// into every store) exempt from single residency. Otherwise the primary
  /// record count must survive the run (YCSB inserts and deletes nothing).
  /// TPC-C is also the one workload the per-layer mode reruns on
  /// kCompareShards simulator shards.
  bool tpcc = false;
};

/// The named workload with inputs drawn from `seed`; InvalidArgument names
/// the known ones otherwise.
chiller::StatusOr<Workload> MakeWorkload(const std::string& name,
                                         uint64_t seed);
std::vector<std::string> WorkloadNames();

/// Simulated outcome of a scenario: a pure function of the spec, so two
/// runs of one spec must agree on every field.
struct SimOutcome {
  uint64_t commits = 0;
  uint64_t attempts = 0;
  uint64_t conflict_aborts = 0;
  uint64_t user_aborts = 0;
  uint64_t admitted = 0;
  uint64_t shed = 0;
  chiller::SimTime window = 0;
  /// Response times (ns) of the logical transactions that finished in the
  /// window, ascending, with one kNeverServed per shed request.
  std::vector<uint64_t> response_ns;

  /// Pools `other` into this outcome (sums, windows, response times).
  void Add(const SimOutcome& other);

  double Tps() const;
  double AbortRate() const;
  double FailedShare() const;
  friend bool operator==(const SimOutcome&, const SimOutcome&) = default;
};

/// Everything one scenario run measured. Host times are seconds unless
/// named otherwise; window deltas are over the measure window.
struct ScenarioRun {
  SimOutcome sim;
  std::vector<std::string> violations;

  // End-to-end host cost.
  double setup_s = 0.0;
  double run_s = 0.0;
  double teardown_s = 0.0;

  // workload / storage
  double make_s = 0.0;
  double load_s = 0.0;
  uint64_t records_loaded = 0;
  double draw_ns = 0.0;  ///< per Next/Rebuild call (traced run only)
  uint64_t classname_calls = 0;
  double find_ns = 0.0;

  // sim / net / cc
  uint64_t events_window = 0;
  uint64_t events_run = 0;
  uint64_t messages = 0;
  uint64_t bytes = 0;
  uint64_t rdma_ops = 0;
  uint64_t rpcs = 0;
  uint64_t replication_batches = 0;
  uint64_t executes = 0;
  double execute_ns = 0.0;  ///< per Execute call (traced run only)
  double attempt_p99_us = 0.0;
  double queue_delay_p99_us = 0.0;
  double distributed_ratio = 0.0;
  double abort_rate_neworder = 0.0;
  double abort_rate_payment = 0.0;

  // chiller (attempt counts over the window)
  uint64_t two_region = 0;
  uint64_t fallback = 0;
  uint64_t inner_aborts = 0;
  uint64_t inner_local = 0;

  // schedule
  uint64_t routed_remote = 0;

  // partition / migrate
  double controller_host_s = 0.0;
  uint32_t epochs = 0;
  uint32_t relayouts = 0;
  uint32_t rearms = 0;
  uint64_t moved_records = 0;
  uint32_t buckets_moved = 0;
  double migrate_window_tps = 0.0;
  double migrate_abort_share = 0.0;
  uint64_t lookup_entries = 0;
  uint64_t sampled_txns = 0;

  // obs (traced run only)
  TraceSplit trace;
};

/// Wires `spec` through the delegating entries, runs warmup -> measure (or
/// the continuous controller) -> drain, checks the drained cluster, and
/// tears it down, timing each step. `traced` turns on the host timers and
/// samples every kTraceSampleEvery-th transaction into the trace.
chiller::StatusOr<ScenarioRun> RunScenario(const Workload& wl,
                                           chiller::runner::ScenarioSpec spec,
                                           bool traced);

}  // namespace perfbench

#endif  // PERFBENCH_SCENARIO_H_
