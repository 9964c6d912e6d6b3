#include "scenario.h"

#include <algorithm>
#include <chrono>
#include <memory>

#include "chiller/two_region.h"
#include "checks.h"
#include "migrate/adaptive_controller.h"
#include "probe.h"
#include "runner/runner.h"
#include "stats.h"
#include "workload/tpcc/tpcc_schema.h"

namespace perfbench {

namespace {

using chiller::kMicrosecond;
using chiller::kMillisecond;
using chiller::SimTime;
using chiller::Status;
using chiller::StatusOr;
using chiller::runner::ScenarioSpec;
using Clock = std::chrono::steady_clock;

Workload TpccClosed(uint64_t seed) {
  Workload wl;
  wl.name = "tpcc-closed";
  ScenarioSpec s;
  s.label = wl.name;
  s.workload = "bench-tpcc";
  s.protocol = "bench-chiller";
  s.nodes = 8;
  s.engines_per_node = 10;  // 80 warehouses, one per engine
  s.concurrency = 4;
  // End-to-end host times come from the single-threaded simulator: four
  // barrier-synchronized shard threads on a four-core host swing run_s by
  // several x with the host's other load. The sharded run is the
  // comparison run of the per-layer mode (equality and speedup).
  s.shards = 1;
  s.seed = seed;
  s.warmup = 1 * kMillisecond;
  s.measure = 4 * kMillisecond;
  wl.points = {s};
  wl.tpcc = true;
  return wl;
}

Workload YcsbHotOpen(uint64_t seed) {
  Workload wl;
  wl.name = "ycsb-hot-open";
  ScenarioSpec s;
  s.workload = "bench-ycsb";
  s.protocol = "bench-chiller";
  s.nodes = 8;
  s.engines_per_node = 1;
  s.concurrency = 4;
  s.load_model = "open";
  s.arrival = "poisson";
  s.queue_cap = 10;
  s.scheduler = "hash-affinity";
  s.seed = seed;
  s.warmup = 2 * kMillisecond;
  s.measure = 100 * kMillisecond;
  s.options.Set("theta", 0.99);
  s.options.Set("ops_per_txn", 2);
  s.options.Set("read_ratio", 0.0);
  s.options.Set("hot_keys_per_partition", 2);
  s.options.Set("distributed_ratio", 0.1);
  for (double tps : {0.8e6, 0.9e6, 1.0e6, 1.1e6}) {
    ScenarioSpec p = s;
    p.offered_tps = tps;
    p.label = wl.name + "@" + std::to_string(static_cast<uint64_t>(tps));
    wl.points.push_back(p);
  }
  wl.reference = 2;
  wl.slo_us = 21.0;
  return wl;
}

Workload AdaptiveShift(uint64_t seed) {
  Workload wl;
  wl.name = "adaptive-shift";
  const SimTime warmup = 2 * kMillisecond;
  const SimTime window = 26 * kMillisecond;
  ScenarioSpec s;
  s.workload = "bench-adaptive";
  s.protocol = "bench-chiller";
  s.nodes = 4;
  s.engines_per_node = 4;
  s.concurrency = 4;
  s.options.Set("theta", 0.9);
  s.options.Set("keys_per_partition", 10000);
  // The hot set rotates once, mid-window, after the controller settled.
  s.options.Set("shift_every_us",
                static_cast<uint64_t>((warmup + window / 2) / kMicrosecond));
  s.options.Set("shift_stride", 2500);
  s.continuous = true;
  s.warmup = warmup;
  s.measure = window;
  s.controller_period = kMillisecond;
  s.rearm_threshold = 0.2;
  // How often the controller relays out, and so what a run costs, depends
  // on the draw: three derived seeds per repetition average that out.
  constexpr uint64_t kDraws = 3;
  for (uint64_t i = 0; i < kDraws; ++i) {
    ScenarioSpec p = s;
    p.seed = seed * kDraws + i;
    p.label = wl.name + "#" + std::to_string(i);
    wl.points.push_back(p);
  }
  wl.reference_count = kDraws;
  return wl;
}

/// Counters read at the edges of the measure window.
struct Snapshot {
  uint64_t events = 0, messages = 0, bytes = 0, rdma_ops = 0, rpcs = 0,
           repl_batches = 0, executes = 0, classname = 0, routed_remote = 0,
           two_region = 0, fallback = 0, inner_aborts = 0, inner_local = 0;
};

Snapshot Take(chiller::runner::ScenarioEnv* env, const Probe& probe) {
  chiller::cc::Cluster* c = env->cluster.get();
  Snapshot s;
  s.events = c->sim()->events_processed();
  s.messages = c->network()->messages_sent();
  s.bytes = c->network()->bytes_sent();
  s.rdma_ops = c->rdma()->ops_issued();
  s.rpcs = c->rpc()->rpcs_sent();
  s.repl_batches = env->repl->batches_sent();
  s.executes = probe.Executes();
  s.classname = probe.ClassNameCalls();
  s.routed_remote = c->metrics()->GetCounter("sched.routed_remote")->Sum();
  if (const auto* ch = dynamic_cast<const chiller::core::ChillerProtocol*>(
          probe.inner_protocol)) {
    s.two_region = ch->counters().two_region_txns.load();
    s.fallback = ch->counters().fallback_txns.load();
    s.inner_aborts = ch->counters().inner_aborts.load();
    s.inner_local = ch->counters().inner_local.load();
  }
  return s;
}

double P99Us(const chiller::Histogram& h) {
  return h.count() == 0 ? 0.0 : static_cast<double>(h.Percentile(99.0)) / 1e3;
}

}  // namespace

std::vector<std::string> WorkloadNames() {
  return {"tpcc-closed", "ycsb-hot-open", "adaptive-shift"};
}

StatusOr<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "tpcc-closed") return TpccClosed(seed);
  if (name == "ycsb-hot-open") return YcsbHotOpen(seed);
  if (name == "adaptive-shift") return AdaptiveShift(seed);
  std::string known;
  for (const std::string& n : WorkloadNames()) known += " " + n;
  return Status::InvalidArgument("unknown workload '" + name + "'; known:" +
                                 known);
}

void SimOutcome::Add(const SimOutcome& other) {
  commits += other.commits;
  attempts += other.attempts;
  conflict_aborts += other.conflict_aborts;
  user_aborts += other.user_aborts;
  admitted += other.admitted;
  shed += other.shed;
  window += other.window;
  const size_t mid = response_ns.size();
  response_ns.insert(response_ns.end(), other.response_ns.begin(),
                     other.response_ns.end());
  std::inplace_merge(response_ns.begin(), response_ns.begin() + mid,
                     response_ns.end());
}

double SimOutcome::Tps() const {
  return window == 0 ? 0.0
                     : static_cast<double>(commits) /
                           (static_cast<double>(window) / chiller::kSecond);
}

double SimOutcome::AbortRate() const {
  return attempts == 0 ? 0.0
                       : static_cast<double>(conflict_aborts) /
                             static_cast<double>(attempts);
}

double SimOutcome::FailedShare() const {
  const uint64_t offered = admitted + shed;
  return offered == 0 ? 0.0
                      : static_cast<double>(shed) / static_cast<double>(offered);
}

StatusOr<ScenarioRun> RunScenario(const Workload& wl, ScenarioSpec spec,
                                  bool traced) {
  Install();
  spec.trace_sample_every = traced ? kTraceSampleEvery : 0;
  ScenarioRun run;
  Probe probe(traced);

  // --- setup: ScenarioRunner::Wire (bundle, cluster, load, protocol,
  // driver) --------------------------------------------------------------
  auto t0 = Clock::now();
  std::unique_ptr<chiller::runner::ScenarioEnv> env;
  {
    ScopedProbe scope(&probe);
    auto wired = chiller::runner::ScenarioRunner::Wire(spec);
    if (!wired.ok()) return wired.status();
    env = std::make_unique<chiller::runner::ScenarioEnv>(
        std::move(wired).value());
  }
  run.setup_s = SecondsBetween(t0, Clock::now());
  run.make_s = probe.make_s;
  run.load_s = probe.load_s;
  probe.BindDriver(env->driver.get());
  chiller::cc::Cluster* cluster = env->cluster.get();
  chiller::cc::Driver* driver = env->driver.get();
  chiller::sim::Scheduler* sim = cluster->sim();
  run.records_loaded = cluster->TotalPrimaryRecords();

  // --- run: warmup, measure (or the controller's epochs), drain ----------
  t0 = Clock::now();
  const uint64_t events0 = sim->events_processed();
  driver->Start();
  driver->Advance(spec.warmup);
  driver->ResetStats();
  const Snapshot s0 = Take(env.get(), probe);
  const double from_us = static_cast<double>(sim->now()) / kMicrosecond;
  driver->set_measuring(true);
  SimTime window = spec.measure;
  if (spec.continuous) {
    chiller::migrate::AdaptiveControllerOptions copts;
    copts.period = spec.controller_period;
    copts.sample_rate = spec.controller_sample_rate;
    copts.drift_threshold = spec.controller_drift_threshold;
    copts.hysteresis_epochs = spec.controller_hysteresis;
    copts.lock_window_txns =
        static_cast<double>(spec.concurrency) * spec.partitions();
    copts.relayout_buckets = spec.relayout_buckets;
    copts.migrator.batch_records = spec.migrate_batch_records;
    copts.migrator.streams = spec.migrate_streams;
    copts.governor = spec.governor;
    copts.governor_opts.min_streams = spec.governor_min_streams;
    copts.governor_opts.max_streams = spec.governor_max_streams;
    copts.governor_opts.p99_budget = spec.governor_p99_budget;
    copts.governor_opts.max_abort_share = spec.governor_max_abort_share;
    copts.rearm_threshold = spec.rearm_threshold;
    copts.shadow = spec.shadow;
    copts.seed = spec.seed;
    chiller::partition::SwappablePartitioner* live =
        env->bundle->adaptive_partitioner();
    chiller::migrate::AdaptiveController controller(driver, cluster,
                                                    env->repl.get(), live,
                                                    copts);
    double advance_s = 0.0;
    const auto c0 = Clock::now();
    auto advanced = controller.RunFor(spec.measure, [&](SimTime d) {
      const auto a0 = Clock::now();
      driver->Advance(d);
      advance_s += SecondsBetween(a0, Clock::now());
    });
    if (!advanced.ok()) return advanced.status();
    // The controller's own host time: holdout scoring, replans, plan
    // diffs — everything RunFor does besides advancing the simulation.
    run.controller_host_s = SecondsBetween(c0, Clock::now()) - advance_s;
    window = advanced.value();
    const auto& rep = controller.report();
    run.epochs = rep.epochs;
    run.relayouts = rep.migrations;
    run.rearms = rep.rearms;
    run.moved_records = rep.moved_records;
    run.buckets_moved = rep.buckets_moved;
    run.sampled_txns = rep.sampled_txns;
    const SimTime span = rep.last_migration_end - rep.first_migration_start;
    if (span > 0) {
      run.migrate_window_tps = static_cast<double>(rep.window_commits) /
                               (static_cast<double>(span) / chiller::kSecond);
    }
    const uint64_t outcomes = rep.window_commits + rep.window_aborts;
    if (outcomes > 0) {
      run.migrate_abort_share = static_cast<double>(rep.window_aborts) /
                                static_cast<double>(outcomes);
    }
    run.lookup_entries = live->LookupEntries();
  } else {
    driver->Advance(spec.measure);
  }
  driver->set_measuring(false);
  driver->set_measured_window(window);
  const Snapshot s1 = Take(env.get(), probe);
  const double to_us = static_cast<double>(sim->now()) / kMicrosecond;
  const chiller::cc::RunStats stats = driver->stats();
  driver->Quiesce();
  run.run_s = SecondsBetween(t0, Clock::now());
  run.events_run = sim->events_processed() - events0;

  // --- untimed: derive, check, probe storage -----------------------------
  SimOutcome& o = run.sim;
  o.commits = stats.TotalCommits();
  o.attempts = stats.TotalAttempts();
  o.conflict_aborts = stats.TotalConflictAborts();
  for (const auto& cs : stats.classes) o.user_aborts += cs.user_aborts;
  o.admitted = stats.admitted;
  o.shed = stats.shed;
  o.window = window;
  o.response_ns = probe.ResponseNs();
  if (o.response_ns.size() != o.commits + o.user_aborts) {
    run.violations.push_back(
        "response samples (" + std::to_string(o.response_ns.size()) +
        ") differ from committed + user-aborted transactions (" +
        std::to_string(o.commits + o.user_aborts) + ")");
  }
  o.response_ns.insert(o.response_ns.end(), o.shed, kNeverServed);
  std::sort(o.response_ns.begin(), o.response_ns.end());

  chiller::Histogram attempt_latency;
  for (const auto& cs : stats.classes) attempt_latency.Merge(cs.latency);
  run.attempt_p99_us = P99Us(attempt_latency);
  run.queue_delay_p99_us = P99Us(stats.queue_delay);
  run.distributed_ratio = stats.DistributedRatio();
  for (uint32_t c = 0; c < stats.classes.size(); ++c) {
    if (stats.classes[c].name == "NewOrder") {
      run.abort_rate_neworder = stats.ClassAbortRate(c);
    } else if (stats.classes[c].name == "Payment") {
      run.abort_rate_payment = stats.ClassAbortRate(c);
    }
  }

  run.events_window = s1.events - s0.events;
  run.messages = s1.messages - s0.messages;
  run.bytes = s1.bytes - s0.bytes;
  run.rdma_ops = s1.rdma_ops - s0.rdma_ops;
  run.rpcs = s1.rpcs - s0.rpcs;
  run.replication_batches = s1.repl_batches - s0.repl_batches;
  run.executes = s1.executes - s0.executes;
  run.classname_calls = s1.classname - s0.classname;
  run.routed_remote = s1.routed_remote - s0.routed_remote;
  run.two_region = s1.two_region - s0.two_region;
  run.fallback = s1.fallback - s0.fallback;
  run.inner_aborts = s1.inner_aborts - s0.inner_aborts;
  run.inner_local = s1.inner_local - s0.inner_local;
  if (traced) {
    if (probe.Executes() > 0) {
      run.execute_ns = static_cast<double>(probe.ExecuteNs()) /
                       static_cast<double>(probe.Executes());
    }
    if (probe.Draws() > 0) {
      run.draw_ns = static_cast<double>(probe.DrawNs()) /
                    static_cast<double>(probe.Draws());
    }
    auto split =
        SplitTrace(cluster->trace()->DumpJson(), from_us, to_us);
    if (!split.ok()) return split.status();
    run.trace = split.value();
  }

  chiller::Rng sample_rng(spec.seed);
  StorageAudit audit = AuditStorage(
      cluster, *env->bundle->partitioner(),
      wl.tpcc ? chiller::workload::tpcc::kItem : -1, 4096, &sample_rng);
  run.violations.insert(run.violations.end(), audit.violations.begin(),
                        audit.violations.end());
  if (!wl.tpcc && audit.primary_records != run.records_loaded) {
    run.violations.push_back(
        "record count changed: loaded " + std::to_string(run.records_loaded) +
        ", after the run " + std::to_string(audit.primary_records));
  }
  if (wl.tpcc) CheckTpccConsistency(cluster, &run.violations);
  run.find_ns = TimeFindNs(cluster, audit, 16);

  // --- teardown: destroying the ScenarioEnv ------------------------------
  t0 = Clock::now();
  env.reset();
  run.teardown_s = SecondsBetween(t0, Clock::now());
  return run;
}

}  // namespace perfbench
