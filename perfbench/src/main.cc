// perfbench: simulated outcomes and simulator host cost of one workload.
//
//   perfbench --workload <tpcc-closed|ycsb-hot-open|adaptive-shift>
//             --seed <n> --seconds <s> --trace <0|1>
//
// After one untimed warm-up repetition, repeats the workload's scenarios
// until --seconds of host time have passed (at least kMinReps times), checks every run's drained cluster,
// and prints one line per metric followed, as the last line, by a JSON
// object {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
// the end-to-end metrics from untraced runs; --trace 1 alternates
// untraced and traced runs (and, on tpcc-closed, 4-shard runs) and reports
// the per-layer metrics. Exits 1 when a correctness check fails, 2 on bad
// arguments or a scenario that fails to run.
#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "scenario.h"
#include "stats.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

/// Repetitions below which host medians are not worth reporting.
constexpr int kMinReps = 3;

/// Rows of the per-rate grid every workload reports (zeros off-grid).
constexpr size_t kGridRows = 4;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a->workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      a->seed = std::strtoull(val.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      a->seconds = std::strtod(val.c_str(), &end);
      if (*end != '\0' || a->seconds <= 0) return false;
    } else if (key == "--trace") {
      if (val != "0" && val != "1") return false;
      a->trace = val == "1";
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1;
}

/// Process peak resident set (VmHWM) in MB.
double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// One repetition: every point of the workload, in order.
struct Rep {
  std::vector<ScenarioRun> points;

  double Sum(double ScenarioRun::*field) const {
    double s = 0.0;
    for (const ScenarioRun& r : points) s += r.*field;
    return s;
  }
  uint64_t SumCount(uint64_t ScenarioRun::*field) const {
    uint64_t s = 0;
    for (const ScenarioRun& r : points) s += r.*field;
    return s;
  }
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

class Bench {
 public:
  Bench(Workload wl, double seconds) : wl_(std::move(wl)), seconds_(seconds) {}

  /// Runs every point once; false (with the error printed) when a scenario
  /// could not run at all.
  bool RunRep(bool traced, uint32_t shards_override, std::vector<Rep>* out) {
    Rep rep;
    for (const auto& spec : wl_.points) {
      auto s = spec;
      if (shards_override != 0) s.shards = shards_override;
      auto r = RunScenario(wl_, s, traced);
      if (!r.ok()) {
        std::fprintf(stderr, "perfbench: %s: %s\n", s.label.c_str(),
                     r.status().ToString().c_str());
        return false;
      }
      ScenarioRun run = std::move(r).value();
      const char* kind = traced ? " (traced)" : "";
      for (const std::string& v : run.violations) Fail(s.label + kind + ": " + v);
      std::fprintf(stderr,
                   "perfbench: %s%s: setup %.3f s, run %.3f s, teardown "
                   "%.3f s\n",
                   s.label.c_str(), kind, run.setup_s, run.run_s,
                   run.teardown_s);
      attempted_ += run.sim.response_ns.size();
      failed_ += run.sim.shed;
      rep.points.push_back(std::move(run));
    }
    // Simulated outcomes are a pure function of the spec: every rep, traced
    // or not, on any shard count, must reproduce the first one exactly.
    if (!reference_.empty()) {
      for (size_t i = 0; i < rep.points.size(); ++i) {
        if (!(rep.points[i].sim == reference_[i])) {
          Fail(wl_.points[i].label + ": simulated outcome differs from the " +
               "first run" + (traced ? " (traced run)" : "") +
               (shards_override != 0
                    ? " (" + std::to_string(shards_override) + " shards)"
                    : ""));
        }
      }
    } else {
      for (const ScenarioRun& r : rep.points) reference_.push_back(r.sim);
    }
    out->push_back(std::move(rep));
    return true;
  }

  bool Elapsed() const {
    return std::chrono::duration<double>(Clock::now() - start_).count() >=
           seconds_;
  }

  void Fail(const std::string& why) {
    correct_ = false;
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", why.c_str());
  }

  /// One untimed repetition first: it fills the allocator and page
  /// cache, fixes the simulated reference every later run must reproduce,
  /// and is checked like any other; its host times are not reported.
  bool WarmUp() {
    std::vector<Rep> warmup;
    if (!RunRep(false, 0, &warmup)) return false;
    start_ = Clock::now();
    return true;
  }

  int EndToEnd() {
    if (!WarmUp()) return 2;
    std::vector<Rep> reps;
    while (static_cast<int>(reps.size()) < kMinReps || !Elapsed()) {
      if (!RunRep(false, 0, &reps)) return 2;
    }
    const SimOutcome o = Pooled(reps.front());
    std::vector<Metric> m = {
        {"sim_tps", o.Tps(), "txn/s"},
        {"abort_rate", o.AbortRate(), "ratio"},
        {"txn_p50_us", PercentileUs(o.response_ns, 50.0), "us"},
        {"txn_p99_us", PercentileUs(o.response_ns, 99.0), "us"},
        {"setup_s", MedianOf(reps, &ScenarioRun::setup_s), "s"},
        {"run_s", MedianOf(reps, &ScenarioRun::run_s), "s"},
        {"teardown_s", MedianOf(reps, &ScenarioRun::teardown_s), "s"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
    };
    if (HighestReportablePercentile(o.response_ns.size()) < 99.0) {
      Fail("fewer than 1000 response samples: p99 has < 10 beyond it");
    }
    return Emit(m, reps.size());
  }

  int PerLayer() {
    if (!WarmUp()) return 2;
    std::vector<Rep> plain, traced, shards;
    while (plain.empty() || traced.empty() ||
           (wl_.tpcc && shards.empty()) || !Elapsed()) {
      if (!RunRep(false, 0, &plain)) return 2;
      if (!RunRep(true, 0, &traced)) return 2;
      if (wl_.tpcc && !RunRep(false, kCompareShards, &shards)) return 2;
    }
    const ScenarioRun& r = plain.front().points[wl_.reference];
    const ScenarioRun& t = traced.front().points[wl_.reference];
    const SimOutcome& o = r.sim;
    const double commits = static_cast<double>(std::max<uint64_t>(o.commits, 1));
    const double executes = static_cast<double>(std::max<uint64_t>(r.executes, 1));
    auto per_commit = [&](double v) { return v / commits; };
    auto per_attempt = [&](uint64_t v) {
      return static_cast<double>(v) / executes;
    };
    // Records loaded and events run repeat exactly in every repetition.
    const double records =
        static_cast<double>(plain.front().SumCount(&ScenarioRun::records_loaded));
    const double events_run =
        static_cast<double>(plain.front().SumCount(&ScenarioRun::events_run));
    const double run_plain = MedianOf(plain, &ScenarioRun::run_s);

    std::vector<Metric> m = {
        {"workload.make_s", MedianOf(plain, &ScenarioRun::make_s), "s"},
        {"workload.draw_ns", MedianPoint(traced, &ScenarioRun::draw_ns), "ns"},
        {"workload.classname_calls_per_commit",
         per_commit(static_cast<double>(r.classname_calls)), "calls/txn"},
        {"storage.load_s", MedianOf(plain, &ScenarioRun::load_s), "s"},
        {"storage.records_loaded", records, "count"},
        {"storage.load_ns_per_record",
         MedianOf(plain, &ScenarioRun::load_s) * 1e9 / records, "ns"},
        {"storage.teardown_ns_per_record",
         MedianOf(plain, &ScenarioRun::teardown_s) * 1e9 / records, "ns"},
        {"storage.find_ns", MedianPoint(plain, &ScenarioRun::find_ns), "ns"},
        {"sim.events", static_cast<double>(r.events_window), "count"},
        {"sim.events_per_commit",
         per_commit(static_cast<double>(r.events_window)), "events/txn"},
        {"sim.host_ns_per_event", run_plain * 1e9 / events_run, "ns"},
        {"sim.shard_speedup",
         shards.empty() ? 0.0
                        : run_plain / MedianOf(shards, &ScenarioRun::run_s),
         "x"},
        {"net.messages_per_commit", per_commit(static_cast<double>(r.messages)),
         "msgs/txn"},
        {"net.bytes_per_commit", per_commit(static_cast<double>(r.bytes)),
         "B/txn"},
        {"net.rdma_ops_per_commit", per_commit(static_cast<double>(r.rdma_ops)),
         "ops/txn"},
        {"net.rpcs_per_commit", per_commit(static_cast<double>(r.rpcs)),
         "rpcs/txn"},
        {"cc.attempts_per_commit", per_commit(static_cast<double>(o.attempts)),
         "attempts/txn"},
        {"cc.attempt_p99_us", r.attempt_p99_us, "us"},
        {"cc.queue_delay_p99_us", r.queue_delay_p99_us, "us"},
        {"cc.replication_batches_per_commit",
         per_commit(static_cast<double>(r.replication_batches)),
         "batches/txn"},
        {"cc.distributed_ratio", r.distributed_ratio, "ratio"},
        {"cc.abort_rate.NewOrder", r.abort_rate_neworder, "ratio"},
        {"cc.abort_rate.Payment", r.abort_rate_payment, "ratio"},
        {"cc.txn_samples", static_cast<double>(o.response_ns.size()), "count"},
        {"cc.txn_p999_us",
         HighestReportablePercentile(o.response_ns.size()) >= 99.9
             ? PercentileUs(o.response_ns, 99.9)
             : 0.0,
         "us"},
        {"cc.execute_ns", MedianPoint(traced, &ScenarioRun::execute_ns), "ns"},
        {"chiller.two_region_share", per_attempt(r.two_region), "ratio"},
        {"chiller.fallback_share", per_attempt(r.fallback), "ratio"},
        {"chiller.inner_abort_share", per_attempt(r.inner_aborts), "ratio"},
        {"chiller.inner_local_share", per_attempt(r.inner_local), "ratio"},
        {"schedule.routed_remote_share",
         o.admitted == 0 ? 0.0
                         : static_cast<double>(r.routed_remote) /
                               static_cast<double>(o.admitted),
         "ratio"},
        {"migrate.controller_host_s",
         MedianOf(plain, &ScenarioRun::controller_host_s), "s"},
        {"migrate.epochs", static_cast<double>(r.epochs), "count"},
        {"migrate.relayouts", static_cast<double>(r.relayouts), "count"},
        {"migrate.rearms", static_cast<double>(r.rearms), "count"},
        {"migrate.moved_records", static_cast<double>(r.moved_records),
         "count"},
        {"migrate.buckets_moved", static_cast<double>(r.buckets_moved),
         "count"},
        {"migrate.window_tps", r.migrate_window_tps, "txn/s"},
        {"migrate.abort_share", r.migrate_abort_share, "ratio"},
        {"partition.lookup_entries", static_cast<double>(r.lookup_entries),
         "count"},
        {"partition.sampled_txns", static_cast<double>(r.sampled_txns),
         "count"},
        {"trace.route_forward_us", t.trace.route_forward_us, "us"},
        {"trace.queue_wait_us", t.trace.queue_wait_us, "us"},
        {"trace.aborted_attempts_us", t.trace.aborted_attempts_us, "us"},
        {"trace.retry_backoff_us", t.trace.retry_backoff_us, "us"},
        {"trace.committed_attempt_us", t.trace.committed_attempt_us, "us"},
        {"trace.inner_region_us", t.trace.inner_region_us, "us"},
        {"trace.commit_phase_us", t.trace.commit_phase_us, "us"},
        {"trace.unaccounted_us", t.trace.unaccounted_us, "us"},
        {"obs.trace_overhead",
         MedianOf(traced, &ScenarioRun::run_s) / run_plain - 1.0, "ratio"},
        {"failed_share", o.FailedShare(), "ratio"},
    };
    // The offered-rate grid: per-rate p99 and shed share, and the highest
    // rate meeting the response-time limit with nothing shed.
    std::vector<RatePoint> grid;
    const bool open = wl_.slo_us > 0.0;
    for (size_t i = 0; i < kGridRows; ++i) {
      double p99 = 0.0, shed = 0.0;
      if (open && i < wl_.points.size()) {
        const SimOutcome& pt = plain.front().points[i].sim;
        p99 = PercentileUs(pt.response_ns, 99.0);
        shed = pt.FailedShare();
        grid.push_back({.offered_tps = wl_.points[i].offered_tps,
                        .p99_us = p99,
                        .shed = pt.shed});
      }
      m.push_back({"cc.txn_p99_us.rate" + std::to_string(i), p99, "us"});
      m.push_back({"cc.shed_share.rate" + std::to_string(i), shed, "ratio"});
    }
    m.push_back({"max_tps_at_slo", MaxTpsAtSlo(grid, wl_.slo_us), "txn/s"});
    if (t.trace.txns == 0) Fail("the traced run sampled no committed txn");
    std::fprintf(stdout, "# traced: %llu sampled committed txns\n",
                 static_cast<unsigned long long>(t.trace.txns));
    return Emit(m, plain.size() + traced.size() + shards.size());
  }

 private:
  /// The end-to-end points' simulated outcomes, pooled.
  SimOutcome Pooled(const Rep& rep) const {
    SimOutcome o;
    for (size_t i = 0; i < wl_.reference_count; ++i) {
      o.Add(rep.points[wl_.reference + i].sim);
    }
    return o;
  }

  /// Median over reps of a host quantity summed over the rep's points.
  static double MedianOf(const std::vector<Rep>& reps,
                         double ScenarioRun::*field) {
    std::vector<double> v;
    for (const Rep& rep : reps) v.push_back(rep.Sum(field));
    return Median(v);
  }

  /// Median over reps and points of a per-call host quantity.
  static double MedianPoint(const std::vector<Rep>& reps,
                            double ScenarioRun::*field) {
    std::vector<double> v;
    for (const Rep& rep : reps) {
      for (const ScenarioRun& r : rep.points) v.push_back(r.*field);
    }
    return Median(v);
  }

  int Emit(const std::vector<Metric>& metrics, size_t reps) {
    for (const Metric& mt : metrics) {
      if (!ValidMetricName(mt.name) || !std::isfinite(mt.value)) {
        Fail("malformed metric " + mt.name);
      }
    }
    std::printf("# workload %s: %zu repetitions\n", wl_.name.c_str(), reps);
    std::string json = "{\"correct\": ";
    json += correct_ ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted_);
    json += ", \"failed\": " + std::to_string(failed_);
    json += ", \"metrics\": {";
    char num[64];
    for (size_t i = 0; i < metrics.size(); ++i) {
      const Metric& mt = metrics[i];
      // Shortest text that reads back as the same double.
      const auto res = std::to_chars(num, num + sizeof(num) - 1,
                                     std::isfinite(mt.value) ? mt.value : 0.0);
      *res.ptr = '\0';
      std::printf("%-40s %24s %s\n", mt.name.c_str(), num, mt.unit);
      if (i > 0) json += ", ";
      json += "\"" + mt.name + "\": {\"value\": " + num + ", \"unit\": \"" +
              mt.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return correct_ ? 0 : 1;
  }

  Workload wl_;
  double seconds_;
  Clock::time_point start_ = Clock::now();
  std::vector<SimOutcome> reference_;
  bool correct_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1>\n");
    return 2;
  }
  auto wl = perfbench::MakeWorkload(args.workload, args.seed);
  if (!wl.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", wl.status().ToString().c_str());
    return 2;
  }
  perfbench::Bench bench(std::move(wl).value(), args.seconds);
  return args.trace ? bench.PerLayer() : bench.EndToEnd();
}
