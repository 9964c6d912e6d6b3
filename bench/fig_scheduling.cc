// Contention-aware admission scheduling under offered load.
//
// The scheduler stage (schedule/scheduler.h) sits between arrival and
// engine admission: it classifies every transaction by its hottest record
// and decides which engine runs it. This bench measures what that buys on
// the synthetic YCSB-style workload, where the Zipf theta knob dials the
// conflict rate directly:
//
//   stage 1  closed-loop capacity probe per (protocol, theta) — the
//            saturation throughput C. Probes run the default fifo
//            passthrough, so the offered-load grid is identical for every
//            scheduler (the comparison is apples-to-apples by construction).
//   stage 2  open-loop sweep of offered load {0.2..1.1} x C for each
//            scheduler: p99 execution latency, p99 queueing delay, shed
//            rate per point.
//
// The headline number is the *knee* per (protocol, theta, scheduler): the
// highest offered load sustained with nothing shed and p99 queueing delay
// below p99 execution latency (same definition as the latency bench). Under
// fifo, skewed arrivals land on whatever engine they arrived at, conflict,
// and burn service slots on aborted attempts and backoff; hash-affinity
// routes each conflict class to its owner engine and never runs two
// transactions of one hot class concurrently, so the same engines sustain a
// higher offered load before the admission queue takes over.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_flags.h"
#include "bench/bench_report.h"
#include "runner/sweep.h"

namespace chiller::bench {
namespace {

constexpr double kThetas[] = {0.7, 0.99};
constexpr double kFractions[] = {0.2, 0.4, 0.5,  0.6, 0.65, 0.7, 0.75,
                                 0.8, 0.85, 0.9, 0.95, 1.0, 1.1};
const std::vector<std::string> kSchedulers = {"fifo", "hash-affinity"};

struct Point {
  double offered_tps;
  double fraction;
  double throughput_tps;
  double exec_p99_ns;
  double queue_p99_ns;
  double shed_rate;
};

runner::ScenarioSpec BaseSpec(const BenchFlags& flags,
                              const std::string& proto, double theta) {
  runner::ScenarioSpec spec;
  spec.label = proto;
  spec.workload = "ycsb";
  spec.protocol = proto;
  spec.nodes = flags.nodes;
  spec.engines_per_node = flags.engines;
  spec.concurrency = flags.concurrency;
  spec.seed = flags.seed;
  spec.warmup = static_cast<SimTime>(flags.warmup_ms * kMillisecond);
  spec.measure = static_cast<SimTime>(flags.duration_ms * kMillisecond);
  spec.options.Set("theta", theta);
  // Short write-only transactions put the whole run in the contention
  // regime the scheduler targets: every hot access takes an exclusive
  // lock (reads would share theirs and dilute the conflict rate), and a
  // 2-op footprint keeps the serialized conflict-class residence — the
  // price hash-affinity pays for suppressing abort storms — small next to
  // what those storms cost fifo.
  spec.options.Set("ops_per_txn", 2);
  spec.options.Set("read_ratio", 0.0);
  spec.options.Set("hot_keys_per_partition", 2);
  spec.options.Set("distributed_ratio", 0.1);
  spec.footprint_hint = runner::EstimateFootprint(spec);
  return spec;
}

void Main(const BenchFlags& flags) {
  // The scheduler and load-model axes ARE this bench's sweep: stage 1 is
  // always the closed-loop capacity probe and stage 2 always the open-loop
  // scheduler grid. Refuse the shared flags the sweep fixes; --arrival,
  // --queue-cap, and --sched-classes still shape the open loop.
  if (flags.load_model != "closed" || flags.offered_tps != 0.0 ||
      flags.scheduler != BenchFlags{}.scheduler) {
    std::fprintf(stderr,
                 "scheduling: this bench sweeps the scheduler and load "
                 "model itself — --load-model, --offered-tps, and "
                 "--scheduler are fixed by the sweep "
                 "(use --arrival / --queue-cap / --sched-classes / "
                 "--concurrency to shape it)\n");
    std::exit(1);
  }
  {
    runner::ScenarioSpec probe;
    ApplyLoadModelFlags(flags, &probe);
    probe.concurrency = flags.concurrency;
    probe.load_model = "open";
    probe.offered_tps = 1.0;
    const Status st = cc::ValidateLoadModelParams(
        probe.load_model, probe.MakeLoadModelParams());
    if (!st.ok()) {
      std::fprintf(stderr, "scheduling: %s\n", st.message().c_str());
      std::exit(1);
    }
  }

  const std::vector<std::string> protocols = {"2pl", "occ", "chiller",
                                              "chiller-plain"};

  std::printf(
      "Admission scheduling under offered load — YCSB, %u nodes x %u "
      "engines,\nopen-loop %s arrivals, %u service slots and a %u-deep "
      "admission queue\nper engine; offered load swept as a fraction of "
      "each (protocol, theta)\npair's closed-loop capacity, once per "
      "scheduler.\n\n",
      flags.nodes, flags.engines, flags.arrival.c_str(), flags.concurrency,
      flags.queue_cap);

  BenchReport report("scheduling");
  report.SetConfig("nodes", flags.nodes);
  report.SetConfig("engines_per_node", flags.engines);
  report.SetConfig("concurrency", flags.concurrency);
  report.SetConfig("arrival", flags.arrival);
  report.SetConfig("queue_cap", flags.queue_cap);
  report.SetConfig("sched_classes", flags.sched_classes);
  report.SetConfig("warmup_ms", flags.warmup_ms);
  report.SetConfig("duration_ms", flags.duration_ms);
  report.SetConfig("seed", flags.seed);

  const auto wall_start = std::chrono::steady_clock::now();
  runner::SweepExecutor executor = MakeSweepExecutor(flags, "scheduling");

  // Stage 1: closed-loop capacity per (protocol, theta). Probes never
  // install a scheduler (fifo passthrough), so both stage-2 series share
  // one grid.
  std::vector<runner::ScenarioSpec> probes;
  for (const std::string& proto : protocols) {
    for (double theta : kThetas) probes.push_back(BaseSpec(flags, proto, theta));
  }
  auto probe_results = executor.Run(probes);

  const size_t grid = std::size(kThetas);
  std::vector<double> capacity(probes.size(), 0.0);
  Json capacity_json = Json::MakeObject();
  for (size_t i = 0; i < probes.size(); ++i) {
    const std::string& proto = protocols[i / grid];
    const double theta = kThetas[i % grid];
    if (!probe_results[i].ok()) {
      std::fprintf(stderr, "scheduling: capacity probe %s theta=%.2f failed: %s\n",
                   proto.c_str(), theta,
                   probe_results[i].status().ToString().c_str());
      std::exit(1);
    }
    capacity[i] = probe_results[i]->stats.Throughput();
    if (capacity[i] <= 0.0) {
      std::fprintf(stderr,
                   "scheduling: %s theta=%.2f closed-loop capacity probe "
                   "committed nothing (window too short?); cannot derive an "
                   "offered-load grid\n",
                   proto.c_str(), theta);
      std::exit(1);
    }
    char theta_key[16];
    std::snprintf(theta_key, sizeof(theta_key), "%.2f", theta);
    capacity_json[proto][theta_key] = capacity[i];
    std::fprintf(stderr,
                 "  [scheduling] %s theta=%.2f closed-loop capacity %.0f tps\n",
                 proto.c_str(), theta, capacity[i]);
  }
  report.SetConfig("capacity_tps", capacity_json);

  // Stage 2: the open-loop grid, one series per scheduler. Specs are a pure
  // function of the (equally deterministic) stage-1 results, so --jobs N
  // stays byte-identical.
  std::vector<runner::ScenarioSpec> specs;
  for (size_t pt = 0; pt < probes.size(); ++pt) {
    for (const std::string& sched : kSchedulers) {
      for (double f : kFractions) {
        runner::ScenarioSpec spec = BaseSpec(flags, protocols[pt / grid],
                                             kThetas[pt % grid]);
        spec.load_model = "open";
        spec.offered_tps = capacity[pt] * f;
        spec.arrival = flags.arrival;
        spec.queue_cap = flags.queue_cap;
        spec.scheduler = sched;
        spec.sched_classes = flags.sched_classes;
        specs.push_back(std::move(spec));
      }
    }
  }
  size_t completed = 0;  // progress callbacks are serialized by the executor
  auto results = executor.Run(
      specs, [&](size_t i, const StatusOr<runner::ScenarioResult>& r) {
        std::fprintf(stderr,
                     "  [scheduling] %s %s %s offered=%.0f %s (%zu/%zu)\n",
                     specs[i].protocol.c_str(),
                     specs[i].options.ToString().c_str(),
                     specs[i].scheduler.c_str(), specs[i].offered_tps,
                     r.ok() ? "done" : r.status().ToString().c_str(),
                     ++completed, specs.size());
      });
  const double sweep_ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - wall_start)
                              .count();

  // series[probe][scheduler] -> points in ascending fraction order.
  std::vector<std::vector<std::vector<Point>>> series(
      probes.size(), std::vector<std::vector<Point>>(kSchedulers.size()));
  const size_t per_probe = kSchedulers.size() * std::size(kFractions);
  for (size_t i = 0; i < results.size(); ++i) {
    if (!results[i].ok()) {
      std::fprintf(stderr, "scheduling: scenario %zu failed: %s\n", i,
                   results[i].status().ToString().c_str());
      std::exit(1);
    }
    const runner::ScenarioResult& r = results[i].value();
    const cc::RunStats& stats = r.stats;
    const size_t pt = i / per_probe;
    const size_t sched = (i % per_probe) / std::size(kFractions);
    const double fraction = kFractions[i % std::size(kFractions)];

    Json params = Json::MakeObject();
    params["theta"] = kThetas[pt % grid];
    params["scheduler"] = r.spec.scheduler;
    params["offered_tps"] = r.spec.offered_tps;
    params["load_fraction"] = fraction;
    report.AddRun(r.spec.protocol, std::move(params), stats);

    Histogram latency;
    for (const auto& cls : stats.classes) latency.Merge(cls.latency);
    Point p;
    p.offered_tps = r.spec.offered_tps;
    p.fraction = fraction;
    p.throughput_tps = stats.Throughput();
    p.exec_p99_ns =
        latency.count() == 0 ? 0.0
                             : static_cast<double>(latency.Percentile(99));
    p.queue_p99_ns = stats.queue_delay.count() == 0
                         ? 0.0
                         : static_cast<double>(
                               stats.queue_delay.Percentile(99));
    p.shed_rate = stats.ShedRate();
    series[pt][sched].push_back(p);
  }

  // The knee: the highest offered load still served without
  // queue-dominated latency (nothing shed, p99 wait below p99 service).
  // Points are swept in ascending fraction order, so the last sustained
  // point is the knee.
  Json knee_json = Json::MakeObject();
  std::vector<std::vector<double>> knee(
      probes.size(), std::vector<double>(kSchedulers.size(), 0.0));
  for (size_t pt = 0; pt < probes.size(); ++pt) {
    char theta_key[16];
    std::snprintf(theta_key, sizeof(theta_key), "%.2f", kThetas[pt % grid]);
    for (size_t s = 0; s < kSchedulers.size(); ++s) {
      for (const Point& p : series[pt][s]) {
        const bool sustained =
            p.shed_rate == 0.0 && p.queue_p99_ns <= p.exec_p99_ns;
        if (sustained) knee[pt][s] = p.offered_tps;
      }
      knee_json[protocols[pt / grid]][theta_key][kSchedulers[s]] =
          knee[pt][s];
    }
  }
  report.SetConfig("knee_tps", knee_json);

  std::vector<double> columns(std::begin(kFractions), std::end(kFractions));
  for (size_t pt = 0; pt < probes.size(); ++pt) {
    std::printf("%s theta=%.2f (capacity %.0f tps)\n",
                protocols[pt / grid].c_str(), kThetas[pt % grid],
                capacity[pt]);
    std::printf("  shed rate:\n");
    PrintHeader("  offered / capacity", columns);
    for (size_t s = 0; s < kSchedulers.size(); ++s) {
      std::vector<double> row;
      for (const Point& p : series[pt][s]) row.push_back(p.shed_rate);
      PrintRow("  " + kSchedulers[s], row, "%8.3f");
    }
    std::printf("  p99 queueing delay (us):\n");
    PrintHeader("  offered / capacity", columns);
    for (size_t s = 0; s < kSchedulers.size(); ++s) {
      std::vector<double> row;
      for (const Point& p : series[pt][s]) row.push_back(p.queue_p99_ns / 1e3);
      PrintRow("  " + kSchedulers[s], row, "%8.1f");
    }
    std::printf("  knee: fifo %.3f M tps, hash-affinity %.3f M tps\n\n",
                knee[pt][0] / 1e6, knee[pt][1] / 1e6);
  }

  std::printf(
      "sweep: %zu scenarios in %.1f s wall-clock (--jobs %u, --shards %u)\n",
      probes.size() + specs.size(), sweep_ms / 1000.0, executor.jobs(),
      flags.shards);

  report.MaybeWrite(flags.emit_json, flags.JsonPathFor("scheduling"));
}

}  // namespace
}  // namespace chiller::bench

int main(int argc, char** argv) {
  chiller::bench::BenchFlags defaults;
  // Eight single-engine nodes: enough fan-out that a skewed record's
  // writers mostly arrive on engines that do not own it (7/8 of steering
  // decisions move work), while the 8-probe + 208-scenario grid stays
  // tractable. The 10-deep admission queue is deliberately shallow — deep
  // queues let p99 queueing delay blow past p99 execution latency long
  // before anything is shed, hiding the capacity difference between the
  // schedulers behind a bound both fail the same way.
  defaults.nodes = 8;
  defaults.engines = 1;
  defaults.queue_cap = 10;
  defaults.theta = 0.9;  // unused: the bench sweeps its own theta axis
  defaults.warmup_ms = 2.0;
  defaults.duration_ms = 10.0;
  chiller::bench::Main(chiller::bench::ParseBenchFlagsOrExit(
      argc, argv, "scheduling", defaults));
}
