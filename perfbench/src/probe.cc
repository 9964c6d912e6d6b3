#include "probe.h"

#include <algorithm>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "common/logging.h"
#include "runner/registry.h"

namespace perfbench {

namespace {

using chiller::Status;
using chiller::StatusOr;
using chiller::cc::Cluster;
using chiller::cc::ReplicationManager;
using chiller::partition::RecordPartitioner;
using chiller::runner::ScenarioSpec;
using chiller::runner::WorkloadBundle;
using chiller::txn::Outcome;
using chiller::txn::Transaction;
using Clock = std::chrono::steady_clock;

Probe* g_probe = nullptr;

/// Engine whose finished transaction the driver is processing on this
/// thread: the driver calls ClassName from inside the done callback, and
/// ClassName carries no engine argument.
constexpr EngineId kNoEngine = ~EngineId{0};
thread_local EngineId tls_done_engine = kNoEngine;

uint64_t Ns(Clock::time_point a, Clock::time_point b) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

class ProbedSource : public chiller::cc::WorkloadSource {
 public:
  ProbedSource(chiller::cc::WorkloadSource* inner, Probe* probe)
      : inner_(inner), probe_(probe) {}

  std::unique_ptr<Transaction> Next(chiller::PartitionId home,
                                    chiller::Rng* rng) override {
    Probe::EngineCells& c = probe_->cell(home);
    ++c.draws;
    c.drawn_at.push_back(probe_->now());
    if (!probe_->timed()) return inner_->Next(home, rng);
    const auto t0 = Clock::now();
    auto t = inner_->Next(home, rng);
    c.draw_ns += Ns(t0, Clock::now());
    return t;
  }

  std::unique_ptr<Transaction> Rebuild(const Transaction& t) override {
    Probe::EngineCells& c = probe_->cell(t.home);
    ++c.draws;
    if (!probe_->timed()) return inner_->Rebuild(t);
    const auto t0 = Clock::now();
    auto r = inner_->Rebuild(t);
    c.draw_ns += Ns(t0, Clock::now());
    return r;
  }

  uint32_t NumClasses() const override { return inner_->NumClasses(); }

  std::string ClassName(uint32_t cls) const override {
    if (tls_done_engine != kNoEngine) {
      ++probe_->cell(tls_done_engine).classname_calls;
    } else {
      ++probe_->control_classname_calls;
    }
    return inner_->ClassName(cls);
  }

 private:
  chiller::cc::WorkloadSource* inner_;
  Probe* probe_;
};

class ProbedBundle : public WorkloadBundle {
 public:
  ProbedBundle(std::unique_ptr<WorkloadBundle> inner, Probe* probe)
      : inner_(std::move(inner)),
        probe_(probe),
        source_(inner_->source(), probe) {}

  std::vector<chiller::storage::TableSpec> Schema() const override {
    return inner_->Schema();
  }
  const RecordPartitioner* partitioner() const override {
    return inner_->partitioner();
  }
  chiller::cc::WorkloadSource* source() override { return &source_; }
  chiller::partition::SwappablePartitioner* adaptive_partitioner() override {
    return inner_->adaptive_partitioner();
  }
  void Load(Cluster* cluster) const override {
    const auto t0 = Clock::now();
    inner_->Load(cluster);
    probe_->load_s += SecondsBetween(t0, Clock::now());
  }

 private:
  std::unique_ptr<WorkloadBundle> inner_;
  Probe* probe_;
  ProbedSource source_;
};

class ProbedProtocol : public chiller::cc::Protocol {
 public:
  ProbedProtocol(Cluster* cluster, const RecordPartitioner* partitioner,
                 ReplicationManager* replication,
                 std::unique_ptr<chiller::cc::Protocol> inner, Probe* probe)
      : Protocol(cluster, partitioner, replication),
        inner_(std::move(inner)),
        probe_(probe) {
    probe_->Attach(cluster);
    probe_->inner_protocol = inner_.get();
  }

  const char* name() const override { return inner_->name(); }

  void Execute(std::shared_ptr<Transaction> t,
               std::function<void()> done) override {
    // The driver launches every attempt from its home engine's domain and
    // expects `done` there too, so t->home names the owning cell.
    const EngineId e = t->home;
    Probe* probe = probe_;
    ++probe->cell(e).executes;
    auto wrapped = [probe, e, t, done = std::move(done)]() {
      Observe(probe, e, *t);
      tls_done_engine = e;
      done();
      tls_done_engine = kNoEngine;
    };
    if (!probe->timed()) {
      inner_->Execute(std::move(t), std::move(wrapped));
      return;
    }
    const auto t0 = Clock::now();
    inner_->Execute(std::move(t), std::move(wrapped));
    probe->cell(e).execute_ns += Ns(t0, Clock::now());
  }

 private:
  /// Records a logical transaction's last attempt: a commit, or a user
  /// abort (a rollback the transaction logic asked for). Conflict aborts
  /// retry. Probe::ResponseNs turns the records into response times.
  static void Observe(Probe* probe, EngineId e, const Transaction& t) {
    Probe::EngineCells& c = probe->cell(e);
    if (t.outcome == Outcome::kAbortConflict) {
      if (t.attempt == 0) c.first_start.emplace(t.logical_id, t.start_time);
      return;
    }
    SimTime first = t.start_time;
    if (t.attempt > 0) {
      auto it = c.first_start.find(t.logical_id);
      CHILLER_CHECK(it != c.first_start.end())
          << "retry of an unseen logical transaction";
      first = it->second;
      c.first_start.erase(it);
    }
    if (probe->measuring()) {
      c.finished.push_back({.logical_id = t.logical_id,
                            .queued_at = first - t.admission_delay,
                            .end = t.end_time});
    }
  }

  std::unique_ptr<chiller::cc::Protocol> inner_;
  Probe* probe_;
};

}  // namespace

uint64_t Probe::Executes() const {
  uint64_t n = 0;
  for (const EngineCells& c : cells_) n += c.executes;
  return n;
}

uint64_t Probe::ExecuteNs() const {
  uint64_t n = 0;
  for (const EngineCells& c : cells_) n += c.execute_ns;
  return n;
}

uint64_t Probe::Draws() const {
  uint64_t n = 0;
  for (const EngineCells& c : cells_) n += c.draws;
  return n;
}

uint64_t Probe::DrawNs() const {
  uint64_t n = 0;
  for (const EngineCells& c : cells_) n += c.draw_ns;
  return n;
}

uint64_t Probe::ClassNameCalls() const {
  uint64_t n = control_classname_calls;
  for (const EngineCells& c : cells_) n += c.classname_calls;
  return n;
}

std::vector<uint64_t> Probe::ResponseTimes(
    const std::vector<EngineCells>& cells) {
  std::vector<uint64_t> out;
  const uint64_t engines = cells.size();
  for (const EngineCells& c : cells) {
    for (const Finished& f : c.finished) {
      const std::vector<SimTime>& drawn =
          cells[(f.logical_id - 1) % engines].drawn_at;
      const uint64_t k = (f.logical_id - 1) / engines;
      CHILLER_CHECK(k < drawn.size())
          << "logical transaction " << f.logical_id << " was never drawn";
      out.push_back(f.end - std::min(drawn[k], f.queued_at));
    }
  }
  return out;
}

ScopedProbe::ScopedProbe(Probe* probe) { g_probe = probe; }
ScopedProbe::~ScopedProbe() { g_probe = nullptr; }

void Install() {
  static std::once_flag once;
  std::call_once(once, [] {
    auto must = [](const Status& st) {
      CHILLER_CHECK(st.ok()) << st.ToString();
    };
    for (const char* name : {"tpcc", "ycsb", "adaptive"}) {
      const std::string inner = name;
      must(chiller::runner::WorkloadRegistry::Global().Register(
          "bench-" + inner,
          [inner](const ScenarioSpec& spec)
              -> StatusOr<std::unique_ptr<WorkloadBundle>> {
            CHILLER_CHECK(g_probe != nullptr) << "wire under a ScopedProbe";
            ScenarioSpec plain = spec;
            plain.workload = inner;
            const auto t0 = Clock::now();
            auto bundle =
                chiller::runner::WorkloadRegistry::Global().Make(plain);
            g_probe->make_s += SecondsBetween(t0, Clock::now());
            if (!bundle.ok()) return bundle.status();
            return std::unique_ptr<WorkloadBundle>(std::make_unique<ProbedBundle>(
                std::move(bundle).value(), g_probe));
          }));
    }
    must(chiller::runner::ProtocolRegistry::Global().Register(
        "bench-chiller",
        [](Cluster* c, const RecordPartitioner* p, ReplicationManager* repl)
            -> std::unique_ptr<chiller::cc::Protocol> {
          CHILLER_CHECK(g_probe != nullptr) << "wire under a ScopedProbe";
          auto inner = chiller::runner::ProtocolRegistry::Global().Make(
              "chiller", c, p, repl);
          CHILLER_CHECK(inner.ok()) << inner.status().ToString();
          return std::make_unique<ProbedProtocol>(c, p, repl,
                                                  std::move(inner).value(),
                                                  g_probe);
        }));
  });
}

}  // namespace perfbench
