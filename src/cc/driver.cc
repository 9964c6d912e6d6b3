#include "cc/driver.h"

#include <algorithm>
#include <utility>

#include "cc/cluster.h"
#include "cc/exec_common.h"
#include "cc/load_model.h"
#include "common/logging.h"

namespace chiller::cc {

Driver::Driver(Cluster* cluster, Protocol* protocol, WorkloadSource* source,
               uint32_t concurrent_per_engine, uint64_t seed)
    : Driver(cluster, protocol, source,
             std::make_unique<ClosedLoop>(concurrent_per_engine), seed) {}

Driver::Driver(Cluster* cluster, Protocol* protocol, WorkloadSource* source,
               std::unique_ptr<LoadModel> model, uint64_t seed)
    : cluster_(cluster),
      protocol_(protocol),
      source_(source),
      model_(std::move(model)),
      per_engine_(cluster->num_engines()) {
  CHILLER_CHECK(model_ != nullptr);
  for (uint32_t e = 0; e < per_engine_.size(); ++e) {
    per_engine_[e].rng.Seed(seed + 0x9e3779b97f4a7c15ULL * (e + 1));
  }
  ResetStats();
  obs::MetricsRegistry* reg = cluster_->metrics();
  m_commits_ = reg->GetCounter("driver.commits");
  m_latency_ns_ = reg->GetCounter("driver.commit_latency_ns");
  m_migration_aborts_ = reg->GetCounter("driver.aborts.migration");
  m_contention_aborts_ = reg->GetCounter("driver.aborts.contention");
  m_fallback_aborts_ = reg->GetCounter("driver.aborts.fallback");
  m_user_aborts_ = reg->GetCounter("driver.aborts.user");
  m_shed_ = reg->GetCounter("admission.shed");
  m_window_latency_ = reg->GetHistogram("driver.commit_latency_window");
  model_->Bind(this);
  open_loop_ = model_->UsesAdmissionQueue();
}

Driver::~Driver() = default;

void Driver::set_scheduler(schedule::Scheduler* scheduler) {
  CHILLER_CHECK(!started_) << "install the scheduler before Start()";
  scheduler_ = scheduler;
}

void Driver::LaunchFresh(EngineId e, SimTime admission_delay) {
  std::shared_ptr<txn::Transaction> t = source_->Next(e, rng(e));
  t->admission_delay = admission_delay;
  Launch(e, std::move(t));
}

std::shared_ptr<txn::Transaction> Driver::Draw(EngineId e) {
  std::shared_ptr<txn::Transaction> t = source_->Next(e, rng(e));
  if (t->accesses.empty()) t->InitAccesses();
  t->ResolveReadyKeys();
  // Identity is assigned at draw time, before classification, so the
  // scheduler's classify/route decisions are traceable too.
  AssignIdentity(e, t.get());
  return t;
}

void Driver::AssignIdentity(EngineId e, txn::Transaction* t) {
  if (t->logical_id != 0) return;
  EngineState& es = per_engine_[e];
  // Same striping as attempt ids: engine e issues e+1, e+1+E, e+1+2E, ...
  t->logical_id = es.next_logical * per_engine_.size() + e + 1;
  ++es.next_logical;
  t->traced = cluster_->trace()->Sampled(t->logical_id);
}

void Driver::LaunchRouted(EngineId e, std::shared_ptr<txn::Transaction> t,
                          SimTime admission_delay) {
  t->admission_delay = admission_delay;
  Launch(e, std::move(t));
}

void Driver::Launch(EngineId e, std::shared_ptr<txn::Transaction> t) {
  EngineState& es = per_engine_[e];
  // Globally unique and engine-local deterministic: engine e issues ids
  // e+1, e+1+E, e+1+2E, ... regardless of how engines interleave.
  t->id = es.next_local * per_engine_.size() + e + 1;
  ++es.next_local;
  AssignIdentity(e, t.get());
  t->home = e;
  t->outcome = txn::Outcome::kPending;
  t->start_time = cluster_->sim()->now();
  if (t->accesses.empty()) t->InitAccesses();
  protocol_->Execute(t, [this, e, t]() { OnDone(e, t); });
}

std::shared_ptr<txn::Transaction> Driver::RebuildForRetry(
    const txn::Transaction& t) {
  std::shared_ptr<txn::Transaction> retry = source_->Rebuild(t);
  retry->attempt = t.attempt + 1;
  retry->admission_delay = t.admission_delay;
  // A co-location violation is a property of the logical transaction under
  // the live layout, not of the attempt: replanning the same inner region
  // would abort identically forever.
  retry->force_fallback = t.force_fallback;
  // The retry keeps its predicted conflict class: class-serialized
  // admission holds the class until the logical transaction settles.
  retry->sched_class = t.sched_class;
  // Retries are the same logical transaction: same id, same trace sample.
  retry->logical_id = t.logical_id;
  retry->traced = t.traced;
  return retry;
}

void Driver::NoteAdmitted(EngineId e) {
  if (measuring_) ++per_engine_[e].stats.admitted;
}

void Driver::NoteShed(EngineId e) {
  m_shed_->Add(e);  // lifetime, independent of the measuring toggle
  if (measuring_) ++per_engine_[e].stats.shed;
}

void Driver::NoteQueueDelay(EngineId e, SimTime delay) {
  if (measuring_) per_engine_[e].stats.queue_delay.Add(delay);
}

void Driver::OnDone(EngineId e, const std::shared_ptr<txn::Transaction>& t) {
  if (observer_ && t->outcome == txn::Outcome::kCommitted) observer_(*t);
  EngineState& es = per_engine_[e];
  // The abort-reason taxonomy shared by the trace and the abort-class
  // counters; null for commits.
  const char* abort_reason = nullptr;
  switch (t->outcome) {
    case txn::Outcome::kCommitted:
      break;
    case txn::Outcome::kAbortConflict:
      abort_reason = t->blocked_by_migration ? "migration"
                     : t->force_fallback     ? "co-location-fallback"
                                             : "contention";
      break;
    case txn::Outcome::kAbortUser:
      abort_reason = "user";
      break;
    case txn::Outcome::kPending:
      break;
  }
  if (t->traced) {
    obs::TraceRecorder* trace = cluster_->trace();
    // The admission wait precedes the first attempt; later attempts start
    // at their own launch, so the wait renders exactly once.
    if (t->attempt == 0 && t->admission_delay > 0 &&
        t->start_time >= t->admission_delay) {
      trace->Span(e, t->start_time - t->admission_delay, t->start_time,
                  "queue_wait", t->logical_id, t->attempt);
    }
    trace->Span(e, t->start_time, t->end_time, "attempt", t->logical_id,
                t->attempt, abort_reason);
    if (t->blocked_by_migration) {
      trace->Instant(e, t->end_time, "migration_block", t->logical_id,
                     t->attempt, "migration");
    }
    trace->Instant(e, t->end_time,
                   t->outcome == txn::Outcome::kCommitted ? "commit" : "abort",
                   t->logical_id, t->attempt, abort_reason);
  }
  // Lifetime metrics run regardless of the measuring toggle: timeline
  // consumers (runner::AdaptiveReport slices, the live-migration bench)
  // need commit flow visible across warmup and migration windows too.
  switch (t->outcome) {
    case txn::Outcome::kCommitted:
      m_commits_->Add(e);
      m_latency_ns_->Add(e, t->end_time - t->start_time);
      m_window_latency_->Add(e, t->end_time - t->start_time);
      break;
    case txn::Outcome::kAbortConflict:
      if (t->blocked_by_migration) {
        m_migration_aborts_->Add(e);
      } else if (t->force_fallback) {
        m_fallback_aborts_->Add(e);
      } else {
        m_contention_aborts_->Add(e);
      }
      break;
    case txn::Outcome::kAbortUser:
      m_user_aborts_->Add(e);
      break;
    case txn::Outcome::kPending:
      break;
  }
  if (measuring_) {
    std::vector<ClassStats>& classes = es.stats.classes;
    if (classes.size() <= t->txn_class) classes.resize(t->txn_class + 1);
    ClassStats& cs = classes[t->txn_class];
    switch (t->outcome) {
      case txn::Outcome::kCommitted:
        ++cs.commits;
        if (exec::IsDistributed(*t)) ++cs.distributed_commits;
        cs.latency.Add(t->end_time - t->start_time);
        break;
      case txn::Outcome::kAbortConflict:
        if (t->blocked_by_migration) {
          ++cs.migration_aborts;
        } else {
          ++cs.conflict_aborts;
        }
        break;
      case txn::Outcome::kAbortUser:
        ++cs.user_aborts;
        break;
      case txn::Outcome::kPending:
        CHILLER_CHECK(false) << "protocol finished with pending outcome";
    }
  }

  if (stopped_) return;
  model_->OnSlotFree(e, *t);
}

const RunStats& Driver::stats() const {
  merged_ = RunStats();
  merged_.window = window_;
  merged_.open_loop = open_loop_;
  size_t num_classes = source_->NumClasses();
  for (const EngineState& es : per_engine_) {
    num_classes = std::max(num_classes, es.stats.classes.size());
  }
  merged_.classes.resize(num_classes);
  for (size_t c = 0; c < num_classes; ++c) {
    merged_.classes[c].name = source_->ClassName(static_cast<uint32_t>(c));
  }
  for (const EngineState& es : per_engine_) {
    for (size_t c = 0; c < es.stats.classes.size(); ++c) {
      const ClassStats& cs = es.stats.classes[c];
      ClassStats& m = merged_.classes[c];
      m.commits += cs.commits;
      m.conflict_aborts += cs.conflict_aborts;
      m.user_aborts += cs.user_aborts;
      m.migration_aborts += cs.migration_aborts;
      m.distributed_commits += cs.distributed_commits;
      m.latency.Merge(cs.latency);
    }
    merged_.admitted += es.stats.admitted;
    merged_.shed += es.stats.shed;
    merged_.queue_delay.Merge(es.stats.queue_delay);
  }
  return merged_;
}

uint64_t Driver::lifetime_commits() const { return m_commits_->Sum(); }

uint64_t Driver::lifetime_latency_ns() const { return m_latency_ns_->Sum(); }

uint64_t Driver::lifetime_migration_aborts() const {
  return m_migration_aborts_->Sum();
}

Histogram Driver::TakeCommitLatencyWindow() {
  return m_window_latency_->TakeMerged();
}

void Driver::Start() {
  CHILLER_CHECK(!stopped_) << "driver is quiesced; use Resume()";
  if (started_) return;
  started_ = true;
  for (EngineId e = 0; e < cluster_->num_engines(); ++e) {
    model_->StartEngine(e);
  }
}

void Driver::Advance(SimTime duration) {
  cluster_->sim()->RunUntil(cluster_->sim()->now() + duration);
}

void Driver::Quiesce() {
  stopped_ = true;
  cluster_->sim()->Run();
}

void Driver::Resume() {
  CHILLER_CHECK(started_) << "Resume without Start";
  // Resuming a live driver would double-arm open-loop arrival clocks and
  // reset slot accounting under in-flight transactions.
  CHILLER_CHECK(stopped_) << "Resume without Quiesce";
  stopped_ = false;
  for (EngineId e = 0; e < cluster_->num_engines(); ++e) {
    model_->StartEngine(e);
  }
}

void Driver::SetCommitObserver(CommitObserver observer) {
  observer_ = std::move(observer);
}

void Driver::ResetStats() {
  for (EngineState& es : per_engine_) {
    es.stats = RunStats();
    // Sized once per window so OnDone never grows it; stats() attaches the
    // class names when it merges.
    es.stats.classes.resize(source_->NumClasses());
  }
}

RunStats Driver::Run(SimTime warmup, SimTime measure) {
  Start();
  Advance(warmup);
  ResetStats();
  measuring_ = true;
  Advance(measure);
  measuring_ = false;
  window_ = measure;
  return stats();
}

}  // namespace chiller::cc
