#include "cc/load_model.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "cc/cluster.h"
#include "common/logging.h"
#include "schedule/scheduler.h"

namespace chiller::cc {

namespace {
/// Modeled size of a forwarded admission request: the scheduler steers a
/// transaction *descriptor* (procedure id + parameters) across the fabric,
/// not record data. Charged on every cross-engine route.
constexpr size_t kForwardRequestBytes = 64;
}  // namespace

void LoadModel::RetryAfterBackoff(EngineId e, const txn::Transaction& t) {
  Driver* d = driver_;
  const ExecCosts& costs = d->cluster()->costs();
  const uint32_t shift = std::min<uint32_t>(t.attempt, 5);
  const SimTime backoff =
      (costs.retry_backoff_fixed << shift) +
      d->rng(e)->Uniform(costs.retry_backoff_jitter << shift);
  std::shared_ptr<txn::Transaction> retry = d->RebuildForRetry(t);
  // Explicitly target e's own domain: the relaunch belongs to the engine
  // regardless of what context the slot was freed from.
  sim::Scheduler* sim = d->cluster()->sim();
  if (retry->traced) {
    // OnSlotFree runs in e's event context, so the span records from the
    // engine's own domain (the trace determinism rule).
    d->cluster()->trace()->Span(e, sim->now(), sim->now() + backoff,
                                "retry_backoff", retry->logical_id,
                                retry->attempt);
  }
  sim->ScheduleIn(
      sim::DomainOfNode(d->cluster()->topology().NodeOfEngine(e)),
      sim->now() + backoff, [d, e, retry]() { d->Launch(e, retry); });
}

// ---------------------------------------------------------------------------
// ClosedLoop
// ---------------------------------------------------------------------------

ClosedLoop::ClosedLoop(uint32_t slots_per_engine) : slots_(slots_per_engine) {
  CHILLER_CHECK(slots_ >= 1);
}

void ClosedLoop::StartEngine(EngineId e) {
  for (uint32_t s = 0; s < slots_; ++s) driver_->LaunchFresh(e);
}

void ClosedLoop::OnSlotFree(EngineId e, const txn::Transaction& t) {
  if (t.outcome == txn::Outcome::kAbortConflict) {
    RetryAfterBackoff(e, t);
    return;
  }
  driver_->LaunchFresh(e);
}

// ---------------------------------------------------------------------------
// OpenLoop
// ---------------------------------------------------------------------------

OpenLoop::OpenLoop(OpenLoopOptions options) : opts_(std::move(options)) {
  CHILLER_CHECK(opts_.offered_tps > 0.0);
  CHILLER_CHECK(opts_.slots_per_engine >= 1);
  CHILLER_CHECK(opts_.queue_cap >= 1);
  CHILLER_CHECK(opts_.arrival == "poisson" || opts_.arrival == "uniform")
      << "unknown arrival process '" << opts_.arrival << "'";
}

void OpenLoop::OnBind() {
  obs::MetricsRegistry* reg = driver_->cluster()->metrics();
  m_queue_depth_ = reg->GetGauge("admission.queue_depth");
  m_routed_remote_ = reg->GetCounter("sched.routed_remote");
}

void OpenLoop::StartEngine(EngineId e) {
  if (engines_.empty()) {
    engines_.resize(driver_->cluster()->num_engines());
    // The per-engine arrival rate: the cluster-wide offered load split
    // evenly. Computed once so every engine paces identically.
    const double per_engine_tps =
        opts_.offered_tps / static_cast<double>(engines_.size());
    mean_interarrival_ = std::max<SimTime>(
        1, static_cast<SimTime>(
               std::llround(static_cast<double>(kSecond) / per_engine_tps)));
  }
  EngineState& s = engines_[e];
  if (!s.initialized) {
    s.initialized = true;
    // SplitMix64-style stream split keeps engine clocks decorrelated while
    // staying a pure function of (seed, engine).
    s.arrivals.Seed(opts_.seed + 0x9e3779b97f4a7c15ULL * (e + 1));
    s.free_slots = opts_.slots_per_engine;
  }
  // After a quiesce every in-flight transaction has settled, so all slots
  // are free again; requests that were already admitted to the queue keep
  // their place (and their admission timestamps) and launch first.
  s.free_slots = opts_.slots_per_engine;
  if (driver_->scheduler() != nullptr) {
    // Everything in flight settled, so no class is held anymore.
    s.inflight_classes.clear();
    TryAdmitScheduled(e);
    ScheduleNextArrival(e);
    return;
  }
  while (s.free_slots > 0 && !s.queue.empty()) AdmitFromQueue(e);
  ScheduleNextArrival(e);
}

void OpenLoop::ScheduleNextArrival(EngineId e) {
  EngineState& s = engines_[e];
  const double u = s.arrivals.NextDouble();
  SimTime gap;
  if (opts_.arrival == "poisson") {
    // Exponential interarrival; clamp the (measure-zero) u == 0 draw.
    const double x = -std::log(std::max(u, 1e-300));
    gap = static_cast<SimTime>(
        std::llround(x * static_cast<double>(mean_interarrival_)));
  } else {
    // Uniform in [0, 2*mean): same offered rate, bounded burstiness.
    gap = static_cast<SimTime>(
        std::llround(u * 2.0 * static_cast<double>(mean_interarrival_)));
  }
  // StartEngine arms this clock from control; later ticks re-arm it from
  // the engine's own context. Target the engine's domain explicitly so both
  // paths land the arrival in the same place.
  sim::Scheduler* sim = driver_->cluster()->sim();
  sim->ScheduleIn(
      sim::DomainOfNode(driver_->cluster()->topology().NodeOfEngine(e)),
      sim->now() + std::max<SimTime>(gap, 1), [this, e]() { Arrive(e); });
}

void OpenLoop::Arrive(EngineId e) {
  // A quiesce drains the event queue, which fires pending arrivals early;
  // discard them and leave the clock disarmed — Resume() restarts it.
  if (driver_->quiesced()) return;
  if (const schedule::Scheduler* sched = driver_->scheduler()) {
    // Scheduled path: draw at arrival (instead of at launch) so the
    // scheduler can classify and steer before admission. The draw
    // consumes e's workload RNG exactly where the legacy path would for
    // an immediate admission; under fifo this branch never runs, which is
    // what keeps legacy runs byte-identical.
    std::shared_ptr<txn::Transaction> t = driver_->Draw(e);
    t->sched_class = sched->Classify(*t);
    const EngineId target = sched->Route(*t, t->sched_class, e);
    if (t->traced) {
      obs::TraceRecorder* trace = driver_->cluster()->trace();
      const SimTime now = driver_->cluster()->sim()->now();
      trace->Instant(e, now, "sched_classify", t->logical_id, t->attempt,
                     /*reason=*/nullptr, "class", t->sched_class);
      trace->Instant(e, now, "sched_route", t->logical_id, t->attempt,
                     /*reason=*/nullptr, "target", target);
    }
    if (target == e) {
      AdmitScheduled(e, std::move(t));
    } else {
      // Cross-engine steering goes through the fabric: the admission
      // decision must run in the target engine's event domain (the
      // sharded simulator's ownership rule), and the hop charges its real
      // one-way latency. The shed decision therefore lands on the engine
      // the request was routed *to* — per-engine shed stays consistent
      // with admitted.
      m_routed_remote_->Add(e);
      Cluster* cluster = driver_->cluster();
      cluster->network()->Deliver(
          cluster->topology().NodeOfEngine(e),
          cluster->topology().NodeOfEngine(target), kForwardRequestBytes,
          [this, target, t]() {
            // Mirrors the arrival-discard rule: a request in flight when
            // a quiesce drains the simulator is dropped, not admitted.
            if (driver_->quiesced()) return;
            AdmitScheduled(target, t);
          });
    }
    ScheduleNextArrival(e);
    return;
  }
  EngineState& s = engines_[e];
  if (s.free_slots > 0) {
    --s.free_slots;
    driver_->NoteAdmitted(e);
    driver_->LaunchFresh(e, /*admission_delay=*/0);
  } else if (s.queue.size() < opts_.queue_cap) {
    driver_->NoteAdmitted(e);
    s.queue.push_back(driver_->cluster()->sim()->now());
    m_queue_depth_->Add(e, 1);
  } else {
    driver_->NoteShed(e);
  }
  ScheduleNextArrival(e);
}

void OpenLoop::AdmitFromQueue(EngineId e) {
  EngineState& s = engines_[e];
  const SimTime waited = driver_->cluster()->sim()->now() - s.queue.front();
  s.queue.pop_front();
  m_queue_depth_->Add(e, -1);
  --s.free_slots;
  driver_->LaunchFresh(e, waited);
}

bool OpenLoop::ClassAdmissible(const EngineState& s, uint32_t cls) const {
  return cls == schedule::kColdClass || !s.inflight_classes.contains(cls);
}

void OpenLoop::AdmitScheduled(EngineId e, std::shared_ptr<txn::Transaction> t) {
  EngineState& s = engines_[e];
  const uint32_t cls = t->sched_class;
  if (s.free_slots > 0 && ClassAdmissible(s, cls)) {
    --s.free_slots;
    if (cls != schedule::kColdClass) ++s.inflight_classes[cls];
    driver_->NoteAdmitted(e);
    driver_->LaunchRouted(e, std::move(t), /*admission_delay=*/0);
    return;
  }
  if (s.sched_queue.size() < opts_.queue_cap) {
    driver_->NoteAdmitted(e);
    s.sched_queue.push_back({std::move(t), driver_->cluster()->sim()->now()});
    m_queue_depth_->Add(e, 1);
    return;
  }
  if (t->traced) {
    driver_->cluster()->trace()->Instant(e, driver_->cluster()->sim()->now(),
                                         "shed", t->logical_id, t->attempt,
                                         "shed");
  }
  driver_->NoteShed(e);
}

void OpenLoop::TryAdmitScheduled(EngineId e) {
  EngineState& s = engines_[e];
  while (s.free_slots > 0) {
    // First admissible request in queue order: a blocked hot class lets
    // the work behind it through instead of head-of-line blocking, and
    // the scan order is deterministic.
    size_t pick = s.sched_queue.size();
    for (size_t i = 0; i < s.sched_queue.size(); ++i) {
      if (ClassAdmissible(s, s.sched_queue[i].txn->sched_class)) {
        pick = i;
        break;
      }
    }
    if (pick == s.sched_queue.size()) return;
    ScheduledRequest req = std::move(s.sched_queue[pick]);
    s.sched_queue.erase(s.sched_queue.begin() + static_cast<long>(pick));
    m_queue_depth_->Add(e, -1);
    const SimTime waited =
        driver_->cluster()->sim()->now() - req.enqueued;
    --s.free_slots;
    const uint32_t cls = req.txn->sched_class;
    if (cls != schedule::kColdClass) ++s.inflight_classes[cls];
    driver_->LaunchRouted(e, std::move(req.txn), waited);
  }
}

void OpenLoop::OnSlotFree(EngineId e, const txn::Transaction& t) {
  if (t.outcome == txn::Outcome::kAbortConflict) {
    // The retried request keeps its slot: admitted work finishes before
    // queued work starts, so a conflict storm lengthens the queue instead
    // of multiplying the in-flight population. On the scheduled path it
    // also keeps its conflict class held.
    RetryAfterBackoff(e, t);
    return;
  }
  driver_->NoteQueueDelay(e, t.admission_delay);
  EngineState& s = engines_[e];
  ++s.free_slots;
  if (driver_->scheduler() != nullptr) {
    const uint32_t cls = t.sched_class;
    if (cls != schedule::kColdClass) {
      auto it = s.inflight_classes.find(cls);
      if (it != s.inflight_classes.end() && --it->second == 0) {
        s.inflight_classes.erase(it);
      }
    }
    TryAdmitScheduled(e);
    return;
  }
  if (!s.queue.empty()) AdmitFromQueue(e);
}

// ---------------------------------------------------------------------------
// Factory
// ---------------------------------------------------------------------------

Status ValidateLoadModelParams(const std::string& name,
                               const LoadModelParams& params) {
  if (params.slots_per_engine == 0) {
    return Status::InvalidArgument("load model needs slots_per_engine >= 1");
  }
  if (name == "closed") return Status::OK();
  if (name == "open") {
    if (params.offered_tps <= 0.0) {
      return Status::InvalidArgument(
          "open load model needs offered_tps > 0 (cluster-wide offered "
          "load, txns/sec)");
    }
    if (params.queue_cap == 0) {
      return Status::InvalidArgument(
          "open load model needs queue_cap >= 1 (bounded admission queue)");
    }
    if (params.arrival != "poisson" && params.arrival != "uniform") {
      return Status::InvalidArgument("unknown arrival process '" +
                                     params.arrival +
                                     "' (known: poisson, uniform)");
    }
    return Status::OK();
  }
  return Status::InvalidArgument("unknown load model '" + name +
                                 "' (known: closed, open)");
}

StatusOr<std::unique_ptr<LoadModel>> MakeLoadModel(
    const std::string& name, const LoadModelParams& params) {
  Status st = ValidateLoadModelParams(name, params);
  if (!st.ok()) return st;
  if (name == "closed") {
    return std::unique_ptr<LoadModel>(
        std::make_unique<ClosedLoop>(params.slots_per_engine));
  }
  OpenLoopOptions o;
  o.offered_tps = params.offered_tps;
  o.arrival = params.arrival;
  o.slots_per_engine = params.slots_per_engine;
  o.queue_cap = params.queue_cap;
  o.seed = params.seed;
  return std::unique_ptr<LoadModel>(std::make_unique<OpenLoop>(o));
}

}  // namespace chiller::cc
