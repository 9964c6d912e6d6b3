#include "trace_split.h"

#include <algorithm>
#include <limits>
#include <map>
#include <vector>

#include "common/json.h"

namespace perfbench {

namespace {

struct Span {
  double start = 0.0;
  double dur = 0.0;
  uint32_t attempt = 0;
};

/// Everything the trace recorded about one logical transaction.
struct TxnEvents {
  std::vector<Span> queue_wait, attempts_committed, attempts_aborted,
      backoff, inner_region, commit_phase;
  double commit_ts = -1.0;
  uint32_t commit_attempt = 0;
  /// Arrival on the scheduled open-loop path (the sched_classify instant).
  double arrival_ts = std::numeric_limits<double>::max();
};

double Number(const chiller::Json& obj, const char* key) {
  const chiller::Json* v = obj.Get(key);
  return v != nullptr && v->is_number() ? v->AsDouble() : 0.0;
}

double Sum(const std::vector<Span>& spans) {
  double s = 0.0;
  for (const Span& sp : spans) s += sp.dur;
  return s;
}

double SumAttempt(const std::vector<Span>& spans, uint32_t attempt) {
  double s = 0.0;
  for (const Span& sp : spans) {
    if (sp.attempt == attempt) s += sp.dur;
  }
  return s;
}

}  // namespace

chiller::StatusOr<TraceSplit> SplitTrace(const std::string& trace_json,
                                         double from_us, double to_us) {
  auto doc = chiller::Json::Parse(trace_json);
  if (!doc.ok()) return doc.status();
  const chiller::Json* events = doc.value().Get("traceEvents");
  if (events == nullptr || !events->is_array()) {
    return chiller::Status::InvalidArgument("trace has no traceEvents array");
  }

  std::map<uint64_t, TxnEvents> txns;
  for (const chiller::Json& ev : events->AsArray()) {
    const chiller::Json* args = ev.Get("args");
    const chiller::Json* name = ev.Get("name");
    if (args == nullptr || name == nullptr || !args->Has("txn")) continue;
    const uint64_t id = static_cast<uint64_t>(Number(*args, "txn"));
    const Span span{.start = Number(ev, "ts"),
                    .dur = Number(ev, "dur"),
                    .attempt = static_cast<uint32_t>(Number(*args, "attempt"))};
    TxnEvents& t = txns[id];
    const std::string& n = name->AsString();
    if (n == "queue_wait") {
      t.queue_wait.push_back(span);
    } else if (n == "attempt") {
      // The committed attempt carries no abort reason.
      (args->Has("reason") ? t.attempts_aborted : t.attempts_committed)
          .push_back(span);
    } else if (n == "retry_backoff") {
      t.backoff.push_back(span);
    } else if (n == "inner_region") {
      t.inner_region.push_back(span);
    } else if (n == "commit_phase") {
      t.commit_phase.push_back(span);
    } else if (n == "sched_classify") {
      t.arrival_ts = span.start;
    } else if (n == "commit") {
      t.commit_ts = span.start;
      t.commit_attempt = span.attempt;
    }
  }

  TraceSplit out;
  for (const auto& [id, t] : txns) {
    if (t.commit_ts < from_us || t.commit_ts > to_us) continue;
    double due = std::numeric_limits<double>::max();
    for (const Span& s : t.queue_wait) due = std::min(due, s.start);
    for (const Span& s : t.attempts_aborted) due = std::min(due, s.start);
    for (const Span& s : t.attempts_committed) due = std::min(due, s.start);
    if (due > t.commit_ts) continue;  // a commit instant without spans
    // A request routed to another engine is queued there only after the
    // network hop; an unrouted one is queued or launched at arrival.
    const double forward = due > t.arrival_ts ? due - t.arrival_ts : 0.0;
    due -= forward;
    const double queue = Sum(t.queue_wait);
    const double aborted = Sum(t.attempts_aborted);
    const double backoff = Sum(t.backoff);
    const double committed = SumAttempt(t.attempts_committed, t.commit_attempt);
    ++out.txns;
    out.route_forward_us += forward;
    out.queue_wait_us += queue;
    out.aborted_attempts_us += aborted;
    out.retry_backoff_us += backoff;
    out.committed_attempt_us += committed;
    out.inner_region_us += SumAttempt(t.inner_region, t.commit_attempt);
    out.commit_phase_us += SumAttempt(t.commit_phase, t.commit_attempt);
    out.unaccounted_us +=
        (t.commit_ts - due) -
        (forward + queue + aborted + backoff + committed);
  }
  if (out.txns > 0) {
    const double n = static_cast<double>(out.txns);
    for (double* v : {&out.route_forward_us, &out.queue_wait_us, &out.aborted_attempts_us,
                      &out.retry_backoff_us, &out.committed_attempt_us,
                      &out.inner_region_us, &out.commit_phase_us,
                      &out.unaccounted_us}) {
      *v /= n;
    }
  }
  return out;
}

}  // namespace perfbench
