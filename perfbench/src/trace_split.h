// Splits sampled transactions' simulated response time into phases, from
// the Chrome trace-event JSON that obs::TraceRecorder::DumpJson emits.
#ifndef PERFBENCH_TRACE_SPLIT_H_
#define PERFBENCH_TRACE_SPLIT_H_

#include <cstdint>
#include <string>

#include "common/status.h"

namespace perfbench {

/// Mean simulated microseconds per sampled committed logical transaction.
/// The first five tile the response time (due -> commit) when nothing is
/// missing; `unaccounted_us` is what they leave over, reported rather than
/// asserted to be zero. inner_region / commit_phase are parts of the
/// committed attempt.
struct TraceSplit {
  uint64_t txns = 0;
  /// Arrival to enqueue of a request the scheduler routed to another
  /// engine (the forward hop); 0 for the others.
  double route_forward_us = 0.0;
  double queue_wait_us = 0.0;
  double aborted_attempts_us = 0.0;
  double retry_backoff_us = 0.0;
  double committed_attempt_us = 0.0;
  double inner_region_us = 0.0;
  double commit_phase_us = 0.0;
  double unaccounted_us = 0.0;
};

/// Parses `trace_json` with chiller::Json::Parse and averages over the
/// logical transactions whose commit instant lies in [from_us, to_us].
chiller::StatusOr<TraceSplit> SplitTrace(const std::string& trace_json,
                                         double from_us, double to_us);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_SPLIT_H_
