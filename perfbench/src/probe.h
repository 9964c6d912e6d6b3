// Delegating registry entries that measure the workload and protocol layers
// from outside the library.
//
// Install() registers one workload entry per wrapped built-in
// ("bench-tpcc" -> "tpcc", ...) and one protocol entry per wrapped
// protocol ("bench-chiller" -> "chiller"). Each entry builds the built-in
// through the global registry and forwards every call to it, recording
// what passes through into the Probe that is current while the scenario is
// wired (see ScopedProbe). Nothing in the library changes: the wrapped
// objects see exactly the calls they would see without the wrapper, so a
// wrapped scenario produces the same simulated results as the plain one.
#ifndef PERFBENCH_PROBE_H_
#define PERFBENCH_PROBE_H_

#include <chrono>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "cc/driver.h"
#include "common/types.h"

namespace perfbench {

using chiller::EngineId;
using chiller::SimTime;
using chiller::TxnId;

/// Host-clock seconds between two steady_clock readings.
inline double SecondsBetween(std::chrono::steady_clock::time_point a,
                             std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Everything the delegating entries record for one scenario. Engine-domain
/// state lives in per-engine cells (an engine's calls all run on the
/// simulator shard owning that engine), and is merged at control.
class Probe {
 public:
  /// `timed` turns on the host timers around Execute / Next / Rebuild (the
  /// traced run only; the untraced run pays no clock reads on that path).
  explicit Probe(bool timed) : timed_(timed) {}

  /// A logical transaction's last attempt, as its home engine saw it.
  struct Finished {
    TxnId logical_id = 0;
    /// First launch minus the admission-queue wait: when the request
    /// reached the queue of the engine that ran it.
    SimTime queued_at = 0;
    SimTime end = 0;  ///< end of the last attempt
  };

  struct alignas(64) EngineCells {
    uint64_t executes = 0;        ///< Protocol::Execute calls
    uint64_t execute_ns = 0;      ///< host ns inside Execute (timed only)
    uint64_t draws = 0;           ///< WorkloadSource::Next + Rebuild calls
    uint64_t draw_ns = 0;         ///< host ns inside them (timed only)
    uint64_t classname_calls = 0; ///< ClassName calls from engine context
    /// Simulated time of this engine's k-th WorkloadSource::Next. The driver
    /// names each fresh draw right after it, in order, so the k-th draw of
    /// engine e is logical transaction k * num_engines + e + 1.
    std::vector<SimTime> drawn_at;
    /// Every logical transaction that finished on this engine while the
    /// driver was measuring.
    std::vector<Finished> finished;
    /// First-attempt launch time of logical transactions still retrying.
    std::unordered_map<TxnId, SimTime> first_start;
  };

  bool timed() const { return timed_; }

  /// Sizes the per-engine cells and keeps the cluster's simulator; called
  /// once the cluster exists.
  void Attach(chiller::cc::Cluster* cluster) {
    cells_.resize(cluster->num_engines());
    sim_ = cluster->sim();
  }
  /// The driver whose measuring toggle decides which outcomes count.
  void BindDriver(const chiller::cc::Driver* driver) { driver_ = driver; }
  bool measuring() const { return driver_ != nullptr && driver_->measuring(); }
  /// Simulated now, in the calling engine's domain.
  SimTime now() const { return sim_->now(); }

  EngineCells& cell(EngineId e) { return cells_[e]; }
  const std::vector<EngineCells>& cells() const { return cells_; }

  // Control-plane tallies (single-threaded wiring and reads).
  double make_s = 0.0;  ///< WorkloadRegistry::Make of the wrapped workload
  double load_s = 0.0;  ///< WorkloadBundle::Load of the wrapped workload
  uint64_t control_classname_calls = 0;
  /// The wrapped protocol (for protocol-specific counters); set at wiring.
  const chiller::cc::Protocol* inner_protocol = nullptr;

  /// Merged sums over engines, control-plane only.
  uint64_t Executes() const;
  uint64_t ExecuteNs() const;
  uint64_t Draws() const;
  uint64_t DrawNs() const;
  uint64_t ClassNameCalls() const;
  /// Response time (ns, simulated) of every measured logical transaction,
  /// engine-ascending: from when it was due to the end of its last attempt.
  /// It was due at the earlier of its draw and its enqueue. A plain open
  /// loop queues a request at arrival and draws it at launch; the scheduled
  /// open loop draws it at arrival and, when it routes the request to
  /// another engine, enqueues it there only after the network hop. A closed
  /// loop draws and launches at once.
  std::vector<uint64_t> ResponseNs() const { return ResponseTimes(cells_); }
  static std::vector<uint64_t> ResponseTimes(
      const std::vector<EngineCells>& cells);

 private:
  bool timed_;
  const chiller::cc::Driver* driver_ = nullptr;
  const chiller::sim::Scheduler* sim_ = nullptr;
  std::vector<EngineCells> cells_;
};

/// Makes `probe` the one the delegating entries attach to while a scenario
/// is wired. Scenarios are wired one at a time on the main thread.
class ScopedProbe {
 public:
  explicit ScopedProbe(Probe* probe);
  ~ScopedProbe();
  ScopedProbe(const ScopedProbe&) = delete;
  ScopedProbe& operator=(const ScopedProbe&) = delete;
};

/// Registers the delegating entries in the global registries: workloads
/// "bench-<name>" for tpcc / ycsb / adaptive and protocol "bench-chiller".
/// Idempotent.
void Install();

}  // namespace perfbench

#endif  // PERFBENCH_PROBE_H_
