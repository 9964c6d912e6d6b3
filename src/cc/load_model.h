// Pluggable load models: how transactions are offered to the engines.
//
// The Driver owns the mechanics of running one transaction attempt (ids,
// timestamps, protocol dispatch, stats); a LoadModel owns the *policy* of
// when work arrives and how slots refill:
//
//   ClosedLoop  the paper's Figure 9 semantics — every engine keeps a fixed
//               number of transactions open at all times; a finished slot
//               immediately draws a fresh transaction. Latency here is a
//               dependent variable of the concurrency knob.
//   OpenLoop    an offered-load arrival process (Poisson or uniformly
//               jittered, deterministic per seed) feeds each engine at a
//               configurable cluster-wide rate. Arrivals that find every
//               service slot busy wait in a bounded per-engine admission
//               queue; arrivals that find the queue full are shed and
//               counted. Queueing delay is measured separately from
//               execution latency, which makes latency-vs-throughput knees
//               observable (the closed loop can never show one).
//
// Both share the Driver's conflict-retry policy (jittered exponential
// backoff, the retried attempt keeps its slot), so protocol comparisons
// stay apples-to-apples across load models.
#ifndef CHILLER_CC_LOAD_MODEL_H_
#define CHILLER_CC_LOAD_MODEL_H_

#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "cc/driver.h"
#include "common/random.h"
#include "common/status.h"
#include "common/types.h"

namespace chiller::cc {

/// Slot-refill / arrival-timing policy for a Driver. One model instance
/// serves one driver (models hold per-engine state); the driver calls
/// Bind() once at construction, StartEngine() for every engine at Start()
/// and Resume(), and OnSlotFree() whenever an attempt finishes while the
/// driver is live (never after Quiesce()).
class LoadModel {
 public:
  virtual ~LoadModel() = default;

  virtual const char* name() const = 0;

  /// Arms engine `e`: launches the initial work (closed) or the
  /// arrival clock (open). Called once per engine by Driver::Start() and
  /// again by Resume() after a Quiesce() drained everything in flight.
  virtual void StartEngine(EngineId e) = 0;

  /// An attempt on engine `e` has finished with `t.outcome` decided and its
  /// stats already recorded. The model decides what the freed slot does
  /// next: retry the same logical transaction, draw fresh work, admit from
  /// a queue, or go idle.
  virtual void OnSlotFree(EngineId e, const txn::Transaction& t) = 0;

  /// True when this model offers load through an admission queue: the
  /// driver marks RunStats::open_loop so reports emit the queue fields
  /// even for windows that happened to see no arrivals.
  virtual bool UsesAdmissionQueue() const { return false; }

  /// Called once by the Driver constructor. OnBind() lets subclasses size
  /// per-engine state off the cluster topology.
  void Bind(Driver* driver) {
    driver_ = driver;
    OnBind();
  }

 protected:
  virtual void OnBind() {}

  /// The shared conflict-retry policy: rebuild the same logical transaction
  /// and relaunch it after a jittered backoff that grows with consecutive
  /// aborts (NO_WAIT livelock avoidance without letting retries saturate a
  /// contended record). The retry occupies its engine slot throughout.
  void RetryAfterBackoff(EngineId e, const txn::Transaction& t);

  Driver* driver_ = nullptr;
};

/// Closed loop: `slots_per_engine` transactions open at all times per
/// engine (the paper's "# concurrent txns per warehouse" knob). This model
/// reproduces the pre-LoadModel Driver byte for byte.
class ClosedLoop final : public LoadModel {
 public:
  explicit ClosedLoop(uint32_t slots_per_engine);

  const char* name() const override { return "closed"; }
  void StartEngine(EngineId e) override;
  void OnSlotFree(EngineId e, const txn::Transaction& t) override;

 private:
  uint32_t slots_;
};

struct OpenLoopOptions {
  /// Cluster-wide offered load, transactions per simulated second, split
  /// evenly across engines. Must be > 0.
  double offered_tps = 0.0;
  /// "poisson": exponential interarrivals (a memoryless arrival process);
  /// "uniform": interarrivals uniform in [0, 2*mean) — same rate, bounded
  /// burstiness. Both are deterministic per seed.
  std::string arrival = "poisson";
  /// Service parallelism per engine (how many admitted transactions may
  /// execute concurrently); the ScenarioSpec concurrency knob.
  uint32_t slots_per_engine = 1;
  /// Bounded per-engine admission queue. An arrival that finds `queue_cap`
  /// requests already waiting is shed (dropped and counted), which bounds
  /// queueing delay under overload instead of growing it without limit.
  uint32_t queue_cap = 64;
  /// Seed for the per-engine arrival clocks (independent of the workload
  /// RNG so arrival times do not depend on transaction parameters).
  uint64_t seed = 1;
};

/// Open loop: arrivals at a fixed offered rate, a bounded admission queue,
/// shed accounting, and queueing-delay measurement. Arrival events that
/// fire while the driver is quiesced are discarded and the clock disarmed;
/// Resume() re-arms it (requests already admitted to the queue survive a
/// quiesce and launch first). Note that Quiesce()'s drain must still run
/// each engine's one pending (discarded) arrival event — the simulator has
/// no event cancellation — so the quiesce pause extends to the latest
/// pending arrival timestamp: up to about one interarrival gap of extra
/// simulated time per quiesce, deterministic, and included in the waits of
/// requests that sit in the queue across the pause (like the pause
/// itself).
class OpenLoop final : public LoadModel {
 public:
  explicit OpenLoop(OpenLoopOptions options);

  const char* name() const override { return "open"; }
  void StartEngine(EngineId e) override;
  void OnSlotFree(EngineId e, const txn::Transaction& t) override;
  bool UsesAdmissionQueue() const override { return true; }

 private:
  /// One waiting request on the scheduled path. Unlike the legacy queue
  /// (timestamps only — the transaction is drawn at launch), scheduled
  /// admission draws at arrival so the scheduler can classify and steer;
  /// the drawn transaction waits here.
  struct ScheduledRequest {
    std::shared_ptr<txn::Transaction> txn;
    SimTime enqueued = 0;
  };

  struct EngineState {
    Rng arrivals{1};             ///< arrival-clock RNG, seeded per engine
    uint32_t free_slots = 0;
    std::deque<SimTime> queue;   ///< legacy: admission times of waiters
    std::deque<ScheduledRequest> sched_queue;  ///< scheduled path only
    /// In-flight count per non-cold conflict class (an installed scheduler
    /// serializes each non-cold class per engine). A retry keeps its
    /// slot and its class; release happens when the logical transaction
    /// settles.
    std::unordered_map<uint32_t, uint32_t> inflight_classes;
    bool initialized = false;
  };

  void OnBind() override;

  void ScheduleNextArrival(EngineId e);
  void Arrive(EngineId e);
  /// Launches the request at the head of `e`'s queue into a free slot.
  void AdmitFromQueue(EngineId e);

  // --- scheduled path (driver()->scheduler() != nullptr) ------------------
  /// Admits `t` on engine `e`: launch if a slot is free and its class is
  /// admissible, else queue, else shed the arrival. Runs in e's event
  /// domain (steered arrivals get here through the fabric).
  void AdmitScheduled(EngineId e, std::shared_ptr<txn::Transaction> t);
  /// Launches queued requests whose class is admissible while slots are
  /// free (first-admissible order, not strict FIFO: a blocked hot class
  /// never starves the cold work behind it).
  void TryAdmitScheduled(EngineId e);
  bool ClassAdmissible(const EngineState& s, uint32_t cls) const;

  OpenLoopOptions opts_;
  SimTime mean_interarrival_ = 0;  ///< per engine, ns
  /// Live admission-queue depth (legacy + scheduled queues), one cell per
  /// engine; snapshotted onto the trace timeline each slice.
  obs::MetricsRegistry::Gauge* m_queue_depth_ = nullptr;
  /// Arrivals the scheduler steered to another engine (lifetime).
  obs::MetricsRegistry::Counter* m_routed_remote_ = nullptr;
  std::vector<EngineState> engines_;
};

/// Declarative load-model parameters, the union of every model's knobs
/// (each model reads only its own; see ScenarioSpec for the field docs).
struct LoadModelParams {
  uint32_t slots_per_engine = 4;
  double offered_tps = 0.0;
  std::string arrival = "poisson";
  uint32_t queue_cap = 64;
  uint64_t seed = 1;
};

/// The single source of truth for load-model parameter validity, shared by
/// MakeLoadModel, ScenarioRunner::Validate, and bench flag parsing:
/// InvalidArgument on an unknown name or parameters degenerate for the
/// chosen model (open needs offered_tps > 0, queue_cap >= 1, and a known
/// arrival process).
Status ValidateLoadModelParams(const std::string& name,
                               const LoadModelParams& params);

/// Builds a load model by registry-style name, "closed" or "open", after
/// ValidateLoadModelParams.
StatusOr<std::unique_ptr<LoadModel>> MakeLoadModel(
    const std::string& name, const LoadModelParams& params);

}  // namespace chiller::cc

#endif  // CHILLER_CC_LOAD_MODEL_H_
