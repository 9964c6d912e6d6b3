// Concurrency-control protocol interface and run statistics.
#ifndef CHILLER_CC_PROTOCOL_H_
#define CHILLER_CC_PROTOCOL_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cc/cluster.h"
#include "cc/replication.h"
#include "common/histogram.h"
#include "partition/lookup_table.h"
#include "txn/transaction.h"

namespace chiller::cc {

/// Counters for one transaction class (e.g. TPC-C NewOrder).
struct ClassStats {
  std::string name;
  uint64_t commits = 0;
  uint64_t conflict_aborts = 0;
  uint64_t user_aborts = 0;
  /// Attempts aborted because a live migration held the relayout bucket of
  /// a record they touched (src/migrate). Transient by construction — the
  /// retry lands after the bucket flips — so they are counted apart from
  /// real data conflicts and, like user aborts, excluded from AbortRate.
  uint64_t migration_aborts = 0;
  uint64_t distributed_commits = 0;
  Histogram latency;  ///< committed-attempt latency, ns

  uint64_t attempts() const {
    return commits + conflict_aborts + user_aborts + migration_aborts;
  }
  /// The paper's abort-rate metric: aborted attempts / all attempts
  /// (user and migration aborts are not data contention and are excluded
  /// from the numerator).
  double AbortRate() const {
    const uint64_t a = attempts();
    return a == 0 ? 0.0
                  : static_cast<double>(conflict_aborts) /
                        static_cast<double>(a);
  }
};

/// Aggregated statistics for a measurement window.
struct RunStats {
  std::vector<ClassStats> classes;
  SimTime window = 0;  ///< measurement window length, ns

  // Open-loop load-model accounting (see cc/load_model.h). All zero under
  // the closed-loop model, which has no admission queue.
  /// True when the run was driven through an admission queue (the driver
  /// marks it from LoadModel::UsesAdmissionQueue); reports key the queue
  /// fields off this, not off the counters, so a window with no arrivals
  /// still carries them.
  bool open_loop = false;
  uint64_t admitted = 0;  ///< arrivals accepted (launched or queued)
  uint64_t shed = 0;      ///< arrivals dropped at a full admission queue
  /// Admission-queue wait of finished requests (committed or user-aborted;
  /// a conflict retry is still the same waiting request), ns — the
  /// queueing component of end-to-end latency, kept separate from the
  /// execution latency in ClassStats::latency.
  Histogram queue_delay;

  /// Fraction of offered arrivals dropped at the admission queue.
  double ShedRate() const {
    const uint64_t offered = admitted + shed;
    return offered == 0 ? 0.0
                        : static_cast<double>(shed) /
                              static_cast<double>(offered);
  }

  /// Bounds-safe class lookup: null when the class never ran in the window
  /// (short measurement windows legitimately miss rare classes).
  const ClassStats* FindClass(uint32_t cls) const {
    return cls < classes.size() ? &classes[cls] : nullptr;
  }

  /// AbortRate of one class; 0 when the class never ran. The safe spelling
  /// of `stats.classes[cls].AbortRate()` for indices that may be absent.
  double ClassAbortRate(uint32_t cls) const {
    const ClassStats* s = FindClass(cls);
    return s == nullptr ? 0.0 : s->AbortRate();
  }

  uint64_t TotalCommits() const {
    uint64_t c = 0;
    for (const auto& s : classes) c += s.commits;
    return c;
  }
  uint64_t TotalConflictAborts() const {
    uint64_t c = 0;
    for (const auto& s : classes) c += s.conflict_aborts;
    return c;
  }
  uint64_t TotalMigrationAborts() const {
    uint64_t c = 0;
    for (const auto& s : classes) c += s.migration_aborts;
    return c;
  }
  uint64_t TotalAttempts() const {
    uint64_t c = 0;
    for (const auto& s : classes) c += s.attempts();
    return c;
  }
  uint64_t DistributedCommits() const {
    uint64_t c = 0;
    for (const auto& s : classes) c += s.distributed_commits;
    return c;
  }
  double AbortRate() const {
    const uint64_t a = TotalAttempts();
    return a == 0 ? 0.0
                  : static_cast<double>(TotalConflictAborts()) /
                        static_cast<double>(a);
  }
  double DistributedRatio() const {
    const uint64_t c = TotalCommits();
    return c == 0 ? 0.0
                  : static_cast<double>(DistributedCommits()) /
                        static_cast<double>(c);
  }
  /// Committed transactions per simulated second.
  double Throughput() const {
    return window == 0 ? 0.0
                       : static_cast<double>(TotalCommits()) /
                             (static_cast<double>(window) / kSecond);
  }
};

/// A distributed transaction execution protocol. Implementations: 2PL
/// NO_WAIT + 2PC (baseline), MaaT-inspired OCC (baseline), and Chiller's
/// two-region execution (src/chiller).
class Protocol {
 public:
  Protocol(Cluster* cluster, const partition::RecordPartitioner* partitioner,
           ReplicationManager* replication)
      : cluster_(cluster),
        partitioner_(partitioner),
        replication_(replication) {}
  virtual ~Protocol() = default;

  virtual const char* name() const = 0;

  /// Executes one transaction attempt from its home engine. `done` fires
  /// exactly once, after every effect of the attempt (including lock
  /// releases and replication) has been issued; the transaction's outcome
  /// field tells the caller whether to retry.
  virtual void Execute(std::shared_ptr<txn::Transaction> t,
                       std::function<void()> done) = 0;

  Cluster* cluster() { return cluster_; }
  const partition::RecordPartitioner* partitioner() const {
    return partitioner_;
  }
  ReplicationManager* replication() { return replication_; }

 protected:
  Cluster* cluster_;
  const partition::RecordPartitioner* partitioner_;
  ReplicationManager* replication_;
};

}  // namespace chiller::cc

#endif  // CHILLER_CC_PROTOCOL_H_
