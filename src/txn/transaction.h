// Runtime transaction instance shared by all protocols.
#ifndef CHILLER_TXN_TRANSACTION_H_
#define CHILLER_TXN_TRANSACTION_H_

#include <set>
#include <string>
#include <vector>

#include "common/types.h"
#include "storage/record.h"
#include "txn/operation.h"

namespace chiller::txn {

/// Final fate of one transaction attempt.
enum class Outcome {
  kPending,
  kCommitted,
  kAbortConflict,  ///< NO_WAIT lock conflict or failed OCC validation
  kAbortUser,      ///< a guard (value constraint) evaluated to false
};

/// Per-operation runtime access state. `local_copy` is the buffered record
/// image all protocols mutate; primaries only see it at commit time, which
/// gives uniform roll-back semantics.
struct Access {
  bool key_resolved = false;
  RecordId rid;
  PartitionId partition = kInvalidPartition;
  bool lock_held = false;
  bool fetched = false;
  bool applied = false;
  /// Index of an earlier access of this transaction that already holds the
  /// lock on the same record (read-own-writes aliasing); -1 if none.
  int alias_of = -1;
  /// The record was absent (only possible for may_be_missing ops); aliases
  /// of a missing holder are misses too.
  bool missing = false;
  /// This access's bucket is already locked by an earlier access of the
  /// same transaction on a *different* key (hash collision): it fetched
  /// and buffers its own record but holds no lock itself — its write-back
  /// rides on the holder's bucket lock and must land before the unlock.
  bool bucket_piggyback = false;
  /// Set on the lock-holding access when it, or any alias of it, buffered a
  /// write — the commit phase writes these back and replicates them.
  bool wrote = false;
  uint64_t observed_version = 0;  ///< OCC validation stamp
  storage::Record local_copy;
};

/// One transaction attempt: the op list (instance-level dependency DAG),
/// its context, and per-op access state.
class Transaction {
 public:
  TxnId id = 0;
  /// Workload-defined class (e.g. TPC-C NewOrder=0, Payment=1, ...).
  uint32_t txn_class = 0;
  /// Partition whose engine coordinates this transaction (the "home").
  PartitionId home = 0;

  std::vector<Operation> ops;
  TxnContext ctx;
  std::vector<Access> accesses;  // sized 1:1 with ops

  /// Skip groups whose guard record was missing (see
  /// Operation::skip_group); later ops in these groups become no-ops.
  std::set<int> dead_groups;

  /// True if op `i` must be skipped because its group is dead.
  bool IsSkipped(size_t i) const {
    return ops[i].skip_group >= 0 && dead_groups.contains(ops[i].skip_group);
  }

  Outcome outcome = Outcome::kPending;
  /// Set when this attempt aborted because a live migration held the
  /// relayout bucket of one of its records (or re-homed the record after
  /// placement was resolved). The outcome stays kAbortConflict — the retry
  /// machinery is identical — but the driver counts the attempt into the
  /// dedicated migration abort class instead of the conflict class.
  bool blocked_by_migration = false;
  /// Set when a two-region attempt discovered at runtime that an op's
  /// declared co-location does not hold under the live layout (possible
  /// once online relayout replaces the layout the workload was written
  /// against). Carried across retries: the rebuilt attempt runs the
  /// fallback protocol instead of replanning the same broken inner region.
  bool force_fallback = false;
  uint32_t attempt = 0;
  SimTime start_time = 0;
  SimTime end_time = 0;
  /// Open-loop load models: how long this request waited in the admission
  /// queue before its first attempt launched (carried across retries). 0
  /// under closed-loop admission.
  SimTime admission_delay = 0;
  /// Predicted conflict class assigned by the admission scheduler
  /// (schedule::Scheduler), or the cold sentinel when no conflict is
  /// expected / no classifying scheduler is installed. Carried across
  /// retries: a retried attempt keeps both its slot and its class, so
  /// class-serialized admission stays consistent until the logical
  /// transaction settles. The value matches schedule::kColdClass.
  uint32_t sched_class = 0xffffffffu;
  /// Identity of the *logical* transaction across its retry attempts.
  /// Issued per engine as k * num_engines + e + 1 (so each engine counts
  /// its own draws) the first time the driver sees the transaction; `id`
  /// stays per-attempt. 0 means not yet assigned.
  TxnId logical_id = 0;
  /// True when the trace recorder sampled this logical transaction; every
  /// span/instant recording site checks this flag. Carried across retries.
  bool traced = false;

  /// Must be called once after `ops` is filled.
  void InitAccesses() { accesses.assign(ops.size(), Access{}); }

  /// True when all pk-dependencies of op `i` have been applied, i.e. its
  /// key function may run.
  bool KeyReady(size_t i) const {
    for (int d : ops[i].pk_deps) {
      if (!accesses[static_cast<size_t>(d)].fetched) return false;
    }
    return true;
  }

  /// Runs the key function of op `i` and records the resolved RecordId.
  void ResolveKey(size_t i) {
    accesses[i].rid = RecordId{ops[i].table, ops[i].key_fn(ctx)};
    accesses[i].key_resolved = true;
  }

  /// Resolves every operation whose dependencies are already satisfied
  /// (all ops with no pk-deps, ahead of execution).
  void ResolveReadyKeys() {
    for (size_t i = 0; i < ops.size(); ++i) {
      if (!accesses[i].key_resolved && KeyReady(i)) ResolveKey(i);
    }
  }

  bool HasConflictAbort() const { return outcome == Outcome::kAbortConflict; }
};

}  // namespace chiller::txn

#endif  // CHILLER_TXN_TRANSACTION_H_
