#include "cc/exec_common.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <set>
#include <utility>

#include "common/logging.h"
#include "net/rdma.h"

namespace chiller::cc::exec {

namespace {

using storage::LockMode;
using txn::Access;
using txn::OpType;
using txn::Operation;
using txn::Transaction;

// Wire-size estimates for the latency model.
constexpr size_t kLockReadReq = 48;
constexpr size_t kLockRespBase = 16;
constexpr size_t kWriteUnlockRespBase = 16;

/// Finds an earlier access of `t` that owns the same record: it holds the
/// record's lock, or it piggybacked on its own bucket lock. Matching only
/// lock holders would let a repeated piggybacked access piggyback again on
/// a second copy of the record, and one of the two writes would be lost.
int FindHolder(const Transaction& t, size_t i) {
  const Access& acc = t.accesses[i];
  for (size_t j = 0; j < i; ++j) {
    const Access& prev = t.accesses[j];
    if ((prev.lock_held || prev.bucket_piggyback) && prev.key_resolved &&
        prev.rid == acc.rid) {
      return static_cast<int>(j);
    }
  }
  return -1;
}

/// Finds an earlier lock-holding access whose key lives in the same bucket
/// as op `i`'s (different key, same lock granule). Without this, a hash
/// collision inside one transaction self-deadlocks under NO_WAIT and the
/// deterministic retry loops forever.
int FindBucketHolder(storage::PartitionStore* store, const Transaction& t,
                     size_t i) {
  const Access& acc = t.accesses[i];
  storage::Table* table = store->table(acc.rid.table);
  const size_t bucket = table->BucketIndex(acc.rid.key);
  for (size_t j = 0; j < i; ++j) {
    const Access& prev = t.accesses[j];
    if (prev.lock_held && prev.key_resolved &&
        prev.partition == acc.partition && prev.rid.table == acc.rid.table &&
        table->BucketIndex(prev.rid.key) == bucket) {
      return static_cast<int>(j);
    }
  }
  return -1;
}

/// Runs on_read / on_apply for op `i` against the holder's buffered copy.
void RunClosures(Transaction* t, size_t i, bool apply_inline) {
  const Operation& op = t->ops[i];
  Access& acc = t->accesses[i];
  Access& holder =
      acc.alias_of >= 0 ? t->accesses[static_cast<size_t>(acc.alias_of)] : acc;
  if (op.type == OpType::kInsert) {
    holder.local_copy = op.make_record(t->ctx);
    holder.wrote = true;
    acc.applied = true;
  } else {
    CHILLER_CHECK(!op.on_read || holder.local_copy.num_fields() > 0)
        << "op " << i << " table " << op.table << " key " << acc.rid.key
        << " alias " << acc.alias_of << " reads empty record image";
    if (op.on_read) op.on_read(t->ctx, holder.local_copy);
    if (op.type == OpType::kUpdate && apply_inline) {
      if (op.on_apply) op.on_apply(t->ctx, &holder.local_copy);
      holder.wrote = true;
      acc.applied = true;
    } else if (op.type == OpType::kErase) {
      holder.wrote = true;
      acc.applied = true;
    }
  }
  acc.fetched = true;
}

/// Applies the pending deferred write of op `i` (Chiller outer phase 2).
/// Any write kind can be deferred: under layouts where outer writes
/// v-depend on inner results (common once online relayout rehomes
/// records), inserts rebuild their record now that those results are in
/// the context, and erases just confirm their buffered tombstone.
void ApplyDeferredClosure(Transaction* t, size_t i) {
  const Operation& op = t->ops[i];
  Access& acc = t->accesses[i];
  Access& holder =
      acc.alias_of >= 0 ? t->accesses[static_cast<size_t>(acc.alias_of)] : acc;
  if (op.type == OpType::kInsert) {
    holder.local_copy = op.make_record(t->ctx);
  } else if (op.type != OpType::kErase) {
    CHILLER_CHECK(op.type == OpType::kUpdate);
    if (op.on_apply) op.on_apply(t->ctx, &holder.local_copy);
  }
  holder.wrote = true;
  acc.applied = true;
}

storage::PartitionStore* StoreOf(const Deps& d, PartitionId p) {
  return d.cluster->primary(p);
}

/// Store-side live-migration gate, run before any lock/fetch attempt on op
/// `i`: the access must abort its attempt (a) while the record's relayout
/// bucket is in flight (the move would race the lock), or (b) when a
/// completed per-bucket flip re-homed the record between key resolution
/// and this access landing (routing is stale; a retry re-resolves against
/// the flipped layout). ever_active() gates the whole check off for the
/// common case of a cluster that never live-migrates, so legacy runs stay
/// byte-identical and pay nothing.
bool MigrationBlocked(const Deps& d, Transaction* t, size_t i) {
  const migrate::BucketLockTable& locks = *d.cluster->bucket_locks();
  if (!locks.ever_active()) return false;
  const Access& acc = t->accesses[i];
  if (locks.IsMigrating(acc.rid)) {
    t->blocked_by_migration = true;
    return true;
  }
  if (locks.HasFrozenStorageBuckets()) {
    // Drain escalation (see BucketLockTable): a stubborn batch froze the
    // storage buckets it needs, which also blocks colliding keys from
    // *other* relayout buckets.
    storage::Table* table =
        d.cluster->primary(acc.partition)->table(acc.rid.table);
    if (locks.IsStorageBucketFrozen({acc.partition, acc.rid.table,
                                     table->BucketIndex(acc.rid.key)})) {
      t->blocked_by_migration = true;
      return true;
    }
  }
  if (!t->ops[i].access_local_replica &&
      d.partitioner->PartitionOf(acc.rid) != acc.partition) {
    t->blocked_by_migration = true;
    return true;
  }
  return false;
}

/// Applies one holder access's effect to the primary store and unlocks.
void ApplyOneAtStore(storage::PartitionStore* store, const Operation& op,
                     Access* acc) {
  if (acc->wrote) {
    if (op.type == OpType::kInsert) {
      CHILLER_CHECK(store->Insert(acc->rid, acc->local_copy).ok())
          << "insert conflict on " << acc->rid.ToString();
    } else if (op.type == OpType::kErase) {
      CHILLER_CHECK(store->Erase(acc->rid).ok());
    } else {
      storage::Record* rec = store->Find(acc->rid);
      CHILLER_CHECK(rec != nullptr);
      *rec = acc->local_copy;
    }
    store->Unlock(acc->rid, LockMode::kExclusive, /*modified=*/true);
  } else {
    store->Unlock(acc->rid, op.mode, /*modified=*/false);
  }
  acc->lock_held = false;
}

/// Applies a piggybacked write under the bucket holder's lock (no unlock).
void ApplyPiggybackAtStore(storage::PartitionStore* store,
                           const Operation& op, Access* acc) {
  if (!acc->wrote) return;
  if (op.type == OpType::kInsert) {
    CHILLER_CHECK(store->Insert(acc->rid, acc->local_copy).ok())
        << "insert conflict on " << acc->rid.ToString();
  } else if (op.type == OpType::kErase) {
    CHILLER_CHECK(store->Erase(acc->rid).ok());
  } else {
    storage::Record* rec = store->Find(acc->rid);
    CHILLER_CHECK(rec != nullptr);
    *rec = acc->local_copy;
  }
}

void ReleaseOneAtStore(storage::PartitionStore* store, const Operation& op,
                       Access* acc) {
  const LockMode mode =
      op.mode;  // the mode actually taken (writes always exclusive)
  store->Unlock(acc->rid, mode, /*modified=*/false);
  acc->lock_held = false;
}

}  // namespace

PartitionId ResolvePartition(const Deps& d, const Transaction& t, size_t i) {
  if (t.ops[i].access_local_replica) {
    CHILLER_CHECK(!t.ops[i].IsWrite())
        << "replicated tables are read-only (op " << i << ")";
    return t.home;
  }
  return d.partitioner->PartitionOf(t.accesses[i].rid);
}

void LockAndFetch(const Deps& d, Transaction* t, size_t i, Engine* eng,
                  bool apply_inline, std::function<void(bool)> cb) {
  const Operation& op = t->ops[i];
  Access& acc = t->accesses[i];
  CHILLER_CHECK(acc.key_resolved && acc.partition != kInvalidPartition);
  const ExecCosts& costs = d.cluster->costs();

  // Repeated access to a record this transaction already locked.
  const int holder = FindHolder(*t, i);
  if (holder >= 0) {
    const txn::Access& held = t->accesses[static_cast<size_t>(holder)];
    if (held.missing) {
      // The holder probed an absent record: this access misses too.
      CHILLER_CHECK(op.may_be_missing)
          << "op " << i << " aliases a missing record";
      if (op.skip_group >= 0) t->dead_groups.insert(op.skip_group);
      acc.alias_of = holder;
      acc.missing = true;
      acc.fetched = true;
      cb(true);
      return;
    }
    const Operation& holder_op = t->ops[static_cast<size_t>(holder)];
    if (op.IsWrite() || op.mode == LockMode::kExclusive) {
      CHILLER_CHECK(holder_op.mode == LockMode::kExclusive)
          << "lock upgrade not supported: first access must take the "
             "strongest mode (Figure 4 read_with_wl)";
    }
    acc.alias_of = holder;
    RunClosures(t, i, apply_inline);
    cb(true);
    return;
  }

  if (acc.partition == eng->id()) {
    // Local access on this engine's own partition.
    eng->cpu()->Submit(costs.op_local, [d, t, i, apply_inline,
                                        cb = std::move(cb)]() {
      const Operation& op = t->ops[i];
      Access& acc = t->accesses[i];
      if (MigrationBlocked(d, t, i)) {
        cb(false);
        return;
      }
      storage::PartitionStore* store = StoreOf(d, acc.partition);
      const int bucket_holder = FindBucketHolder(store, *t, i);
      if (bucket_holder >= 0) {
        const Operation& holder_op =
            t->ops[static_cast<size_t>(bucket_holder)];
        CHILLER_CHECK(!op.IsWrite() ||
                      holder_op.mode == LockMode::kExclusive)
            << "bucket lock upgrade within a transaction";
        acc.bucket_piggyback = true;
      } else if (!store->TryLock(acc.rid, op.mode).ok()) {
        cb(false);
        return;
      } else {
        acc.lock_held = true;
      }
      if (op.type != OpType::kInsert) {
        storage::Record* rec = store->Find(acc.rid);
        if (rec == nullptr) {
          CHILLER_CHECK(op.may_be_missing)
              << "missing record " << acc.rid.ToString();
          if (op.skip_group >= 0) t->dead_groups.insert(op.skip_group);
          acc.missing = true;
          acc.fetched = true;
          cb(true);
          return;
        }
        acc.local_copy = *rec;
      }
      RunClosures(t, i, apply_inline);
      cb(true);
    });
    return;
  }

  // Remote: one-sided CAS on the bucket lock word + READ of the record,
  // modeled as a single combined round trip (doorbell batching).
  struct RemoteResult {
    bool ok = false;
    bool missing = false;
    bool piggyback = false;
    storage::Record image;
  };
  auto res = std::make_shared<RemoteResult>();
  const NodeId src = d.cluster->topology().NodeOfEngine(eng->id());
  const NodeId dst = d.cluster->topology().NodeOfPartition(acc.partition);
  const size_t resp_bytes =
      kLockRespBase + (op.type == OpType::kInsert ? 0 : 128);
  d.cluster->rdma()->OneSided(
      src, dst, kLockReadReq, resp_bytes,
      /*remote_op=*/
      [d, t, i, res]() {
        const Operation& op = t->ops[i];
        Access& acc = t->accesses[i];
        if (MigrationBlocked(d, t, i)) return;  // res->ok stays false
        storage::PartitionStore* store = StoreOf(d, acc.partition);
        const int bucket_holder = FindBucketHolder(store, *t, i);
        if (bucket_holder >= 0) {
          const Operation& holder_op =
              t->ops[static_cast<size_t>(bucket_holder)];
          CHILLER_CHECK(!op.IsWrite() ||
                        holder_op.mode == LockMode::kExclusive)
              << "bucket lock upgrade within a transaction";
          res->piggyback = true;
        } else if (!store->TryLock(acc.rid, op.mode).ok()) {
          return;
        }
        res->ok = true;
        if (op.type != OpType::kInsert) {
          storage::Record* rec = store->Find(acc.rid);
          if (rec == nullptr) {
            CHILLER_CHECK(op.may_be_missing)
                << "missing record " << acc.rid.ToString();
            res->missing = true;
          } else {
            res->image = *rec;
          }
        }
      },
      /*completion=*/
      [d, t, i, eng, apply_inline, res, cb = std::move(cb)]() {
        eng->cpu()->Submit(
            d.cluster->costs().op_logic,
            [t, i, apply_inline, res, cb = std::move(cb)]() {
              const Operation& op = t->ops[i];
              Access& acc = t->accesses[i];
              if (!res->ok) {
                cb(false);
                return;
              }
              if (res->piggyback) {
                acc.bucket_piggyback = true;
              } else {
                acc.lock_held = true;
              }
              if (res->missing) {
                if (op.skip_group >= 0) {
                  t->dead_groups.insert(op.skip_group);
                }
                acc.missing = true;
                acc.fetched = true;
                cb(true);
                return;
              }
              acc.local_copy = std::move(res->image);
              RunClosures(t, i, apply_inline);
              cb(true);
            });
      },
      eng->cpu());
}

void FetchVersioned(const Deps& d, Transaction* t, size_t i, Engine* eng,
                    std::function<void()> cb) {
  Access& acc = t->accesses[i];
  CHILLER_CHECK(acc.key_resolved && acc.partition != kInvalidPartition);
  const ExecCosts& costs = d.cluster->costs();

  // OCC has no locks during execution; alias on a prior fetch of the same
  // record for read-own-writes.
  for (size_t j = 0; j < i; ++j) {
    if (t->accesses[j].fetched && t->accesses[j].alias_of < 0 &&
        t->accesses[j].key_resolved && t->accesses[j].rid == acc.rid) {
      acc.alias_of = static_cast<int>(j);
      if (t->accesses[j].missing) {
        CHILLER_CHECK(t->ops[i].may_be_missing)
            << "op " << i << " aliases a missing record";
        if (t->ops[i].skip_group >= 0) {
          t->dead_groups.insert(t->ops[i].skip_group);
        }
        acc.missing = true;
        acc.fetched = true;
        cb();
        return;
      }
      RunClosures(t, i, /*apply_inline=*/true);
      cb();
      return;
    }
  }

  if (acc.partition == eng->id()) {
    eng->cpu()->Submit(costs.op_local, [d, t, i, cb = std::move(cb)]() {
      const Operation& op = t->ops[i];
      Access& acc = t->accesses[i];
      // Lockless OCC reads must still respect the migration gate: the
      // caller (occ.cc) aborts the attempt when the flag is set.
      if (MigrationBlocked(d, t, i)) {
        cb();
        return;
      }
      storage::PartitionStore* store = StoreOf(d, acc.partition);
      acc.observed_version = store->VersionOf(acc.rid);
      if (op.type != OpType::kInsert) {
        storage::Record* rec = store->Find(acc.rid);
        if (rec == nullptr) {
          CHILLER_CHECK(op.may_be_missing)
              << "missing record " << acc.rid.ToString();
          if (op.skip_group >= 0) t->dead_groups.insert(op.skip_group);
          acc.missing = true;
          acc.fetched = true;
          cb();
          return;
        }
        acc.local_copy = *rec;
      }
      RunClosures(t, i, /*apply_inline=*/true);
      cb();
    });
    return;
  }

  struct RemoteResult {
    uint64_t version = 0;
    storage::Record image;
    bool has_image = false;
    bool missing = false;
    bool blocked = false;
  };
  auto res = std::make_shared<RemoteResult>();
  const NodeId src = d.cluster->topology().NodeOfEngine(eng->id());
  const NodeId dst = d.cluster->topology().NodeOfPartition(acc.partition);
  d.cluster->rdma()->OneSided(
      src, dst, 32, kLockRespBase + 128,
      [d, t, i, res]() {
        const Operation& op = t->ops[i];
        Access& acc = t->accesses[i];
        if (MigrationBlocked(d, t, i)) {
          res->blocked = true;
          return;
        }
        storage::PartitionStore* store = StoreOf(d, acc.partition);
        res->version = store->VersionOf(acc.rid);
        if (op.type != OpType::kInsert) {
          storage::Record* rec = store->Find(acc.rid);
          if (rec == nullptr) {
            CHILLER_CHECK(op.may_be_missing)
                << "missing record " << acc.rid.ToString();
            res->missing = true;
          } else {
            res->image = *rec;
            res->has_image = true;
          }
        }
      },
      [d, t, i, eng, res, cb = std::move(cb)]() {
        eng->cpu()->Submit(d.cluster->costs().op_logic,
                           [t, i, res, cb = std::move(cb)]() {
                             const Operation& op = t->ops[i];
                             Access& acc = t->accesses[i];
                             if (res->blocked) {
                               cb();
                               return;
                             }
                             acc.observed_version = res->version;
                             if (res->missing) {
                               if (op.skip_group >= 0) {
                                 t->dead_groups.insert(op.skip_group);
                               }
                               acc.missing = true;
                               acc.fetched = true;
                               cb();
                               return;
                             }
                             if (res->has_image) {
                               acc.local_copy = std::move(res->image);
                             }
                             RunClosures(t, i, /*apply_inline=*/true);
                             cb();
                           });
      },
      eng->cpu());
}

void ValidateLockWrite(const Deps& d, Transaction* t, size_t i, Engine* eng,
                       std::function<void(bool)> cb) {
  Access& acc = t->accesses[i];
  CHILLER_CHECK(acc.alias_of < 0);
  auto attempt = [d, t, i](storage::PartitionStore* store) -> bool {
    Access& acc = t->accesses[i];
    if (MigrationBlocked(d, t, i)) return false;
    if (store->VersionOf(acc.rid) != acc.observed_version) return false;
    if (FindBucketHolder(store, *t, i) >= 0) {
      // The bucket is validation-locked by an earlier write of this
      // transaction: the version check above suffices.
      acc.bucket_piggyback = true;
      return true;
    }
    if (!store->TryLock(acc.rid, LockMode::kExclusive).ok()) return false;
    acc.lock_held = true;
    return true;
  };
  if (acc.partition == eng->id()) {
    eng->cpu()->Submit(d.cluster->costs().op_local,
                       [d, i, t, attempt, cb = std::move(cb)]() {
                         cb(attempt(StoreOf(d, t->accesses[i].partition)));
                       });
    return;
  }
  auto ok = std::make_shared<bool>(false);
  const NodeId src = d.cluster->topology().NodeOfEngine(eng->id());
  const NodeId dst = d.cluster->topology().NodeOfPartition(acc.partition);
  d.cluster->rdma()->OneSided(
      src, dst, kLockReadReq, kLockRespBase,
      [d, t, i, attempt, ok]() {
        *ok = attempt(StoreOf(d, t->accesses[i].partition));
      },
      [eng, d, ok, cb = std::move(cb)]() {
        eng->cpu()->Submit(d.cluster->costs().op_logic,
                           [ok, cb = std::move(cb)]() { cb(*ok); });
      },
      eng->cpu());
}

void ValidateRead(const Deps& d, Transaction* t, size_t i, Engine* eng,
                  std::function<void(bool)> cb) {
  Access& acc = t->accesses[i];
  CHILLER_CHECK(acc.alias_of < 0);
  auto check = [d, t, i]() -> bool {
    Access& acc = t->accesses[i];
    if (MigrationBlocked(d, t, i)) return false;
    storage::PartitionStore* store = StoreOf(d, acc.partition);
    // Version must match and no concurrent writer may hold the bucket —
    // our own validation lock on a colliding key does not count.
    storage::Table* table = store->table(acc.rid.table);
    const uint64_t w = table->BucketFor(acc.rid.key)->lock_word();
    if (storage::LockWord::Version(w) != acc.observed_version) return false;
    if (!storage::LockWord::IsExclusive(w)) return true;
    return FindBucketHolder(store, *t, i) >= 0;
  };
  if (acc.partition == eng->id()) {
    eng->cpu()->Submit(
        d.cluster->costs().op_local,
        [check, cb = std::move(cb)]() { cb(check()); });
    return;
  }
  auto ok = std::make_shared<bool>(false);
  const NodeId src = d.cluster->topology().NodeOfEngine(eng->id());
  const NodeId dst = d.cluster->topology().NodeOfPartition(acc.partition);
  d.cluster->rdma()->OneSided(
      src, dst, 32, kLockRespBase, [check, ok]() { *ok = check(); },
      [eng, d, ok, cb = std::move(cb)]() {
        eng->cpu()->Submit(d.cluster->costs().op_logic,
                           [ok, cb = std::move(cb)]() { cb(*ok); });
      },
      eng->cpu());
}

std::vector<size_t> HeldIndices(const Transaction& t) {
  std::vector<size_t> held;
  for (size_t i = 0; i < t.accesses.size(); ++i) {
    if (t.accesses[i].lock_held || t.accesses[i].bucket_piggyback) {
      held.push_back(i);
    }
  }
  return held;
}

namespace {

/// Shared fan-in: apply-or-release every index, local ones batched into one
/// CPU slice, remote ones as one one-sided WRITE each; cb when all settle.
void FinishLocks(const Deps& d, Transaction* t,
                 const std::vector<size_t>& indices, Engine* eng, bool apply,
                 std::function<void()> cb) {
  // Descending index order: a piggybacked write (which always has a higher
  // index than its bucket's lock holder) must land before the holder's
  // unlock — both locally and on the FIFO queue pair to the remote node.
  std::vector<size_t> ordered(indices.begin(), indices.end());
  std::sort(ordered.begin(), ordered.end(), std::greater<size_t>());
  std::vector<size_t> local, remote;
  for (size_t i : ordered) {
    Access& acc = t->accesses[i];
    if (acc.bucket_piggyback) {
      // No lock of its own; only a committed write needs applying.
      if (!apply || !acc.wrote) continue;
    } else {
      CHILLER_CHECK(acc.lock_held) << "op " << i << " does not hold its lock";
    }
    (acc.partition == eng->id() ? local : remote).push_back(i);
  }
  auto pending = std::make_shared<size_t>((local.empty() ? 0 : 1) +
                                          remote.size());
  if (*pending == 0) {
    cb();
    return;
  }
  auto shared_cb = std::make_shared<std::function<void()>>(std::move(cb));
  auto arrive = [pending, shared_cb]() {
    CHILLER_CHECK(*pending > 0);
    if (--*pending == 0) (*shared_cb)();
  };

  const ExecCosts& costs = d.cluster->costs();
  if (!local.empty()) {
    eng->cpu()->Submit(costs.op_commit * local.size(),
                       [d, t, local, apply, arrive]() {
                         for (size_t i : local) {
                           Access& acc = t->accesses[i];
                           storage::PartitionStore* store =
                               StoreOf(d, acc.partition);
                           if (acc.bucket_piggyback) {
                             ApplyPiggybackAtStore(store, t->ops[i], &acc);
                           } else if (apply) {
                             ApplyOneAtStore(store, t->ops[i], &acc);
                           } else {
                             ReleaseOneAtStore(store, t->ops[i], &acc);
                           }
                         }
                         arrive();
                       });
  }
  const NodeId src = d.cluster->topology().NodeOfEngine(eng->id());
  for (size_t i : remote) {
    Access& acc = t->accesses[i];
    const NodeId dst = d.cluster->topology().NodeOfPartition(acc.partition);
    const size_t req =
        32 + (apply && acc.wrote ? acc.local_copy.wire_bytes() : 0);
    d.cluster->rdma()->OneSided(
        src, dst, req, kWriteUnlockRespBase,
        [d, t, i, apply]() {
          Access& acc = t->accesses[i];
          storage::PartitionStore* store = StoreOf(d, acc.partition);
          if (acc.bucket_piggyback) {
            ApplyPiggybackAtStore(store, t->ops[i], &acc);
          } else if (apply) {
            ApplyOneAtStore(store, t->ops[i], &acc);
          } else {
            ReleaseOneAtStore(store, t->ops[i], &acc);
          }
        },
        [arrive]() { arrive(); }, eng->cpu());
  }
}

}  // namespace

void ApplyAndUnlock(const Deps& d, Transaction* t,
                    const std::vector<size_t>& indices, Engine* eng,
                    std::function<void()> cb) {
  FinishLocks(d, t, indices, eng, /*apply=*/true, std::move(cb));
}

void Release(const Deps& d, Transaction* t, const std::vector<size_t>& indices,
             Engine* eng, std::function<void()> cb) {
  FinishLocks(d, t, indices, eng, /*apply=*/false, std::move(cb));
}

std::map<PartitionId, std::vector<ReplUpdate>> CollectWrites(
    const Transaction& t, const std::vector<size_t>& indices) {
  std::map<PartitionId, std::vector<ReplUpdate>> by_partition;
  for (size_t i : indices) {
    const Access& acc = t.accesses[i];
    if (!acc.wrote) continue;
    ReplUpdate u;
    u.rid = acc.rid;
    if (t.ops[i].type == OpType::kErase) {
      u.kind = ReplUpdate::Kind::kErase;
    } else {
      u.kind = ReplUpdate::Kind::kPut;
      u.image = acc.local_copy;
    }
    by_partition[acc.partition].push_back(std::move(u));
  }
  return by_partition;
}

bool IsDistributed(const txn::Transaction& t) {
  std::set<PartitionId> parts;
  for (const Access& acc : t.accesses) {
    if (acc.key_resolved && acc.partition != kInvalidPartition) {
      parts.insert(acc.partition);
    }
  }
  return parts.size() > 1;
}

/// Applies Chiller's deferred outer-phase-2 closures (exposed for the
/// two-region runner; costs charged by the caller).
void ApplyDeferred(txn::Transaction* t, const std::vector<int>& deferred) {
  for (int i : deferred) ApplyDeferredClosure(t, static_cast<size_t>(i));
}

}  // namespace chiller::cc::exec
