#include "schedule/scheduler.h"

#include <utility>

#include "common/logging.h"

namespace chiller::schedule {

namespace {

std::string JoinNames(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& n : names) {
    if (!out.empty()) out += ", ";
    out += n;
  }
  return out;
}

/// The first hot *written* record of `t` in op order. Writes only, on
/// purpose: under NO_WAIT locking the abort storms worth serializing are
/// exclusive-lock collisions on a hot record, while hot *reads* share
/// their lock freely — classifying readers would serialize work that
/// cannot conflict and turn the class queue itself into the bottleneck.
/// Unresolved keys (pk-dependent ops ahead of execution) are skipped —
/// classification only sees what is knowable at admission. Returns false
/// when no resolved write is hot.
bool FirstHotRecord(const txn::Transaction& t,
                    const partition::RecordPartitioner& part,
                    RecordId* out) {
  for (size_t i = 0; i < t.ops.size(); ++i) {
    if (!t.ops[i].IsWrite()) continue;
    const txn::Access& a = t.accesses[i];
    if (!a.key_resolved) continue;
    if (part.IsHot(a.rid)) {
      *out = a.rid;
      return true;
    }
  }
  return false;
}

/// Stable class of a hot record: the shared RecordId hash folded into the
/// class universe. Pure function of (record, classes) — identical across
/// retries, engines, shard counts, and processes.
uint32_t ClassOfRecord(const RecordId& rid, uint32_t classes) {
  return static_cast<uint32_t>(RecordIdHash{}(rid) % classes);
}

// ---------------------------------------------------------------------------
// fifo — the passthrough
// ---------------------------------------------------------------------------

class FifoScheduler final : public Scheduler {
 public:
  const char* name() const override { return "fifo"; }
  bool Passthrough() const override { return true; }
  uint32_t Classify(const txn::Transaction&) const override {
    return kColdClass;
  }
  EngineId Route(const txn::Transaction&, uint32_t,
                 EngineId arrival) const override {
    return arrival;
  }
};

// ---------------------------------------------------------------------------
// hash-affinity
// ---------------------------------------------------------------------------

/// Open-model steering. Class = hash of the transaction's first hot
/// written record, cold when it writes none. A hot transaction goes to the
/// engine that owns its hot record (partitions map 1:1 onto engines),
/// which makes the contended access local *and* gives that engine a
/// complete view of the record's conflict class for serialized admission.
/// Cold transactions stay on their arrival engine — steering them would
/// only add a forwarding hop.
class HashAffinityScheduler final : public Scheduler {
 public:
  explicit HashAffinityScheduler(const SchedulerContext& ctx)
      : num_engines_(ctx.num_engines),
        classes_(ctx.EffectiveClasses()),
        partitioner_(ctx.partitioner) {
    CHILLER_CHECK(partitioner_ != nullptr);
    CHILLER_CHECK(num_engines_ >= 1);
  }

  const char* name() const override { return "hash-affinity"; }

  uint32_t Classify(const txn::Transaction& t) const override {
    RecordId hot;
    if (!FirstHotRecord(t, *partitioner_, &hot)) return kColdClass;
    return ClassOfRecord(hot, classes_);
  }

  EngineId Route(const txn::Transaction& t, uint32_t cls,
                 EngineId arrival) const override {
    if (cls == kColdClass) return arrival;
    RecordId hot;
    if (!FirstHotRecord(t, *partitioner_, &hot)) return arrival;
    return static_cast<EngineId>(partitioner_->PartitionOf(hot) %
                                 num_engines_);
  }

 private:
  uint32_t num_engines_;
  uint32_t classes_;
  const partition::RecordPartitioner* partitioner_;
};

}  // namespace

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

SchedulerRegistry& SchedulerRegistry::Global() {
  static SchedulerRegistry* registry = [] {
    auto* r = new SchedulerRegistry();
    auto must = [](const Status& st) {
      CHILLER_CHECK(st.ok()) << st.ToString();
    };
    must(r->Register("fifo", [](const SchedulerContext&)
                                 -> StatusOr<std::unique_ptr<Scheduler>> {
      return std::unique_ptr<Scheduler>(std::make_unique<FifoScheduler>());
    }));
    must(r->Register(
        "hash-affinity",
        [](const SchedulerContext& ctx)
            -> StatusOr<std::unique_ptr<Scheduler>> {
          if (ctx.partitioner == nullptr) {
            return Status::InvalidArgument(
                "hash-affinity needs a partitioner (the heat source)");
          }
          return std::unique_ptr<Scheduler>(
              std::make_unique<HashAffinityScheduler>(ctx));
        }));
    return r;
  }();
  return *registry;
}

Status SchedulerRegistry::Register(const std::string& name,
                                   SchedulerFactory factory) {
  std::lock_guard<std::mutex> lock(mu_);
  if (factories_.contains(name)) {
    return Status::FailedPrecondition("scheduler '" + name +
                                      "' already registered");
  }
  factories_[name] = std::move(factory);
  return Status::OK();
}

StatusOr<std::unique_ptr<Scheduler>> SchedulerRegistry::Make(
    const std::string& name, const SchedulerContext& ctx) const {
  SchedulerFactory factory;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = factories_.find(name);
    if (it == factories_.end()) {
      return Status::InvalidArgument("unknown scheduler '" + name +
                                     "' (known: " + JoinNames(NamesLocked()) +
                                     ")");
    }
    factory = it->second;
  }
  return factory(ctx);
}

bool SchedulerRegistry::Has(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return factories_.contains(name);
}

std::vector<std::string> SchedulerRegistry::Names() const {
  std::lock_guard<std::mutex> lock(mu_);
  return NamesLocked();
}

std::vector<std::string> SchedulerRegistry::NamesLocked() const {
  std::vector<std::string> names;
  names.reserve(factories_.size());
  for (const auto& [name, factory] : factories_) names.push_back(name);
  return names;
}

// ---------------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------------

Status ValidateSchedulerName(const std::string& scheduler) {
  if (!SchedulerRegistry::Global().Has(scheduler)) {
    return Status::InvalidArgument(
        "unknown scheduler '" + scheduler +
        "' (known: " + JoinNames(SchedulerRegistry::Global().Names()) + ")");
  }
  return Status::OK();
}

Status ValidateSchedulerParams(const std::string& scheduler,
                               const std::string& load_model) {
  Status st = ValidateSchedulerName(scheduler);
  if (!st.ok()) return st;
  if (scheduler == "hash-affinity" && load_model != "open") {
    return Status::InvalidArgument(
        "scheduler 'hash-affinity' steers an admission queue and needs the "
        "open load model (got '" + load_model +
        "'); use --load-model=open with --offered-tps");
  }
  return Status::OK();
}

}  // namespace chiller::schedule
