#include "checks.h"

#include <chrono>
#include <map>
#include <unordered_set>

#include "common/logging.h"
#include "workload/tpcc/tpcc_schema.h"

namespace perfbench {

namespace {

using chiller::Key;
using chiller::PartitionId;
using chiller::RecordId;
using chiller::storage::PartitionStore;
using chiller::storage::Record;
namespace tpcc = chiller::workload::tpcc;

std::string Where(const char* what, PartitionId p, const RecordId& rid) {
  std::string s = what;
  s += " partition ";
  s += std::to_string(p);
  s += " record ";
  s += rid.ToString();
  return s;
}

/// A record's fields as "f0,f1,..." ("absent" for no record).
std::string Image(const Record* rec) {
  if (rec == nullptr) return "absent";
  std::string s;
  for (const int64_t f : rec->fields()) {
    if (!s.empty()) s.append(",");
    s.append(std::to_string(f));
  }
  return s;
}

}  // namespace

StorageAudit AuditStorage(chiller::cc::Cluster* cluster,
                          const chiller::partition::RecordPartitioner& layout,
                          int replicated_table, size_t sample_size,
                          chiller::Rng* rng) {
  StorageAudit audit;
  const uint32_t parts = cluster->topology().num_partitions();
  const uint32_t replicas = cluster->topology().num_replicas();
  auto note = [&](std::string v) {
    // Enough to diagnose; a broken invariant usually breaks everywhere.
    if (audit.violations.size() < 20) audit.violations.push_back(std::move(v));
  };

  // Single residency without a cluster-wide key set: a record resident in
  // two primaries is away from the layout's home in at least one of them
  // (one store cannot hold a key twice). So only away records need
  // cross-checking: against their home primary and against each other.
  std::vector<std::pair<PartitionId, RecordId>> away;
  uint64_t seen = 0;
  for (PartitionId p = 0; p < parts; ++p) {
    PartitionStore* primary = cluster->primary(p);
    if (primary->locks_held() != 0) {
      note("locks held on primary " + std::to_string(p));
    }
    for (uint32_t i = 1; i <= replicas; ++i) {
      PartitionStore* replica = cluster->replica(p, i);
      if (replica->locks_held() != 0) {
        note("locks held on replica " + std::to_string(i) + " of " +
             std::to_string(p));
      }
      if (replica->num_records() != primary->num_records()) {
        note("replica " + std::to_string(i) + " of partition " +
             std::to_string(p) + " holds " +
             std::to_string(replica->num_records()) + " records, primary " +
             std::to_string(primary->num_records()));
      }
    }
    audit.primary_records += primary->num_records();
    primary->ForEach([&](const RecordId& rid, const Record& rec) {
      for (uint32_t i = 1; i <= replicas; ++i) {
        Record* copy = cluster->replica(p, i)->Find(rid);
        if (copy == nullptr || copy->fields() != rec.fields()) {
          std::string v = Where("replica differs from primary:", p, rid);
          v.append(" (primary ");
          v.append(Image(&rec));
          v.append(", replica ");
          v.append(std::to_string(i));
          v.append(" ");
          v.append(Image(copy));
          v.append(")");
          note(std::move(v));
        }
      }
      // Reservoir sample for the Find timing (seeded: same seed, same keys).
      ++seen;
      if (audit.sample.size() < sample_size) {
        audit.sample.emplace_back(p, rid);
      } else {
        const uint64_t j = rng->Uniform(seen);
        if (j < sample_size) audit.sample[j] = {p, rid};
      }
      if (static_cast<int>(rid.table) == replicated_table) return;
      if (layout.PartitionOf(rid) != p) away.emplace_back(p, rid);
    });
  }
  std::unordered_set<RecordId, chiller::RecordIdHash> away_keys;
  for (const auto& [p, rid] : away) {
    if (!away_keys.insert(rid).second ||
        cluster->primary(layout.PartitionOf(rid))->Find(rid) != nullptr) {
      note(Where("record resident in more than one primary, at", p, rid));
    }
  }
  return audit;
}

void CheckTpccConsistency(chiller::cc::Cluster* cluster,
                          std::vector<std::string>* violations) {
  std::map<Key, int64_t> w_ytd, d_ytd_sum, d_next;
  std::map<Key, int64_t> orders_per_district, ol_per_district,
      expected_ol_per_district;
  int64_t neworder_rows = 0, undelivered_orders = 0;
  int64_t balances = 0, warehouse_ytd_total = 0, delivered_refunds = 0;
  int64_t customers = 0;

  for (PartitionId p = 0; p < cluster->topology().num_partitions(); ++p) {
    cluster->primary(p)->ForEach([&](const RecordId& rid, const Record& rec) {
      switch (rid.table) {
        case tpcc::kWarehouse:
          w_ytd[rid.key] = rec.Get(tpcc::WarehouseF::kYtd);
          warehouse_ytd_total += rec.Get(tpcc::WarehouseF::kYtd);
          break;
        case tpcc::kDistrict:
          d_ytd_sum[rid.key / tpcc::kDistrictsPerWarehouse] +=
              rec.Get(tpcc::DistrictF::kYtd);
          d_next[rid.key] = rec.Get(tpcc::DistrictF::kNextOid);
          break;
        case tpcc::kOrder: {
          const Key district = rid.key / tpcc::kOrderStride;
          ++orders_per_district[district];
          expected_ol_per_district[district] += rec.Get(tpcc::OrderF::kOlCnt);
          if (rec.Get(tpcc::OrderF::kCarrier) == 0) ++undelivered_orders;
          break;
        }
        case tpcc::kOrderLine: {
          const Key district =
              rid.key / (tpcc::kMaxOrderLines + 1) / tpcc::kOrderStride;
          ++ol_per_district[district];
          if (rec.Get(tpcc::OrderLineF::kDeliveryD) != 0) {
            delivered_refunds += rec.Get(tpcc::OrderLineF::kAmount);
          }
          break;
        }
        case tpcc::kNewOrder:
          ++neworder_rows;
          break;
        case tpcc::kCustomer:
          balances += rec.Get(tpcc::CustomerF::kBalance);
          ++customers;
          break;
        default:
          break;
      }
    });
  }

  auto fail = [&](std::string what) {
    if (violations->size() < 20) violations->push_back(std::move(what));
  };
  // (1) warehouse YTD equals the sum of its districts' YTD.
  for (const auto& [w, ytd] : w_ytd) {
    if (ytd != d_ytd_sum[w]) fail("tpcc (1) warehouse " + std::to_string(w));
  }
  // (2) each district's order count equals D_NEXT_O_ID - 1.
  for (const auto& [district, next] : d_next) {
    if (next - 1 != orders_per_district[district]) {
      fail("tpcc (2) district " + std::to_string(district));
    }
  }
  // (3) order-line rows match the orders' OL_CNT.
  for (const auto& [district, expected] : expected_ol_per_district) {
    if (expected != ol_per_district[district]) {
      fail("tpcc (3) district " + std::to_string(district));
    }
  }
  // (4) undelivered orders carry NEWORDER rows.
  if (neworder_rows != undelivered_orders) fail("tpcc (4) new-order rows");
  // (5) money conservation: Payment moves balance to W_YTD one for one;
  // Delivery refunds the delivered order lines' amount.
  if (balances + warehouse_ytd_total - delivered_refunds != customers * -1000) {
    fail("tpcc (5) money conservation");
  }
}

double TimeFindNs(chiller::cc::Cluster* cluster, const StorageAudit& audit,
                  int passes) {
  if (audit.sample.empty() || passes <= 0) return 0.0;
  uint64_t found = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (int pass = 0; pass < passes; ++pass) {
    for (const auto& [p, rid] : audit.sample) {
      found += cluster->primary(p)->Find(rid) != nullptr;
    }
  }
  const double ns = std::chrono::duration<double, std::nano>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  // Every sampled record was present after the drain and nothing ran since.
  CHILLER_CHECK(found == audit.sample.size() * static_cast<uint64_t>(passes))
      << "sampled record vanished";
  return ns / static_cast<double>(found);
}

}  // namespace perfbench
