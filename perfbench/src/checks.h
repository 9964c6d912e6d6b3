// Output-correctness checks on a drained cluster.
#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "cc/cluster.h"
#include "common/random.h"
#include "common/types.h"
#include "partition/lookup_table.h"

namespace perfbench {

/// What the storage pass saw, plus every violated invariant in words.
struct StorageAudit {
  uint64_t primary_records = 0;
  std::vector<std::string> violations;
  /// A seeded sample of (partition, record) pairs present after the run,
  /// for the PartitionStore::Find timing.
  std::vector<std::pair<chiller::PartitionId, chiller::RecordId>> sample;
};

/// Checks, after Driver::Quiesce: no lock held on any primary or replica;
/// every replica equal to its primary; each record of a partitioned table
/// resident in exactly one primary, judged against the live `layout`
/// (`replicated_table`, when set, names the
/// table loaded into every store and is exempt). Samples up to
/// `sample_size` records with `rng` on the way.
StorageAudit AuditStorage(chiller::cc::Cluster* cluster,
                          const chiller::partition::RecordPartitioner& layout,
                          int replicated_table, size_t sample_size,
                          chiller::Rng* rng);

/// TPC-C consistency conditions 1-5 over every primary (the conditions
/// tests/workload_test.cc checks after a mixed run). Appends violations.
void CheckTpccConsistency(chiller::cc::Cluster* cluster,
                          std::vector<std::string>* violations);

/// Host ns per PartitionStore::Find over `sample`, repeated `passes` times.
double TimeFindNs(chiller::cc::Cluster* cluster,
                  const StorageAudit& audit, int passes);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
