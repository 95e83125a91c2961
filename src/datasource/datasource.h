#ifndef SCOOP_DATASOURCE_DATASOURCE_H_
#define SCOOP_DATASOURCE_DATASOURCE_H_

#include <string>
#include <vector>

#include "columnar/record_batch.h"
#include "common/result.h"
#include "datasource/partitioner.h"
#include "sql/agg_wire.h"
#include "sql/schema.h"
#include "sql/source_filter.h"
#include "sql/value.h"

namespace scoop {

// The Data Sources API (paper §III-A / §V-A), mirrored from Spark SQL.
// A relation exposes its schema and one or more scan flavours; the engine
// picks the richest one the relation implements:
//
//   TableScan          — return everything.
//   PrunedScan         — return only the required columns.
//   PrunedFilteredScan — additionally receive the selection filters, and
//                        *may* evaluate them (sources are allowed to
//                        return unfiltered rows; the engine re-applies
//                        filters compute-side unless the scan reports
//                        them as handled).
//
// Partition-level access (PartitionedRelation) is what the distributed
// executor drives; the whole-relation Scan methods are convenience
// wrappers over it.

// Everything the engine can push into one partition scan: the classic
// projection/selection hints plus the aggregation/limit extensions. A
// source is free to honor only the parts it understands — the result
// reports what actually happened (filter_applied, agg_applied,
// limit_applied) and the engine compensates compute-side.
struct ScanSpec {
  std::vector<std::string> required_columns;
  SourceFilter filter = SourceFilter::True();
  // When set, the source may fold the partition into per-group partial
  // AggStates (PartitionScanResult::agg_groups) instead of rows. The
  // pointer must outlive the scan; it is owned by the PhysicalPlan.
  const AggPushdownSpec* aggregate = nullptr;
  // >= 0: the driver needs only this many selection-surviving rows from
  // this partition; the source may stop scanning (and transferring) once
  // it has them. Only meaningful without `aggregate`.
  int64_t limit = -1;
};

struct PartitionScanResult {
  // Typed RecordBatches in required-column order.
  std::vector<RecordBatch> batches;
  // True when the source already applied the selection filter exactly.
  bool filter_applied = false;
  // Aggregation pushdown: when `agg_applied` the partition arrived as
  // per-group partial AggStates — `batches` stays empty and
  // `agg_rows` counts the selection-surviving rows folded into the
  // states (the scan's contribution to rows_seen/rows_passed).
  std::vector<AggPartialGroup> agg_groups;
  int64_t agg_rows = 0;
  bool agg_applied = false;
  // True when the store stopped this scan early at the LIMIT cap.
  bool limit_applied = false;
  // Bytes that crossed the store->compute link for this partition.
  uint64_t bytes_transferred = 0;
  // Bytes of raw data the partition covers at rest.
  uint64_t raw_bytes = 0;
  // GET requests issued.
  int requests = 0;

  int64_t TotalRows() const {
    int64_t n = 0;
    for (const RecordBatch& b : batches) n += b.num_rows();
    return n;
  }
};

class BaseRelation {
 public:
  virtual ~BaseRelation() = default;
  virtual const Schema& schema() const = 0;
};

class TableScan : public virtual BaseRelation {
 public:
  // All rows, full schema.
  virtual Result<std::vector<Row>> Scan() = 0;
};

class PrunedScan : public virtual BaseRelation {
 public:
  // All rows, pruned to `required_columns` (in that order).
  virtual Result<std::vector<Row>> ScanPruned(
      const std::vector<std::string>& required_columns) = 0;
};

class PrunedFilteredScan : public virtual BaseRelation {
 public:
  // Pruned and (best-effort) filtered rows. `filter_applied` reports
  // whether `filter` was evaluated exactly by the source.
  virtual Result<std::vector<Row>> ScanPrunedFiltered(
      const std::vector<std::string>& required_columns,
      const SourceFilter& filter, bool* filter_applied) = 0;
};

class PartitionedRelation : public virtual BaseRelation {
 public:
  // Partition discovery (runs before the query is known, §V-B).
  virtual Result<std::vector<Partition>> Partitions() = 0;

  // Scans one partition with every pushdown hint in `spec`; a source
  // ignores the hints it cannot honor and reports what it applied.
  virtual Result<PartitionScanResult> ScanPartition(const Partition& partition,
                                                    const ScanSpec& spec) = 0;
};

}  // namespace scoop

#endif  // SCOOP_DATASOURCE_DATASOURCE_H_
