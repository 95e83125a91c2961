#ifndef SCOOP_DATASOURCE_PARQUET_SOURCE_H_
#define SCOOP_DATASOURCE_PARQUET_SOURCE_H_

#include <string>

#include "datasource/datasource.h"
#include "objectstore/cluster.h"

namespace scoop {

// Data source over parquet-like columnar objects — the Fig. 8 baseline.
// Mirrors how Spark consumes Parquet from an object store: the whole
// (compressed) object travels to the compute cluster, where the client
// decompresses and prunes columns; row filters stay compute-side (so
// ScanPartition never reports filter_applied). Optional min/max row-group
// skipping avoids transferring objects a predicate cannot match.
class ParquetDataSource : public PrunedScan,
                          public TableScan,
                          public PartitionedRelation {
 public:
  ParquetDataSource(SwiftClient* client, std::string container,
                    std::string prefix, Schema schema,
                    bool stats_skipping = false)
      : client_(client),
        container_(std::move(container)),
        prefix_(std::move(prefix)),
        schema_(std::move(schema)),
        stats_skipping_(stats_skipping) {}

  const Schema& schema() const override { return schema_; }

  // One partition per object (a columnar row group cannot be split by
  // byte range the way CSV text can).
  Result<std::vector<Partition>> Partitions() override;

  // Honors projection and (with stats_skipping) object skipping; the
  // aggregation and limit hints are left to the engine.
  Result<PartitionScanResult> ScanPartition(const Partition& partition,
                                            const ScanSpec& spec) override;

  Result<std::vector<Row>> Scan() override;
  Result<std::vector<Row>> ScanPruned(
      const std::vector<std::string>& required_columns) override;

 private:
  SwiftClient* client_;
  std::string container_;
  std::string prefix_;
  Schema schema_;
  bool stats_skipping_;
};

// Encodes `rows` and uploads them as one parquet-like object.
Status WriteParquetObject(SwiftClient* client, const std::string& container,
                          const std::string& object, const Schema& schema,
                          const std::vector<Row>& rows);

}  // namespace scoop

#endif  // SCOOP_DATASOURCE_PARQUET_SOURCE_H_
