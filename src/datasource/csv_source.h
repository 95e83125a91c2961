#ifndef SCOOP_DATASOURCE_CSV_SOURCE_H_
#define SCOOP_DATASOURCE_CSV_SOURCE_H_

#include <memory>
#include <string>

#include "datasource/datasource.h"
#include "datasource/stocator.h"

namespace scoop {

// Options of the Spark-CSV-like data source.
struct CsvSourceOptions {
  // Partition chunk size ("HDFS chunk size" of §V-B).
  uint64_t chunk_size = 4 * 1024 * 1024;
  // When true, GETs carry the CSVStorlet pushdown task; when false the
  // source reads raw ranges and everything is filtered compute-side (the
  // vanilla ingest-then-compute baseline).
  bool pushdown_enabled = true;
  // §VI-C: compress the filtered stream for transfer (needs pushdown).
  bool compress_transfer = false;
  // Aggregation pushdown (needs pushdown): GETs for eligible GROUP BY
  // queries run the GroupAggStorlet and ship back partial AggStates.
  bool agg_pushdown_enabled = true;
  // LIMIT pushdown (needs pushdown): eligible prefix queries cap the
  // store-side scan at the limit.
  bool limit_pushdown_enabled = true;
  // §VII object-aware partitioning instead of fixed chunk size.
  bool object_aware_partitioning = false;
  int target_parallelism = 8;
  uint64_t min_partition_bytes = 256 * 1024;
};

// The extended Spark-CSV data source: implements PrunedFilteredScan by
// delegating projections and selections to OpenStack Swift through
// Stocator (paper §V-A). Objects under container/prefix hold headerless
// CSV with `schema` columns.
class CsvDataSource : public PrunedFilteredScan,
                      public PrunedScan,
                      public TableScan,
                      public PartitionedRelation {
 public:
  CsvDataSource(Stocator* stocator, std::string container, std::string prefix,
                Schema schema, CsvSourceOptions options)
      : stocator_(stocator),
        container_(std::move(container)),
        prefix_(std::move(prefix)),
        schema_(std::move(schema)),
        options_(options) {}

  const Schema& schema() const override { return schema_; }
  const CsvSourceOptions& options() const { return options_; }

  Result<std::vector<Partition>> Partitions() override;

  // Honors ScanSpec::aggregate (partial aggregation at the store,
  // SAG1-decoded into agg_groups) and ScanSpec::limit; both degrade to
  // the batch scan when pushdown declines or faults.
  Result<PartitionScanResult> ScanPartition(const Partition& partition,
                                            const ScanSpec& spec) override;

  Result<std::vector<Row>> Scan() override;
  Result<std::vector<Row>> ScanPruned(
      const std::vector<std::string>& required_columns) override;
  Result<std::vector<Row>> ScanPrunedFiltered(
      const std::vector<std::string>& required_columns,
      const SourceFilter& filter, bool* filter_applied) override;

 private:
  Stocator* stocator_;
  std::string container_;
  std::string prefix_;
  Schema schema_;
  CsvSourceOptions options_;
};

}  // namespace scoop

#endif  // SCOOP_DATASOURCE_CSV_SOURCE_H_
