#include "datasource/parquet_source.h"

#include "datasource/parquet_format.h"

namespace scoop {

Result<std::vector<Partition>> ParquetDataSource::Partitions() {
  SCOOP_ASSIGN_OR_RETURN(std::vector<ObjectInfo> objects,
                         client_->ListObjects(container_, prefix_));
  std::vector<Partition> partitions;
  int index = 0;
  for (const ObjectInfo& object : objects) {
    if (object.size == 0) continue;
    Partition p;
    p.index = index++;
    p.container = container_;
    p.object = object.name;
    p.first = 0;
    p.last = object.size - 1;
    p.object_size = object.size;
    partitions.push_back(std::move(p));
  }
  return partitions;
}

Result<PartitionScanResult> ParquetDataSource::ScanPartition(
    const Partition& partition, const ScanSpec& spec) {
  PartitionScanResult result;
  result.raw_bytes = partition.length();
  result.filter_applied = false;  // row filters always re-run compute-side

  SCOOP_ASSIGN_OR_RETURN(std::string data,
                         client_->GetObject(partition.container,
                                            partition.object));
  result.bytes_transferred = data.size();
  result.requests = 1;

  if (stats_skipping_ && !spec.filter.IsTrue()) {
    SCOOP_ASSIGN_OR_RETURN(ParquetInfo info, ParquetInspect(data));
    if (ParquetCanSkip(spec.filter, info.schema, info.stats)) {
      return result;  // provably empty: decode nothing
    }
  }
  SCOOP_ASSIGN_OR_RETURN(RecordBatch batch,
                         ParquetDecodeBatch(data, spec.required_columns));
  result.batches.push_back(std::move(batch));
  return result;
}

Result<std::vector<Row>> ParquetDataSource::ScanPruned(
    const std::vector<std::string>& required_columns) {
  SCOOP_ASSIGN_OR_RETURN(std::vector<Partition> partitions, Partitions());
  ScanSpec spec;
  spec.required_columns = required_columns;
  std::vector<Row> rows;
  for (const Partition& partition : partitions) {
    SCOOP_ASSIGN_OR_RETURN(PartitionScanResult scan,
                           ScanPartition(partition, spec));
    for (const RecordBatch& batch : scan.batches) {
      for (int64_t i = 0; i < batch.num_rows(); ++i) {
        batch.ExtractRow(i, &rows.emplace_back());
      }
    }
  }
  return rows;
}

Result<std::vector<Row>> ParquetDataSource::Scan() {
  std::vector<std::string> all;
  for (const Column& column : schema_.columns()) all.push_back(column.name);
  return ScanPruned(all);
}

Status WriteParquetObject(SwiftClient* client, const std::string& container,
                          const std::string& object, const Schema& schema,
                          const std::vector<Row>& rows) {
  SCOOP_ASSIGN_OR_RETURN(std::string data, ParquetEncode(schema, rows));
  return client->PutObject(container, object, std::move(data));
}

}  // namespace scoop
