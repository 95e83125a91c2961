#ifndef SCOOP_DATASOURCE_PARQUET_FORMAT_H_
#define SCOOP_DATASOURCE_PARQUET_FORMAT_H_

#include <optional>
#include <string>
#include <vector>

#include "columnar/record_batch.h"
#include "common/result.h"
#include "sql/schema.h"
#include "sql/source_filter.h"
#include "sql/value.h"

namespace scoop {

// A columnar, compressed, self-describing object format playing Apache
// Parquet's role in the Fig. 8 comparison. One object = one row group.
//
// Properties matching what the comparison depends on:
//  * columnar layout  -> readers decode only the projected columns;
//  * per-column LZ compression (+ dictionary encoding for low-cardinality
//    columns) -> smaller network transfers;
//  * per-column min/max statistics -> whole objects can be skipped when a
//    predicate provably cannot match.
//
// Layout: magic "SPQ1", u32 column count, u64 row count, then per column a
// header (name, type, encoding, sizes, min/max stats) followed by the
// compressed data block. Readers skip unprojected blocks by size.

struct ParquetColumnStats {
  // Display-form min/max of non-null values; empty when all null.
  std::string min;
  std::string max;
  bool has_values = false;
};

// Encodes `rows` (typed per `schema`) into the columnar format.
Result<std::string> ParquetEncode(const Schema& schema,
                                  const std::vector<Row>& rows);

// Reads the schema and row count without decoding any data.
struct ParquetInfo {
  Schema schema;
  uint64_t rows = 0;
  std::vector<ParquetColumnStats> stats;
};
Result<ParquetInfo> ParquetInspect(std::string_view data);

// Decodes `required_columns` (empty = all) into one RecordBatch in that
// order. Dictionary-encoded string columns come off the wire as
// dictionary column vectors — codes and distinct values, never the
// repeated strings — so the batch evaluator's per-distinct-value fast
// path applies directly.
Result<RecordBatch> ParquetDecodeBatch(
    std::string_view data, const std::vector<std::string>& required_columns);

// True when `filter` provably matches no row of an object with `stats`
// (conservative: false whenever unsure). Enables row-group skipping.
bool ParquetCanSkip(const SourceFilter& filter, const Schema& schema,
                    const std::vector<ParquetColumnStats>& stats);

}  // namespace scoop

#endif  // SCOOP_DATASOURCE_PARQUET_FORMAT_H_
