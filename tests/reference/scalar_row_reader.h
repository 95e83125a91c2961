// The original row-at-a-time CSV scanner, frozen as the reference engine.
// csv_test and chaos_test hold the columnar scanner (src/csv/batch_reader.h)
// to its typed values and malformed accounting, and bench/ablation_columnar
// measures the scan speedup against it. It lives outside src/ so no
// production path can reach it.
#ifndef SCOOP_TESTS_REFERENCE_SCALAR_ROW_READER_H_
#define SCOOP_TESTS_REFERENCE_SCALAR_ROW_READER_H_

#include <cstdint>
#include <string_view>

#include "csv/record_reader.h"
#include "sql/schema.h"
#include "sql/value.h"

namespace scoop {

// Streams typed rows out of a CSV buffer, one line at a time. Blank lines
// are skipped, a trailing '\r' is stripped, and records whose field count
// differs from the schema are counted as malformed and skipped.
class ScalarRowReader {
 public:
  ScalarRowReader(std::string_view data, const Schema* schema)
      : data_(data), schema_(schema) {}

  // Fetches the next row into `row`; false at end of input.
  bool Next(Row* row);

  int64_t malformed_rows() const { return malformed_; }
  int64_t rows_read() const { return rows_; }

 private:
  std::string_view data_;
  const Schema* schema_;
  size_t pos_ = 0;
  int64_t malformed_ = 0;
  int64_t rows_ = 0;
  CsvRecordParser parser_;
};

}  // namespace scoop

#endif  // SCOOP_TESTS_REFERENCE_SCALAR_ROW_READER_H_
