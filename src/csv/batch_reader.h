// The vectorized CSV scan path: one structural SIMD/SWAR pass finds
// every delimiter, then fields are parsed straight into column vectors —
// no per-row Row allocation, no per-field find(). Semantics are
// bit-compatible with the frozen row-at-a-time reference scanner in
// tests/reference/ (blank-line skipping, CR stripping, quoted-field
// unescaping, malformed accounting); the equivalence suite in
// tests/csv_test.cc holds the two together.
#ifndef SCOOP_CSV_BATCH_READER_H_
#define SCOOP_CSV_BATCH_READER_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "columnar/record_batch.h"
#include "columnar/schema.h"

namespace scoop {

class StorletInputStream;

struct CsvBatchOptions {
  int64_t max_batch_rows = kDefaultBatchRows;
  // Dictionary-encode low-cardinality string columns while building
  // typed batches.
  bool dictionary = true;
  // Stream scanning (CsvStreamBatcher): bytes buffered per scan window.
  // Windows are always cut at record boundaries, so this only bounds
  // memory, never splits a record.
  size_t window_bytes = 256 * 1024;
};

// Walks a fully-buffered window using the structural scan, yielding one
// record at a time as unescaped field views. Blank lines are skipped,
// trailing '\r' stripped, and records containing quotes take an
// unescaping path that mirrors CsvRecordParser exactly (the equivalence
// tests pin the two together).
class CsvRecordCursor {
 public:
  explicit CsvRecordCursor(std::string_view data);

  // Advances to the next non-empty record; false at end of window.
  bool Advance();

  // Field views are valid for the cursor's lifetime (unescaped quoted
  // fields live in a cursor-owned arena, plain fields in the window).
  const std::vector<std::string_view>& fields() const { return fields_; }
  // The CR-stripped raw record bytes (for verbatim pass-through).
  std::string_view record() const { return record_; }

 private:
  void ParseQuoted(std::string_view line);

  std::string_view data_;
  std::vector<uint32_t> structural_;  // tagged offsets, see columnar/simd.h
  size_t token_ = 0;                  // next structural token
  size_t pos_ = 0;                    // start of next record
  std::string_view record_;
  std::vector<std::string_view> fields_;
  std::vector<uint32_t> commas_;     // scratch: comma offsets of one record
  std::deque<std::string> owned_;    // unescaped quoted fields, per window
};

// Scan statistics shared by the batch readers. `malformed_rows` counts
// field-count mismatches (skipped).
struct CsvScanStats {
  int64_t rows_read = 0;
  int64_t malformed_rows = 0;
  int64_t batches = 0;
  uint64_t scanned_bytes = 0;
};

// Streams typed RecordBatches out of a fully-buffered CSV object slice.
class CsvBatchReader {
 public:
  CsvBatchReader(std::string_view data, const Schema* schema,
                 CsvBatchOptions options = CsvBatchOptions());

  // Fills `batch` with up to max_batch_rows typed rows; false at EOF.
  bool Next(RecordBatch* batch);

  const CsvScanStats& stats() const { return stats_; }

 private:
  const Schema* schema_;
  CsvBatchOptions options_;
  CsvRecordCursor cursor_;
  CsvScanStats stats_;
};

// One scanned batch of raw (untyped) records for the storlet filters:
// unescaped field views plus the original record bytes.
struct RawRecordBatch {
  int64_t num_rows = 0;
  size_t num_fields = 0;
  // Row-major: fields[row * num_fields + col].
  std::vector<std::string_view> fields;
  // CR-stripped original record bytes, for verbatim selection output.
  std::vector<std::string_view> records;
};

// Batch scanning over a pull-based storlet input stream with a bounded
// window: bytes are buffered up to window_bytes, the window is cut at the
// last complete record, and the tail carries into the next window — so
// records (including quoted fields) are never split however the
// underlying ByteStream re-chunks the transfer.
class CsvStreamBatcher {
 public:
  // `input` is borrowed and must outlive the batcher. `num_fields` is
  // the schema arity used for malformed classification.
  CsvStreamBatcher(StorletInputStream* input, size_t num_fields,
                   CsvBatchOptions options = CsvBatchOptions());

  // Fills `batch` with up to max_batch_rows well-formed records; false
  // at EOF. Views are valid until the next call.
  bool Next(RawRecordBatch* batch);

  // Cumulative counters across all batches so far.
  int64_t malformed_rows() const { return malformed_; }
  // Non-empty records seen, malformed included — the storlets' rows-in.
  int64_t records_seen() const { return records_seen_; }

 private:
  // Loads the next window into buffer_ and rebuilds the cursor. False
  // when the stream is exhausted.
  bool Refill();

  StorletInputStream* input_;
  size_t num_fields_;
  CsvBatchOptions options_;
  std::string buffer_;  // current window
  std::string carry_;   // partial trailing record awaiting the next window
  std::unique_ptr<CsvRecordCursor> cursor_;
  bool eof_ = false;
  int64_t malformed_ = 0;
  int64_t records_seen_ = 0;
};

}  // namespace scoop

#endif  // SCOOP_CSV_BATCH_READER_H_
