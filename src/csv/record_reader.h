#ifndef SCOOP_CSV_RECORD_READER_H_
#define SCOOP_CSV_RECORD_READER_H_

#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "sql/value.h"

namespace scoop {

// Splits one CSV record (a line without its newline) into fields.
// Dialect: comma separator, RFC-4180 double-quote quoting with "" escapes.
// Embedded newlines inside quoted fields are NOT supported — the
// byte-range partitioning protocol (Hadoop text-input splits) requires
// records to be newline-delimited, exactly as in the paper's datasets.
class CsvRecordParser {
 public:
  // Returned views are valid until the next Parse call. The fast path
  // (no quotes anywhere) allocates nothing.
  const std::vector<std::string_view>& Parse(std::string_view line);

 private:
  std::vector<std::string_view> fields_;
  std::deque<std::string> owned_;  // unescaped quoted fields
};

// Appends `fields` to `out` as one CSV record with a trailing newline,
// quoting fields that need it.
void WriteCsvRecord(const std::vector<std::string_view>& fields,
                    std::string* out);

// Renders a typed row as a CSV record.
void WriteCsvRow(const Row& row, std::string* out);

}  // namespace scoop

#endif  // SCOOP_CSV_RECORD_READER_H_
