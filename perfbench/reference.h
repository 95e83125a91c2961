// Reference results for the Table I queries, computed apart from the
// program's SQL, storage and storlet code: rows come straight from
// GridPocketGenerator::MakeRow, pass through the CSV text rendering the
// generator stores ("%.6g" for doubles), and are filtered, grouped,
// aggregated and ordered by the small hand-written evaluator in
// reference.cc. The checker compares a program result with a reference
// result exactly: same row count, same order, same value types and values.
#ifndef SCOOP_PERFBENCH_REFERENCE_H_
#define SCOOP_PERFBENCH_REFERENCE_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "sql/executor.h"
#include "workload/generator.h"

namespace perfbench {

// One result value as the reference sees it.
using RefValue = std::variant<int64_t, double, std::string>;
using RefRow = std::vector<RefValue>;
using RefTable = std::vector<RefRow>;

// A Table I query variant: base index into scoop::GridPocketQueries()
// and the month (1..12) substituted into its date filters.
struct VariantId {
  int base = 0;
  int month = 1;
  bool operator==(const VariantId&) const = default;
};

// Evaluates every requested variant over the whole generated dataset in a
// single pass. Returns one table per entry of `variants`, in that order.
std::vector<RefTable> ComputeReference(const scoop::GridPocketGenerator& gen,
                                       const std::vector<VariantId>& variants);

// The reference evaluator's LIKE: '%' matches any run, '_' one byte.
bool LikeMatch(std::string_view value, std::string_view pattern);

// Exact comparison of a program result with a reference table. Returns an
// empty string when they agree, otherwise a description of the first
// difference.
std::string CompareResult(const scoop::ResultTable& got, const RefTable& want);

// Exact comparison of two program results (row order, types and values).
bool SameResult(const scoop::ResultTable& a, const scoop::ResultTable& b);

}  // namespace perfbench

#endif  // SCOOP_PERFBENCH_REFERENCE_H_
