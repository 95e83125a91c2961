// Columnar-plane ablation (DESIGN.md §3h): the same GridPocket CSV and
// Table I queries executed through three scan engines —
//   row         ScalarRowReader, the original row-at-a-time scanner
//               (frozen in tests/reference/)
//   batch       CsvBatchReader with dictionary encoding off
//   batch+dict  CsvBatchReader as shipped (low-cardinality strings
//               dictionary-encoded, predicate kernels hit the dict path)
// Arm one measures raw scan throughput (typed parse of every column);
// arm two runs each Table I query end to end (scan -> WHERE -> aggregate
// -> finalize) through ProcessRow vs ProcessBatch and asserts the result
// tables are byte-identical before trusting the timings. Emits
// BENCH_ablation_columnar.json with a `scan_speedup` extra that CI gates
// at >= 2.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "columnar/simd.h"
#include "common/metrics.h"
#include "csv/batch_reader.h"
#include "sql/executor.h"
#include "sql/parser.h"
#include "tests/reference/scalar_row_reader.h"
#include "workload/generator.h"
#include "workload/queries.h"

namespace scoop::bench {
namespace {

constexpr int64_t kScanRows = 400000;
constexpr int64_t kQueryRows = 150000;
constexpr int kScanIters = 5;
constexpr int kQueryIters = 3;

std::string MakeCsv(int64_t rows) {
  GeneratorConfig config;
  config.num_meters = 500;
  config.readings_per_meter = static_cast<int>(rows / 500 + 1);
  config.seed = 2015;
  GridPocketGenerator generator(config);
  std::string csv;
  generator.AppendCsv(0, rows, &csv);
  return csv;
}

// --- arm one: typed scan throughput ----------------------------------------

double BestRowScanSeconds(const std::string& csv, const Schema& schema) {
  double best = 1e30;
  for (int i = 0; i < kScanIters; ++i) {
    Stopwatch watch;
    ScalarRowReader reader(csv, &schema);
    Row row;
    int64_t n = 0;
    while (reader.Next(&row)) ++n;
    best = std::min(best, watch.ElapsedSeconds());
    if (n == 0) {
      std::fprintf(stderr, "row scan produced no rows\n");
      std::abort();
    }
  }
  return best;
}

double BestBatchScanSeconds(const std::string& csv, const Schema& schema,
                            bool dictionary, MetricRegistry* metrics) {
  CsvBatchOptions options;
  options.dictionary = dictionary;
  double best = 1e30;
  for (int i = 0; i < kScanIters; ++i) {
    Stopwatch watch;
    CsvBatchReader reader(csv, &schema, options);
    RecordBatch batch;
    int64_t n = 0;
    while (reader.Next(&batch)) n += batch.num_rows();
    best = std::min(best, watch.ElapsedSeconds());
    if (n == 0) {
      std::fprintf(stderr, "batch scan produced no rows\n");
      std::abort();
    }
    // Account the default engine's last iteration, mirroring what
    // datasource/csv_source.cc records on the real scan path.
    if (dictionary && metrics != nullptr && i == kScanIters - 1) {
      const CsvScanStats& stats = reader.stats();
      metrics->GetCounter("csv.batches")->Add(stats.batches);
      if (SimdEnabled()) {
        metrics->GetCounter("csv.simd_bytes")
            ->Add(static_cast<int64_t>(stats.scanned_bytes));
      }
      if (stats.batches > 0) {
        metrics->GetHistogram("scan.rows_per_batch")
            ->Record(stats.rows_read / stats.batches);
      }
    }
  }
  return best;
}

// --- arm two: Table I queries, row vs batch plane --------------------------

struct QueryArmResult {
  std::string csv;  // finalized result table, for the identity check
  double best_seconds = 0.0;
};

QueryArmResult RunRowArm(const std::string& csv, const Schema& schema,
                         const PhysicalPlan& plan,
                         const std::vector<int>& indices) {
  QueryArmResult result;
  result.best_seconds = 1e30;
  for (int i = 0; i < kQueryIters; ++i) {
    Stopwatch watch;
    PartialResult partial;
    ScalarRowReader reader(csv, &schema);
    Row row;
    Row scan_row;
    while (reader.Next(&row)) {
      scan_row.clear();
      for (int idx : indices) scan_row.push_back(row[static_cast<size_t>(idx)]);
      plan.ProcessRow(scan_row, /*filters_already_applied=*/false, &partial);
    }
    auto table = plan.Finalize(std::move(partial));
    if (!table.ok()) {
      std::fprintf(stderr, "row arm: %s\n", table.status().ToString().c_str());
      std::abort();
    }
    result.best_seconds = std::min(result.best_seconds, watch.ElapsedSeconds());
    result.csv = table->ToCsv();
  }
  return result;
}

QueryArmResult RunBatchArm(const std::string& csv, const Schema& schema,
                           const PhysicalPlan& plan,
                           const std::vector<int>& indices, bool dictionary) {
  CsvBatchOptions options;
  options.dictionary = dictionary;
  QueryArmResult result;
  result.best_seconds = 1e30;
  for (int i = 0; i < kQueryIters; ++i) {
    Stopwatch watch;
    PartialResult partial;
    CsvBatchReader reader(csv, &schema, options);
    RecordBatch batch;
    while (reader.Next(&batch)) {
      RecordBatch projected = batch.SelectColumns(plan.scan_schema(), indices);
      plan.ProcessBatch(projected, /*filters_already_applied=*/false, &partial);
    }
    auto table = plan.Finalize(std::move(partial));
    if (!table.ok()) {
      std::fprintf(stderr, "batch arm: %s\n",
                   table.status().ToString().c_str());
      std::abort();
    }
    result.best_seconds = std::min(result.best_seconds, watch.ElapsedSeconds());
    result.csv = table->ToCsv();
  }
  return result;
}

int Main() {
  const Schema schema = GridPocketGenerator::MeterSchema();
  MetricRegistry metrics;

  std::printf("ablation_columnar: SIMD structural scan %s\n",
              SimdEnabled() ? "ENABLED" : "disabled (scalar SWAR)");

  // Arm one: full-schema typed scan throughput.
  const std::string scan_csv = MakeCsv(kScanRows);
  const double mb = static_cast<double>(scan_csv.size()) / (1024.0 * 1024.0);
  const double row_s = BestRowScanSeconds(scan_csv, schema);
  const double batch_s =
      BestBatchScanSeconds(scan_csv, schema, /*dictionary=*/false, nullptr);
  const double dict_s =
      BestBatchScanSeconds(scan_csv, schema, /*dictionary=*/true, &metrics);
  const double scan_speedup = row_s / dict_s;
  const double scan_speedup_nodict = row_s / batch_s;

  std::printf("\nTyped CSV scan, %lld rows (%.1f MiB), best of %d:\n",
              static_cast<long long>(kScanRows), mb, kScanIters);
  TablePrinter scan_table({"engine", "seconds", "MB/s", "speedup"});
  scan_table.AddRow({"row", Fmt("%.3f", row_s), Fmt("%.1f", mb / row_s),
                     "1.00x"});
  scan_table.AddRow({"batch", Fmt("%.3f", batch_s), Fmt("%.1f", mb / batch_s),
                     Fmt("%.2f", scan_speedup_nodict) + "x"});
  scan_table.AddRow({"batch+dict", Fmt("%.3f", dict_s),
                     Fmt("%.1f", mb / dict_s),
                     Fmt("%.2f", scan_speedup) + "x"});
  scan_table.Print();

  // Arm two: the Table I queries end to end, result identity enforced.
  const std::string query_csv = MakeCsv(kQueryRows);
  TablePrinter query_table(
      {"query", "row s", "batch s", "batch+dict s", "speedup"});
  double speedup_log_sum = 0.0;
  int speedup_count = 0;
  for (const GridPocketQuery& q : GridPocketQueries()) {
    auto stmt = ParseSql(q.sql);
    if (!stmt.ok()) {
      std::fprintf(stderr, "%s: %s\n", q.name.c_str(),
                   stmt.status().ToString().c_str());
      std::abort();
    }
    auto plan = PhysicalPlan::Create(*stmt, schema);
    if (!plan.ok()) {
      std::fprintf(stderr, "%s: %s\n", q.name.c_str(),
                   plan.status().ToString().c_str());
      std::abort();
    }
    std::vector<int> indices;
    for (size_t i = 0; i < (*plan)->scan_schema().size(); ++i) {
      indices.push_back(
          schema.IndexOf((*plan)->scan_schema().column(i).name));
    }
    QueryArmResult row_arm = RunRowArm(query_csv, schema, **plan, indices);
    QueryArmResult batch_arm =
        RunBatchArm(query_csv, schema, **plan, indices, /*dictionary=*/false);
    QueryArmResult dict_arm =
        RunBatchArm(query_csv, schema, **plan, indices, /*dictionary=*/true);
    if (batch_arm.csv != row_arm.csv || dict_arm.csv != row_arm.csv) {
      std::fprintf(stderr,
                   "%s: batch plane diverged from row plane\n--- row ---\n%s"
                   "--- batch ---\n%s--- batch+dict ---\n%s",
                   q.name.c_str(), row_arm.csv.c_str(), batch_arm.csv.c_str(),
                   dict_arm.csv.c_str());
      std::abort();
    }
    const double speedup = row_arm.best_seconds / dict_arm.best_seconds;
    speedup_log_sum += std::log(speedup);
    ++speedup_count;
    query_table.AddRow({q.name, Fmt("%.3f", row_arm.best_seconds),
                        Fmt("%.3f", batch_arm.best_seconds),
                        Fmt("%.3f", dict_arm.best_seconds),
                        Fmt("%.2f", speedup) + "x"});
  }
  const double query_geomean =
      speedup_count > 0 ? std::exp(speedup_log_sum / speedup_count) : 0.0;
  std::printf("\nTable I queries, %lld rows, best of %d (results "
              "byte-identical across engines):\n",
              static_cast<long long>(kQueryRows), kQueryIters);
  query_table.Print();
  std::printf("\nscan speedup (batch+dict vs row): %.2fx\n", scan_speedup);
  std::printf("query speedup geomean (batch+dict vs row): %.2fx\n",
              query_geomean);

  EmitBenchJson("ablation_columnar", metrics,
                {{"scan_speedup", scan_speedup},
                 {"scan_speedup_nodict", scan_speedup_nodict},
                 {"scan_row_mb_s", mb / row_s},
                 {"scan_batch_mb_s", mb / batch_s},
                 {"scan_batch_dict_mb_s", mb / dict_s},
                 {"query_speedup_geomean", query_geomean},
                 {"simd_enabled", SimdEnabled() ? 1.0 : 0.0}});
  return 0;
}

}  // namespace
}  // namespace scoop::bench

int main() { return scoop::bench::Main(); }
