// Micro-benchmarks (google-benchmark) of the hot code paths behind the
// figure-scale results: LIKE matching, CSV parsing, the CSVStorlet in its
// row-discard / column-projection / mixed modes (the mechanism behind the
// Fig. 5 row-vs-column gap), ring lookups, the LZ codec, the parquet-like
// codec, SQL parsing/planning, and a chunk-size ablation of the real
// end-to-end query path (§VII's partitioning discussion).
#include <benchmark/benchmark.h>

#include "common/bytestream.h"
#include "common/strings.h"
#include "csv/batch_reader.h"
#include "csv/csv_storlet.h"
#include "common/lz.h"
#include "datasource/parquet_format.h"
#include "objectstore/ring.h"
#include "bench/bench_util.h"
#include "sql/executor.h"
#include "sql/parser.h"
#include "tests/reference/scalar_row_reader.h"
#include "workload/generator.h"
#include "workload/queries.h"

namespace scoop {
namespace {

std::string SampleCsv(int rows) {
  GridPocketGenerator generator({.num_meters = 50,
                                 .readings_per_meter = rows / 50 + 1,
                                 .seed = 1});
  std::string csv;
  generator.AppendCsv(0, rows, &csv);
  return csv;
}

void BM_LikeMatch(benchmark::State& state) {
  std::string text = "2015-01-17 10:20:00";
  std::string pattern = "2015-01-%";
  for (auto _ : state) {
    benchmark::DoNotOptimize(LikeMatch(text, pattern));
  }
}
BENCHMARK(BM_LikeMatch);

void BM_LikeMatchBacktracking(benchmark::State& state) {
  std::string text(200, 'a');
  std::string pattern = "%a%b";
  for (auto _ : state) {
    benchmark::DoNotOptimize(LikeMatch(text, pattern));
  }
}
BENCHMARK(BM_LikeMatchBacktracking);

// The retired row-at-a-time engine (tests/reference/), kept as the
// reference arm of the columnar ablation.
void BM_CsvParseRowReference(benchmark::State& state) {
  std::string csv = SampleCsv(20000);
  Schema schema = GridPocketGenerator::MeterSchema();
  for (auto _ : state) {
    ScalarRowReader reader(csv, &schema);
    Row row;
    int64_t n = 0;
    while (reader.Next(&row)) ++n;
    benchmark::DoNotOptimize(n);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(csv.size()));
}
BENCHMARK(BM_CsvParseRowReference);

void RunCsvBatchParse(benchmark::State& state, bool dictionary) {
  std::string csv = SampleCsv(20000);
  Schema schema = GridPocketGenerator::MeterSchema();
  CsvBatchOptions options;
  options.dictionary = dictionary;
  for (auto _ : state) {
    CsvBatchReader reader(csv, &schema, options);
    RecordBatch batch;
    int64_t n = 0;
    while (reader.Next(&batch)) n += batch.num_rows();
    benchmark::DoNotOptimize(n);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(csv.size()));
}

void BM_CsvBatchParse(benchmark::State& state) {
  RunCsvBatchParse(state, /*dictionary=*/true);
}
BENCHMARK(BM_CsvBatchParse);

void BM_CsvBatchParseNoDict(benchmark::State& state) {
  RunCsvBatchParse(state, /*dictionary=*/false);
}
BENCHMARK(BM_CsvBatchParseNoDict);

// The CSVStorlet in its three Fig. 5 modes.
void RunStorletBenchmark(benchmark::State& state, StorletParams params) {
  std::string csv = SampleCsv(20000);
  params["schema"] = GridPocketGenerator::MeterSchema().ToSpec();
  for (auto _ : state) {
    CsvStorlet storlet;
    StorletInputStream in(csv);
    StorletOutputStream out;
    StorletLogger logger;
    Status s = storlet.Invoke(in, out, params, logger);
    if (!s.ok()) state.SkipWithError(s.ToString().c_str());
    benchmark::DoNotOptimize(out.bytes_written());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(csv.size()));
}

void BM_CsvStorletRowDiscard(benchmark::State& state) {
  RunStorletBenchmark(state,
                      {{"selection", "(like date \"2015-01-01%\")"}});
}
BENCHMARK(BM_CsvStorletRowDiscard);

void BM_CsvStorletColumnProjection(benchmark::State& state) {
  RunStorletBenchmark(state, {{"projection", "vid,index"}});
}
BENCHMARK(BM_CsvStorletColumnProjection);

void BM_CsvStorletMixed(benchmark::State& state) {
  RunStorletBenchmark(state,
                      {{"selection", "(like date \"2015-01-01%\")"},
                       {"projection", "vid,index"}});
}
BENCHMARK(BM_CsvStorletMixed);

void BM_CsvStorletIdentity(benchmark::State& state) {
  RunStorletBenchmark(state, {});
}
BENCHMARK(BM_CsvStorletIdentity);

void BM_RingLookup(benchmark::State& state) {
  std::vector<RingDevice> devices;
  for (int n = 0; n < 29; ++n) {
    for (int d = 0; d < 10; ++d) {
      RingDevice dev;
      dev.node = n;
      dev.zone = n % 5;
      devices.push_back(dev);
    }
  }
  auto ring = Ring::Build(devices, 12, 3);
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ring->GetNodes("/acct/cont/object-" + std::to_string(++i)));
  }
}
BENCHMARK(BM_RingLookup);

void BM_LzCompress(benchmark::State& state) {
  std::string csv = SampleCsv(20000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(LzCompress(csv));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(csv.size()));
}
BENCHMARK(BM_LzCompress);

void BM_LzDecompress(benchmark::State& state) {
  std::string csv = SampleCsv(20000);
  std::string compressed = LzCompress(csv);
  for (auto _ : state) {
    benchmark::DoNotOptimize(LzDecompress(compressed));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(csv.size()));
}
BENCHMARK(BM_LzDecompress);

void BM_ParquetEncode(benchmark::State& state) {
  GridPocketGenerator generator({.num_meters = 50,
                                 .readings_per_meter = 200,
                                 .seed = 1});
  Schema schema = GridPocketGenerator::MeterSchema();
  std::vector<Row> rows = generator.MakeAllRows();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ParquetEncode(schema, rows));
  }
}
BENCHMARK(BM_ParquetEncode);

void BM_ParquetDecodePruned(benchmark::State& state) {
  GridPocketGenerator generator({.num_meters = 50,
                                 .readings_per_meter = 200,
                                 .seed = 1});
  Schema schema = GridPocketGenerator::MeterSchema();
  auto encoded = ParquetEncode(schema, generator.MakeAllRows());
  std::vector<std::string> projection = {"vid", "index"};
  for (auto _ : state) {
    benchmark::DoNotOptimize(ParquetDecodeBatch(*encoded, projection));
  }
}
BENCHMARK(BM_ParquetDecodePruned);

void BM_SqlParse(benchmark::State& state) {
  const std::string& sql = GridPocketQueries()[0].sql;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ParseSql(sql));
  }
}
BENCHMARK(BM_SqlParse);

void BM_SqlPlan(benchmark::State& state) {
  auto stmt = ParseSql(GridPocketQueries()[0].sql);
  Schema schema = GridPocketGenerator::MeterSchema();
  for (auto _ : state) {
    benchmark::DoNotOptimize(PhysicalPlan::Create(*stmt, schema));
  }
}
BENCHMARK(BM_SqlPlan);

// The engine pipeline on the Fig. 5 selectivity workload (CSVStorlet
// with a row-discarding predicate). The peak_buffered_bytes counter shows
// the memory story: the bounded queues hold O(chunk_size x
// pipeline_depth), never the object.
void BM_PushdownPipelineStreaming(benchmark::State& state) {
  static std::unique_ptr<ScoopCluster>* cluster = [] {
    auto created = ScoopCluster::Create();
    if (!created.ok()) std::abort();
    return new std::unique_ptr<ScoopCluster>(std::move(created).value());
  }();
  std::string csv = SampleCsv(100000);
  StorletParams params = {
      {"schema", GridPocketGenerator::MeterSchema().ToSpec()},
      {"selection", "(like date \"2015-01-01%\")"}};
  std::vector<StorletInvocation> invocations = {{"csvstorlet", params}};
  StorletEngine& engine = (*cluster)->engine();
  Gauge* gauge = (*cluster)->metrics().GetGauge("storlet.buffered_bytes");
  gauge->Reset();

  for (auto _ : state) {
    auto pipeline = engine.RunPipelineStreaming(
        "acct", "data", invocations,
        std::make_shared<StringByteStream>(csv, engine.chunk_size()));
    if (!pipeline.ok()) {
      state.SkipWithError(pipeline.status().ToString().c_str());
      break;
    }
    auto output = pipeline->output->ReadAll();
    if (!output.ok()) {
      state.SkipWithError(output.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(output->size());
  }
  state.counters["peak_buffered_bytes"] =
      benchmark::Counter(static_cast<double>(gauge->peak()));
  state.counters["object_bytes"] =
      benchmark::Counter(static_cast<double>(csv.size()));
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(csv.size()));
}
BENCHMARK(BM_PushdownPipelineStreaming);

// Chunk-size ablation over the real end-to-end path: smaller chunks mean
// more tasks, more GETs and more record-alignment overhead (§VII argues
// the HDFS chunk size is not natural for object stores).
void BM_EndToEndChunkSize(benchmark::State& state) {
  static bench::MiniDeployment* deployment = [] {
    return new bench::MiniDeployment(bench::MakeMiniDeployment(20, 1500, 3));
  }();
  CsvSourceOptions options;
  options.chunk_size = static_cast<uint64_t>(state.range(0));
  deployment->session->RegisterCsvTable("benchMeter", "meters", "m",
                                        deployment->schema, true, options);
  for (auto _ : state) {
    auto outcome = deployment->session->Sql(
        "SELECT vid, sum(index) as s FROM benchMeter "
        "WHERE city LIKE 'Rotterdam' GROUP BY vid ORDER BY vid");
    if (!outcome.ok()) state.SkipWithError("query failed");
    benchmark::DoNotOptimize(outcome->table.rows.size());
  }
}
BENCHMARK(BM_EndToEndChunkSize)
    ->Arg(8 * 1024)
    ->Arg(64 * 1024)
    ->Arg(512 * 1024)
    ->Arg(4 * 1024 * 1024);

}  // namespace
}  // namespace scoop

BENCHMARK_MAIN();
