#include "simnet/calibration.h"

#include "common/metrics.h"
#include "csv/batch_reader.h"
#include "csv/csv_storlet.h"
#include "common/lz.h"
#include "datasource/parquet_format.h"
#include "workload/generator.h"

namespace scoop {

namespace {

Result<double> TimeStorlet(const std::string& data,
                           const StorletParams& params) {
  CsvStorlet storlet;
  StorletInputStream in(data);
  StorletOutputStream out;
  StorletLogger logger;
  Stopwatch watch;
  SCOOP_RETURN_IF_ERROR(storlet.Invoke(in, out, params, logger));
  double seconds = watch.ElapsedSeconds();
  if (seconds <= 0.0) seconds = 1e-9;
  return static_cast<double>(data.size()) / seconds / 1e6;
}

}  // namespace

Result<CalibrationReport> RunCalibration(size_t sample_rows) {
  GeneratorConfig config;
  config.num_meters = 100;
  config.readings_per_meter =
      static_cast<int>(sample_rows / 100 + 1);
  GridPocketGenerator generator(config);
  Schema schema = GridPocketGenerator::MeterSchema();

  std::string csv;
  generator.AppendCsv(0, generator.TotalRows(), &csv);

  CalibrationReport report;

  StorletParams params;
  params["schema"] = schema.ToSpec();
  params["selection"] = "(like date \"2015-01-0%\")";
  params["projection"] = "vid,date,index";
  SCOOP_ASSIGN_OR_RETURN(report.storlet_filter_MBps,
                         TimeStorlet(csv, params));

  StorletParams rowdrop = params;
  rowdrop.erase("projection");
  SCOOP_ASSIGN_OR_RETURN(report.storlet_rowdrop_MBps,
                         TimeStorlet(csv, rowdrop));

  {
    Stopwatch watch;
    CsvBatchReader reader(csv, &schema);
    RecordBatch batch;
    int64_t n = 0;
    while (reader.Next(&batch)) n += batch.num_rows();
    double seconds = std::max(watch.ElapsedSeconds(), 1e-9);
    report.spark_parse_MBps = static_cast<double>(csv.size()) / seconds / 1e6;
    if (n == 0) return Status::Internal("calibration parsed no rows");
  }

  {
    std::vector<Row> rows = generator.MakeAllRows();
    SCOOP_ASSIGN_OR_RETURN(std::string encoded, ParquetEncode(schema, rows));
    report.parquet_compression_ratio =
        static_cast<double>(encoded.size()) / static_cast<double>(csv.size());
    Stopwatch watch;
    SCOOP_ASSIGN_OR_RETURN(RecordBatch decoded,
                           ParquetDecodeBatch(encoded, {}));
    double seconds = std::max(watch.ElapsedSeconds(), 1e-9);
    report.parquet_decode_MBps =
        static_cast<double>(csv.size()) / seconds / 1e6;
    if (decoded.num_rows() != static_cast<int64_t>(rows.size())) {
      return Status::Internal("parquet roundtrip row-count mismatch");
    }
  }

  {
    Stopwatch watch;
    std::string compressed = LzCompress(csv);
    double seconds = std::max(watch.ElapsedSeconds(), 1e-9);
    report.lz_compress_MBps = static_cast<double>(csv.size()) / seconds / 1e6;
    watch.Restart();
    SCOOP_ASSIGN_OR_RETURN(std::string restored, LzDecompress(compressed));
    seconds = std::max(watch.ElapsedSeconds(), 1e-9);
    report.lz_decompress_MBps =
        static_cast<double>(csv.size()) / seconds / 1e6;
    if (restored != csv) return Status::Internal("LZ roundtrip mismatch");
  }
  return report;
}

}  // namespace scoop
