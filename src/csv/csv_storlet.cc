#include "csv/csv_storlet.h"

#include <cstdlib>
#include <numeric>

#include "columnar/batch_wire.h"
#include "columnar/record_batch.h"
#include "common/strings.h"
#include "csv/batch_reader.h"
#include "csv/record_reader.h"
#include "sql/source_filter.h"

namespace scoop {

Status CsvStorlet::Invoke(StorletInputStream& input,
                          StorletOutputStream& output,
                          const StorletParams& params, StorletLogger& logger) {
  auto schema_it = params.find("schema");
  if (schema_it == params.end()) {
    return Status::InvalidArgument("csvstorlet requires a 'schema' parameter");
  }
  SCOOP_ASSIGN_OR_RETURN(Schema schema, Schema::FromSpec(schema_it->second));

  // Projection: resolve names to source indices once.
  std::vector<int> projection;
  bool project_all = true;
  auto projection_it = params.find("projection");
  if (projection_it != params.end() &&
      !Trim(projection_it->second).empty()) {
    project_all = false;
    for (std::string_view name : Split(projection_it->second, ',')) {
      int idx = schema.IndexOf(Trim(name));
      if (idx < 0) {
        return Status::NotFound("projection column not in schema: " +
                                std::string(Trim(name)));
      }
      projection.push_back(idx);
    }
  }

  SourceFilter selection = SourceFilter::True();
  auto selection_it = params.find("selection");
  if (selection_it != params.end() && !Trim(selection_it->second).empty()) {
    SCOOP_ASSIGN_OR_RETURN(selection,
                           SourceFilter::Parse(selection_it->second));
  }
  bool has_selection = !selection.IsTrue();

  // LIMIT pushdown: stop after emitting this many selection-surviving
  // rows. Only valid when the driver needs a row *prefix* (no ORDER BY,
  // no aggregation) — the planner decides that; here it is just a cap.
  int64_t limit = -1;
  auto limit_it = params.find("limit");
  if (limit_it != params.end() && !Trim(limit_it->second).empty()) {
    std::string text(Trim(limit_it->second));
    char* end = nullptr;
    limit = std::strtoll(text.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || limit < 0) {
      return Status::InvalidArgument("csvstorlet: bad 'limit' parameter: " +
                                     text);
    }
  }

  auto output_it = params.find("output");
  bool batch_output = output_it != params.end() && output_it->second == "batch";

  // Batched engine: one structural scan per window, selection evaluated
  // over whole RawRecordBatches with a selection vector.
  const std::vector<int>* out_indices = &projection;
  std::vector<int> identity;
  if (project_all) {
    identity.resize(schema.size());
    std::iota(identity.begin(), identity.end(), 0);
    out_indices = &identity;
  }

  // Batch frames carry the RAW (unparsed) projected fields as string
  // columns: the text and batch pipelines then agree byte-for-byte, since
  // consumers parse fields exactly where the text path would have.
  Schema wire_schema;
  if (batch_output) {
    std::vector<Column> cols;
    for (int idx : *out_indices) {
      cols.push_back(Column{schema.column(static_cast<size_t>(idx)).name,
                            ColumnType::kString});
    }
    wire_schema = Schema(std::move(cols));
  }

  CsvStreamBatcher batcher(&input, schema.size());
  RawRecordBatch raw;
  std::vector<uint32_t> selected;
  std::vector<std::string_view> projected;
  std::string scratch;
  int64_t rows_out = 0;
  bool limit_hit = limit == 0;
  // Trivial invocation: identity copy, malformed records included —
  // batching would drop them, and there is nothing to vectorize.
  const bool copy_lines = !batch_output && !has_selection && project_all;
  while (copy_lines && !limit_hit) {
    auto line = input.ReadLine();
    if (!line) break;
    std::string_view record = *line;
    if (!record.empty() && record.back() == '\r') record.remove_suffix(1);
    if (record.empty()) continue;
    output.WriteLine(record);
    limit_hit = ++rows_out == limit;
  }
  while (!copy_lines && !limit_hit && batcher.Next(&raw)) {
    selected.resize(static_cast<size_t>(raw.num_rows));
    std::iota(selected.begin(), selected.end(), 0u);
    if (has_selection) {
      selection.MatchRows(raw.fields.data(), raw.num_fields, schema,
                          &selected);
    }
    if (limit >= 0 &&
        static_cast<int64_t>(selected.size()) > limit - rows_out) {
      selected.resize(static_cast<size_t>(limit - rows_out));
    }
    if (selected.empty()) continue;
    rows_out += static_cast<int64_t>(selected.size());
    if (batch_output) {
      RecordBatch frame_batch(wire_schema, /*dictionary_encode=*/true);
      frame_batch.Reserve(static_cast<int64_t>(selected.size()));
      for (uint32_t r : selected) {
        for (size_t c = 0; c < out_indices->size(); ++c) {
          size_t src = static_cast<size_t>((*out_indices)[c]);
          frame_batch.mutable_column(c)->AppendString(
              raw.fields[r * raw.num_fields + src]);
        }
      }
      frame_batch.set_num_rows(static_cast<int64_t>(selected.size()));
      scratch.clear();
      AppendBatchFrame(frame_batch, &scratch);
      output.Write(scratch);
    } else if (project_all) {
      for (uint32_t r : selected) output.WriteLine(raw.records[r]);
    } else {
      for (uint32_t r : selected) {
        projected.clear();
        for (int idx : projection) {
          projected.push_back(
              raw.fields[r * raw.num_fields + static_cast<size_t>(idx)]);
        }
        scratch.clear();
        WriteCsvRecord(projected, &scratch);
        output.Write(scratch);
      }
    }
    if (limit >= 0 && rows_out >= limit) limit_hit = true;
  }
  int64_t rows_in = copy_lines ? rows_out : batcher.records_seen();
  logger.Emit(StrFormat("csvstorlet: %lld rows in, %lld rows out%s",
                        static_cast<long long>(rows_in),
                        static_cast<long long>(rows_out),
                        batch_output ? " (batch frames)" : ""));
  output.SetMetadata("rows-in", std::to_string(rows_in));
  output.SetMetadata("rows-out", std::to_string(rows_out));
  if (batch_output) output.SetMetadata("output-format", "batch");
  if (limit_hit) output.SetMetadata("limit-hit", "1");
  return Status::OK();
}

}  // namespace scoop
