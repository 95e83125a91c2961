#include "csv/agg_storlet.h"

#include <cstdlib>
#include <deque>
#include <map>
#include <numeric>

#include "columnar/batch_wire.h"
#include "columnar/record_batch.h"
#include "common/strings.h"
#include "csv/batch_reader.h"
#include "csv/record_reader.h"
#include "sql/agg_wire.h"
#include "sql/aggregates.h"
#include "sql/expr_eval.h"
#include "sql/source_filter.h"

namespace scoop {

namespace {

// One resolved group-key expression of the partials mode: a bare column
// or substr(string-column, pos, len).
struct GroupKeySpec {
  int column_index = -1;
  ColumnType type = ColumnType::kString;
  bool is_substr = false;
  int64_t pos = 0;
  int64_t len = 0;
};

Result<GroupKeySpec> ResolveGroupSpec(const std::string& spec,
                                      const Schema& schema) {
  GroupKeySpec out;
  std::string column = spec;
  if (spec.rfind("substr(", 0) == 0 && spec.back() == ')') {
    std::vector<std::string_view> parts =
        Split(std::string_view(spec).substr(7, spec.size() - 8), ',');
    if (parts.size() != 3) {
      return Status::InvalidArgument("aggstorlet: bad group spec: " + spec);
    }
    char* end = nullptr;
    std::string pos_str(parts[1]), len_str(parts[2]);
    out.pos = std::strtoll(pos_str.c_str(), &end, 10);
    if (end == nullptr || *end != '\0') {
      return Status::InvalidArgument("aggstorlet: bad group spec: " + spec);
    }
    out.len = std::strtoll(len_str.c_str(), &end, 10);
    if (end == nullptr || *end != '\0') {
      return Status::InvalidArgument("aggstorlet: bad group spec: " + spec);
    }
    out.is_substr = true;
    column = std::string(parts[0]);
  }
  out.column_index = schema.IndexOf(column);
  if (out.column_index < 0) {
    return Status::NotFound("group column not in schema: " + column);
  }
  out.type = schema.column(static_cast<size_t>(out.column_index)).type;
  if (out.is_substr && out.type != ColumnType::kString) {
    return Status::InvalidArgument(
        "aggstorlet: substr group key requires a string column: " + spec);
  }
  return out;
}

}  // namespace

Status GroupAggStorlet::Invoke(StorletInputStream& input,
                               StorletOutputStream& output,
                               const StorletParams& params,
                               StorletLogger& logger) {
  auto schema_it = params.find("schema");
  if (schema_it == params.end()) {
    return Status::InvalidArgument("aggstorlet requires a 'schema' parameter");
  }
  SCOOP_ASSIGN_OR_RETURN(Schema schema, Schema::FromSpec(schema_it->second));

  // output=partials switches from finalized CSV rows to one SAG1 frame
  // of mergeable AggStates (sql/agg_wire.h) with typed group keys — the
  // aggregate-pushdown wire the driver merges with AggState::Merge.
  bool partials_mode = false;
  auto output_it = params.find("output");
  if (output_it != params.end() && !Trim(output_it->second).empty()) {
    std::string_view mode = Trim(output_it->second);
    if (mode == "partials") {
      partials_mode = true;
    } else if (mode != "csv") {
      return Status::InvalidArgument("aggstorlet: unknown output mode: " +
                                     std::string(mode));
    }
  }

  std::string group_param;
  auto group_it = params.find("group");
  if (group_it != params.end()) group_param = Trim(group_it->second);
  auto aggs_it = params.find("aggs");
  if (aggs_it == params.end() || Trim(aggs_it->second).empty()) {
    return Status::InvalidArgument("aggstorlet requires an 'aggs' parameter");
  }

  struct AggSpec {
    AggKind kind;
    int column_index;  // -1 for count(*)
    ColumnType type;
  };
  std::vector<AggSpec> specs;
  std::vector<GroupKeySpec> key_specs;   // partials mode
  std::vector<int> group_indices;        // csv mode
  std::vector<AggKind> wire_kinds;       // partials mode frame header

  if (partials_mode) {
    SCOOP_ASSIGN_OR_RETURN(
        AggPushdownSpec pushed,
        ParseAggPushdownSpec(group_param, Trim(aggs_it->second)));
    for (const std::string& g : pushed.group_specs) {
      SCOOP_ASSIGN_OR_RETURN(GroupKeySpec ks, ResolveGroupSpec(g, schema));
      key_specs.push_back(ks);
    }
    for (size_t i = 0; i < pushed.agg_kinds.size(); ++i) {
      AggSpec spec;
      spec.kind = pushed.agg_kinds[i];
      if (pushed.agg_columns[i] == "*") {
        spec.column_index = -1;
        spec.type = ColumnType::kInt64;
      } else {
        spec.column_index = schema.IndexOf(pushed.agg_columns[i]);
        if (spec.column_index < 0) {
          return Status::NotFound("agg column not in schema: " +
                                  pushed.agg_columns[i]);
        }
        spec.type =
            schema.column(static_cast<size_t>(spec.column_index)).type;
      }
      specs.push_back(spec);
    }
    wire_kinds = std::move(pushed.agg_kinds);
  } else {
    if (!group_param.empty()) {
      for (std::string_view name : Split(group_param, ',')) {
        int idx = schema.IndexOf(Trim(name));
        if (idx < 0) {
          return Status::NotFound("group column not in schema: " +
                                  std::string(Trim(name)));
        }
        group_indices.push_back(idx);
      }
    }
    for (std::string_view part : Split(aggs_it->second, ',')) {
      part = Trim(part);
      size_t colon = part.find(':');
      if (colon == std::string_view::npos) {
        return Status::InvalidArgument("bad agg spec: " + std::string(part));
      }
      AggSpec spec;
      SCOOP_ASSIGN_OR_RETURN(spec.kind,
                             AggKindFromName(part.substr(0, colon)));
      if (spec.kind == AggKind::kAvg || spec.kind == AggKind::kFirstValue) {
        return Status::InvalidArgument(
            "aggstorlet supports sum/min/max/count in csv output mode "
            "(avg/first_value do not merge as single finalized values)");
      }
      std::string_view column = Trim(part.substr(colon + 1));
      if (column == "*") {
        if (spec.kind != AggKind::kCount) {
          return Status::InvalidArgument("'*' is only valid with count");
        }
        spec.column_index = -1;
        spec.type = ColumnType::kInt64;
      } else {
        spec.column_index = schema.IndexOf(column);
        if (spec.column_index < 0) {
          return Status::NotFound("agg column not in schema: " +
                                  std::string(column));
        }
        spec.type =
            schema.column(static_cast<size_t>(spec.column_index)).type;
      }
      specs.push_back(spec);
    }
  }

  SourceFilter selection = SourceFilter::True();
  auto selection_it = params.find("selection");
  if (selection_it != params.end() && !Trim(selection_it->second).empty()) {
    SCOOP_ASSIGN_OR_RETURN(selection,
                           SourceFilter::Parse(selection_it->second));
  }
  bool has_selection = !selection.IsTrue();

  // Group map keyed by the serialized group key (std::map: sorted,
  // deterministic output order).
  struct Entry {
    std::vector<std::string> key_fields;  // csv mode: raw field bytes
    Row key_values;                       // partials mode: typed values
    std::vector<AggState> states;
  };
  std::map<std::string, Entry> groups;
  int64_t rows_in = 0;

  // Folds one record (raw fields, schema order) into the group map. The
  // partials mode computes typed keys with Value::FromField/SqlSubstring
  // — the exact evaluation the driver executor runs — so group identity
  // never depends on raw field spelling ("1.0" vs "1.00").
  auto accumulate = [&](const std::string_view* fields) {
    std::string key;
    Row key_values;
    if (partials_mode) {
      key_values.reserve(key_specs.size());
      for (const GroupKeySpec& ks : key_specs) {
        std::string_view field = fields[static_cast<size_t>(ks.column_index)];
        if (ks.is_substr) {
          // Null (empty field) propagates through substr, like EvalExpr.
          key_values.push_back(
              field.empty()
                  ? Value::Null()
                  : Value(SqlSubstring(std::string(field), ks.pos, ks.len)));
        } else {
          key_values.push_back(Value::FromField(field, ks.type));
        }
      }
      key = SerializeGroupKey(key_values);
    } else {
      for (int idx : group_indices) {
        key.append(fields[static_cast<size_t>(idx)]);
        key.push_back('\x1f');
      }
    }
    auto [it, inserted] = groups.try_emplace(std::move(key));
    Entry& entry = it->second;
    if (inserted) {
      if (partials_mode) {
        entry.key_values = std::move(key_values);
      } else {
        for (int idx : group_indices) {
          entry.key_fields.emplace_back(fields[static_cast<size_t>(idx)]);
        }
      }
      entry.states.resize(specs.size());
    }
    for (size_t i = 0; i < specs.size(); ++i) {
      const AggSpec& spec = specs[i];
      if (spec.column_index < 0) {
        entry.states[i].Update(AggKind::kCount,
                               Value(static_cast<int64_t>(1)));
      } else {
        entry.states[i].Update(
            spec.kind,
            Value::FromField(fields[static_cast<size_t>(spec.column_index)],
                             spec.type));
      }
    }
  };

  // Input format: an explicit input=batch/text parameter wins; otherwise
  // sniff whether an upstream csv storlet invoked with output=batch sends
  // length-prefixed RecordBatch frames instead of CSV text. The sniff
  // reads a full header's worth of bytes so LooksLikeBatchWire can
  // corroborate the magic against the frame length fields — a CSV record
  // that merely *starts* with "SBT1" must not select the wire decoder.
  bool wire_input;
  auto input_it = params.find("input");
  if (input_it != params.end() && !Trim(input_it->second).empty()) {
    std::string_view mode = Trim(input_it->second);
    if (mode == "batch") {
      wire_input = true;
    } else if (mode == "text") {
      wire_input = false;
    } else {
      return Status::InvalidArgument("aggstorlet: unknown input mode: " +
                                     std::string(mode));
    }
  } else {
    char header[16];
    size_t sniffed = input.Peek(header, sizeof(header));
    wire_input = LooksLikeBatchWire(std::string_view(header, sniffed));
  }

  // Folds a block of `num_rows` schema-ordered records (row-major field
  // views) through the selection into the group map. rows_in counts
  // selected rows only.
  std::vector<uint32_t> selected;
  auto fold = [&](const std::string_view* fields, int64_t num_rows) {
    selected.resize(static_cast<size_t>(num_rows));
    std::iota(selected.begin(), selected.end(), 0u);
    if (has_selection) {
      selection.MatchRows(fields, schema.size(), schema, &selected);
    }
    rows_in += static_cast<int64_t>(selected.size());
    for (uint32_t r : selected) accumulate(fields + r * schema.size());
  };

  if (wire_input) {
    // Wire frames carry raw string fields under their own (possibly
    // projected) schema; each frame is rendered once into a block laid out
    // in this storlet's schema order, matching columns by name.
    BatchWireReader wire;
    RecordBatch batch;
    std::vector<char> chunk(64 * 1024);
    std::deque<std::string> rendered;  // non-string cells, stable addresses
    std::vector<std::string_view> block;
    for (;;) {
      SCOOP_ASSIGN_OR_RETURN(bool got_batch, wire.Next(&batch));
      if (!got_batch) {
        size_t got = input.Read(chunk.data(), chunk.size());
        if (got == 0) break;
        wire.Feed(std::string_view(chunk.data(), got));
        continue;
      }
      const size_t width = schema.size();
      const int64_t rows = batch.num_rows();
      rendered.clear();
      // Absent columns keep the empty view: they read as null.
      block.assign(static_cast<size_t>(rows) * width, std::string_view());
      for (size_t i = 0; i < width; ++i) {
        int wc = batch.schema().IndexOf(schema.column(i).name);
        if (wc < 0) continue;
        const ColumnVector& col = batch.column(wc);
        for (int64_t r = 0; r < rows; ++r) {
          std::string_view& cell = block[static_cast<size_t>(r) * width + i];
          if (col.type() != ColumnType::kString) {
            cell = rendered.emplace_back(col.GetValue(r).ToString());
          } else if (!col.is_null(r)) {
            cell = col.StringAt(r);
          }
        }
      }
      fold(block.data(), rows);
    }
    if (wire.buffered_bytes() > 0) {
      return Status::InvalidArgument(
          "aggstorlet: truncated batch frame at end of input");
    }
  } else {
    // Text input: batched structural scan.
    CsvStreamBatcher batcher(&input, schema.size());
    RawRecordBatch raw;
    while (batcher.Next(&raw)) fold(raw.fields.data(), raw.num_rows);
  }

  if (partials_mode) {
    AggPartialFrame frame;
    frame.agg_kinds = std::move(wire_kinds);
    frame.rows = rows_in;
    frame.groups.reserve(groups.size());
    for (auto& [key, entry] : groups) {
      AggPartialGroup group;
      group.key_values = std::move(entry.key_values);
      group.states = std::move(entry.states);
      frame.groups.push_back(std::move(group));
    }
    std::string encoded;
    AppendAggPartialFrame(frame, &encoded);
    output.Write(encoded);
  } else {
    std::string scratch;
    std::vector<std::string> rendered;
    std::vector<std::string_view> views;
    for (const auto& [key, entry] : groups) {
      rendered.clear();
      views.clear();
      for (const std::string& field : entry.key_fields) {
        rendered.push_back(field);
      }
      for (size_t i = 0; i < specs.size(); ++i) {
        rendered.push_back(entry.states[i].Final(specs[i].kind).ToString());
      }
      for (const std::string& s : rendered) views.push_back(s);
      scratch.clear();
      WriteCsvRecord(views, &scratch);
      output.Write(scratch);
    }
  }
  logger.Emit(StrFormat("aggstorlet: %lld rows -> %zu groups%s%s",
                        static_cast<long long>(rows_in), groups.size(),
                        wire_input ? " (batch frames in)" : "",
                        partials_mode ? " (partial states out)" : ""));
  output.SetMetadata("groups", std::to_string(groups.size()));
  return Status::OK();
}

}  // namespace scoop
