#include <gtest/gtest.h>

#include "columnar/batch_wire.h"
#include "common/random.h"
#include "common/strings.h"
#include "csv/agg_storlet.h"
#include "csv/batch_reader.h"
#include "csv/csv_storlet.h"
#include "csv/etl_storlet.h"
#include "csv/record_reader.h"
#include "sql/schema.h"
#include "storlets/storlet.h"
#include "tests/reference/scalar_row_reader.h"

namespace scoop {
namespace {

TEST(CsvRecordParserTest, PlainFields) {
  CsvRecordParser parser;
  auto fields = parser.Parse("a,b,,d");
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[2], "");
  EXPECT_EQ(fields[3], "d");
}

TEST(CsvRecordParserTest, QuotedFields) {
  CsvRecordParser parser;
  auto fields = parser.Parse("\"a,b\",plain,\"say \"\"hi\"\"\"");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "a,b");
  EXPECT_EQ(fields[1], "plain");
  EXPECT_EQ(fields[2], "say \"hi\"");
}

TEST(CsvRecordParserTest, TrailingComma) {
  CsvRecordParser parser;
  auto fields = parser.Parse("a,\"b\",");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[2], "");
}

TEST(CsvWriterTest, RoundTripsThroughParser) {
  std::vector<std::string_view> fields = {"plain", "with,comma",
                                          "with\"quote", ""};
  std::string out;
  WriteCsvRecord(fields, &out);
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out.back(), '\n');
  CsvRecordParser parser;
  auto parsed = parser.Parse(std::string_view(out).substr(0, out.size() - 1));
  ASSERT_EQ(parsed.size(), fields.size());
  for (size_t i = 0; i < fields.size(); ++i) EXPECT_EQ(parsed[i], fields[i]);
}

// Every typed row of `data` through the columnar scanner.
std::vector<Row> ScanRows(std::string_view data, const Schema& schema,
                          CsvScanStats* stats) {
  CsvBatchReader reader(data, &schema);
  std::vector<Row> rows;
  RecordBatch batch;
  while (reader.Next(&batch)) {
    for (Row& row : batch.ToRows()) rows.push_back(std::move(row));
  }
  *stats = reader.stats();
  return rows;
}

TEST(CsvBatchReaderTest, TypedRowsAndMalformed) {
  Schema schema({{"id", ColumnType::kInt64},
                 {"name", ColumnType::kString},
                 {"score", ColumnType::kDouble}});
  std::string data =
      "1,alice,3.5\n"
      "2,bob,\n"         // null score
      "oops,short\n"     // malformed: 2 fields
      "3,carol,notnum\n" // unparseable double -> null
      "\n"               // blank line skipped
      "4,dave,1.25";     // unterminated final record
  CsvScanStats stats;
  std::vector<Row> rows = ScanRows(data, schema, &stats);
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(stats.malformed_rows, 1);
  EXPECT_EQ(rows[0][0].AsInt64(), 1);
  EXPECT_EQ(rows[0][1].AsString(), "alice");
  EXPECT_DOUBLE_EQ(rows[0][2].AsDoubleExact(), 3.5);
  EXPECT_TRUE(rows[1][2].is_null());
  EXPECT_TRUE(rows[2][2].is_null());
  EXPECT_EQ(rows[3][0].AsInt64(), 4);
}

TEST(CsvBatchReaderTest, HandlesCrLf) {
  Schema schema({{"a", ColumnType::kString}});
  CsvScanStats stats;
  std::vector<Row> rows = ScanRows("x\r\ny\r\n", schema, &stats);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0].AsString(), "x");
  EXPECT_EQ(rows[1][0].AsString(), "y");
}

// --- batch/row engine equivalence ------------------------------------------
// The columnar scanner must be bit-compatible with the legacy row engine:
// same typed values, same nulls, same malformed accounting, whatever the
// dialect corner (quoted fields, CRLF, blanks) or schema shape.

void ExpectReadersAgree(const std::string& data, const Schema& schema,
                        bool dictionary) {
  ScalarRowReader reference(data, &schema);
  std::vector<Row> expected;
  Row row;
  while (reference.Next(&row)) expected.push_back(row);

  CsvBatchOptions options;
  options.dictionary = dictionary;
  options.max_batch_rows = 3;  // tiny batches exercise batch boundaries
  CsvBatchReader reader(data, &schema, options);
  std::vector<Row> actual;
  RecordBatch batch;
  while (reader.Next(&batch)) {
    for (Row& r : batch.ToRows()) actual.push_back(std::move(r));
  }

  ASSERT_EQ(actual.size(), expected.size()) << "dict=" << dictionary;
  for (size_t r = 0; r < actual.size(); ++r) {
    ASSERT_EQ(actual[r].size(), expected[r].size());
    for (size_t c = 0; c < actual[r].size(); ++c) {
      EXPECT_EQ(actual[r][c].is_null(), expected[r][c].is_null())
          << "row " << r << " col " << c;
      EXPECT_EQ(actual[r][c].ToString(), expected[r][c].ToString())
          << "row " << r << " col " << c;
    }
  }
  EXPECT_EQ(reader.stats().malformed_rows, reference.malformed_rows());
  EXPECT_EQ(reader.stats().rows_read, reference.rows_read());
}

TEST(BatchRowEquivalenceTest, DialectCorners) {
  Schema schema({{"id", ColumnType::kInt64},
                 {"name", ColumnType::kString},
                 {"score", ColumnType::kDouble}});
  const std::string data =
      "1,alice,3.5\n"
      "2,\"quoted,comma\",1e3\n"      // exponent double: slow-path parse
      "3,\"say \"\"hi\"\"\",-0.25\n"  // escaped quotes
      "bad,row\n"                     // malformed
      "\n"                            // blank, skipped
      "4,crlf,1.0\r\n"
      "5,,\n"                         // nulls
      "6,tail,0.125";                 // unterminated final record
  ExpectReadersAgree(data, schema, false);
  ExpectReadersAgree(data, schema, true);
}

TEST(BatchRowEquivalenceTest, RandomizedSchemasAndData) {
  Rng rng(99);
  const char* tokens[] = {"alpha", "beta,x", "g\"q",  "2015-01-01",
                          "-12",   "7.25",   "1e308", "0.1",
                          "",      "nan",    "Paris", "  pad  "};
  for (int trial = 0; trial < 25; ++trial) {
    size_t arity = 1 + rng.NextBounded(5);
    std::vector<Column> columns;
    for (size_t c = 0; c < arity; ++c) {
      ColumnType type = static_cast<ColumnType>(rng.NextBounded(3));
      columns.push_back({"c" + std::to_string(c), type});
    }
    Schema schema(columns);
    std::string data;
    size_t lines = 5 + rng.NextBounded(40);
    for (size_t l = 0; l < lines; ++l) {
      // Occasionally the wrong arity, so malformed accounting is hit.
      size_t n = rng.NextBounded(10) == 0 ? 1 + rng.NextBounded(7) : arity;
      std::vector<std::string_view> fields;
      for (size_t f = 0; f < n; ++f) {
        fields.push_back(tokens[rng.NextIndex(12)]);
      }
      WriteCsvRecord(fields, &data);
    }
    SCOPED_TRACE("trial " + std::to_string(trial));
    ExpectReadersAgree(data, schema, trial % 2 == 0);
  }
}

TEST(CsvStreamBatcherTest, TinyWindowsNeverSplitRecords) {
  // Quoted fields with embedded commas across 16-byte windows: the
  // batcher must cut windows at record boundaries only, and its counters
  // must match a whole-buffer reference scan.
  std::string data;
  std::vector<std::string> expected;
  for (int i = 0; i < 40; ++i) {
    std::string rec = std::to_string(i) + ",\"city, nr " + std::to_string(i) +
                      "\"," + std::to_string(i * 2);
    expected.push_back(std::to_string(i) + "|city, nr " + std::to_string(i) +
                       "|" + std::to_string(i * 2));
    data += rec + "\n";
    if (i % 9 == 0) data += "short,row\n";  // malformed (arity 2 != 3)
    if (i % 11 == 0) data += "\n";          // blank, skipped
  }
  StorletInputStream input(data);
  CsvBatchOptions options;
  options.window_bytes = 16;
  options.max_batch_rows = 7;
  CsvStreamBatcher batcher(&input, 3, options);
  std::vector<std::string> actual;
  RawRecordBatch raw;
  while (batcher.Next(&raw)) {
    for (int64_t r = 0; r < raw.num_rows; ++r) {
      std::string joined;
      for (size_t f = 0; f < raw.num_fields; ++f) {
        if (f > 0) joined += "|";
        joined += raw.fields[r * raw.num_fields + f];
      }
      actual.push_back(std::move(joined));
    }
  }
  EXPECT_EQ(actual, expected);
  EXPECT_EQ(batcher.malformed_rows(), 5);   // i = 0, 9, 18, 27, 36
  EXPECT_EQ(batcher.records_seen(),
            static_cast<int64_t>(expected.size()) + 5);
}

TEST(AppendCsvFieldTest, RoundTripsThroughParser) {
  const std::string_view fields[] = {"plain", "with,comma", "with\"quote",
                                     "\"fully quoted\"", "", "trailing "};
  std::string record;
  for (size_t i = 0; i < 6; ++i) {
    if (i > 0) record += ',';
    AppendCsvField(fields[i], &record);
  }
  CsvRecordParser parser;
  auto parsed = parser.Parse(record);
  ASSERT_EQ(parsed.size(), 6u);
  for (size_t i = 0; i < 6; ++i) EXPECT_EQ(parsed[i], fields[i]) << i;
}

class CsvStorletTest : public ::testing::Test {
 protected:
  Result<std::string> Run(const std::string& data, StorletParams params,
                          std::map<std::string, std::string>* metadata =
                              nullptr) {
    CsvStorlet storlet;
    StorletInputStream in(data);
    StorletOutputStream out;
    StorletLogger logger;
    Status status = storlet.Invoke(in, out, params, logger);
    if (!status.ok()) return status;
    if (metadata != nullptr) *metadata = out.metadata();
    return out.TakeBuffer();
  }

  const std::string schema_spec_ = "vid:int64,city:string,load:double";
  const std::string data_ =
      "1,Paris,10.5\n"
      "2,Rotterdam,20.0\n"
      "3,Rotterdam,30.25\n"
      "4,Nice,40.0\n";
};

TEST_F(CsvStorletTest, RequiresSchema) {
  EXPECT_FALSE(Run(data_, {}).ok());
}

TEST_F(CsvStorletTest, IdentityWhenNoFilters) {
  auto out = Run(data_, {{"schema", schema_spec_}});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, data_);
}

TEST_F(CsvStorletTest, SelectionOnly) {
  auto out = Run(data_, {{"schema", schema_spec_},
                         {"selection", "(like city \"Rotterdam\")"}});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, "2,Rotterdam,20.0\n3,Rotterdam,30.25\n");
}

TEST_F(CsvStorletTest, ProjectionOnly) {
  auto out = Run(data_, {{"schema", schema_spec_}, {"projection", "city,vid"}});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, "Paris,1\nRotterdam,2\nRotterdam,3\nNice,4\n");
}

TEST_F(CsvStorletTest, SelectionAndProjection) {
  auto out = Run(data_, {{"schema", schema_spec_},
                         {"projection", "load"},
                         {"selection", "(gt load 15)"}});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, "20.0\n30.25\n40.0\n");
}

TEST_F(CsvStorletTest, NumericSelectionOnIntColumn) {
  auto out = Run(data_, {{"schema", schema_spec_},
                         {"selection", "(le vid 2)"}});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, "1,Paris,10.5\n2,Rotterdam,20.0\n");
}

TEST_F(CsvStorletTest, UnknownProjectionColumnFails) {
  EXPECT_FALSE(
      Run(data_, {{"schema", schema_spec_}, {"projection", "ghost"}}).ok());
}

TEST_F(CsvStorletTest, BadSelectionFails) {
  EXPECT_FALSE(
      Run(data_, {{"schema", schema_spec_}, {"selection", "(bogus"}}).ok());
}

TEST_F(CsvStorletTest, MalformedRowsDroppedWhenFiltering) {
  std::string data = "1,Paris,1.0\nbroken\n2,Nice,2.0\n";
  auto out = Run(data, {{"schema", schema_spec_}, {"projection", "vid"}});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, "1\n2\n");
}

TEST_F(CsvStorletTest, ParamShapesEmitPinnedBytes) {
  // Literal output bytes for every parameter shape over data carrying a
  // quoted comma, a malformed record, a CRLF ending and a blank line.
  const std::string data =
      "1,Paris,10.5\n"
      "2,\"Rotter,dam\",20.0\n"
      "broken\n"
      "3,Rotterdam,30.25\r\n"
      "\n"
      "4,Nice,40.0\n";
  struct Case {
    StorletParams params;
    std::string bytes;
    std::string rows_out;
  };
  const std::vector<Case> cases = {
      // Identity: verbatim line copy, malformed record included, CR and
      // blank line dropped.
      {{{"schema", schema_spec_}},
       "1,Paris,10.5\n2,\"Rotter,dam\",20.0\nbroken\n3,Rotterdam,30.25\n"
       "4,Nice,40.0\n",
       "5"},
      {{{"schema", schema_spec_}, {"selection", "(gt load 15)"}},
       "2,\"Rotter,dam\",20.0\n3,Rotterdam,30.25\n4,Nice,40.0\n",
       "3"},
      {{{"schema", schema_spec_}, {"projection", "city,vid"}},
       "Paris,1\n\"Rotter,dam\",2\nRotterdam,3\nNice,4\n",
       "4"},
      {{{"schema", schema_spec_},
        {"projection", "load"},
        {"selection", "(like city \"Rotter%\")"}},
       "20.0\n30.25\n",
       "2"},
  };
  for (const Case& c : cases) {
    std::map<std::string, std::string> metadata;
    auto out = Run(data, c.params, &metadata);
    ASSERT_TRUE(out.ok()) << out.status();
    EXPECT_EQ(*out, c.bytes);
    EXPECT_EQ(metadata["rows-in"], "5");
    EXPECT_EQ(metadata["rows-out"], c.rows_out);
    EXPECT_EQ(metadata.count("limit-hit"), 0u);
  }

  // A capped identity copy counts the malformed record as a row out.
  std::map<std::string, std::string> metadata;
  auto capped =
      Run(data, {{"schema", schema_spec_}, {"limit", "3"}}, &metadata);
  ASSERT_TRUE(capped.ok()) << capped.status();
  EXPECT_EQ(*capped, "1,Paris,10.5\n2,\"Rotter,dam\",20.0\nbroken\n");
  EXPECT_EQ(metadata["rows-out"], "3");
  EXPECT_EQ(metadata["limit-hit"], "1");
}

TEST_F(CsvStorletTest, IdentityShapeWithBatchOutputEmitsFrames) {
  // output=batch never takes the text identity copy: the frames carry the
  // well-formed records only, as raw string columns.
  const std::string data = "1,Paris,10.5\nbroken\n2,Nice,20.0\r\n";
  auto out = Run(data, {{"schema", schema_spec_}, {"output", "batch"}});
  ASSERT_TRUE(out.ok()) << out.status();
  ASSERT_TRUE(LooksLikeBatchWire(*out));
  BatchWireReader wire;
  wire.Feed(*out);
  RecordBatch batch;
  std::vector<std::string> rows;
  for (;;) {
    auto got = wire.Next(&batch);
    ASSERT_TRUE(got.ok()) << got.status();
    if (!*got) break;
    for (int64_t r = 0; r < batch.num_rows(); ++r) {
      std::string joined;
      for (size_t c = 0; c < batch.num_columns(); ++c) {
        ASSERT_EQ(batch.column(c).type(), ColumnType::kString);
        if (c > 0) joined += "|";
        joined += batch.column(c).StringAt(r);
      }
      rows.push_back(std::move(joined));
    }
  }
  EXPECT_EQ(wire.buffered_bytes(), 0u);
  EXPECT_EQ(rows, (std::vector<std::string>{"1|Paris|10.5", "2|Nice|20.0"}));
}

// The batched storlet pipeline: csv(output=batch) frames feeding the agg
// storlet must aggregate to exactly what the text pipeline produces.
class StorletPipelineTest : public ::testing::Test {
 protected:
  Result<std::string> RunOne(Storlet& storlet, const std::string& data,
                             StorletParams params) {
    StorletInputStream in(data);
    StorletOutputStream out;
    StorletLogger logger;
    Status status = storlet.Invoke(in, out, params, logger);
    if (!status.ok()) return status;
    return out.TakeBuffer();
  }

  const std::string schema_spec_ = "vid:int64,city:string,load:double";
  const std::string data_ =
      "1,Paris,10.5\n"
      "2,\"Rotter,dam\",20.0\n"
      "3,\"Rotter,dam\",30.25\n"
      "broken,row\n"
      "4,Nice,40.0\n"
      "5,Paris,2.5\n";
};

TEST_F(StorletPipelineTest, BatchWireAggEqualsTextAgg) {
  CsvStorlet csv;
  GroupAggStorlet agg;
  StorletParams csv_params = {{"schema", schema_spec_},
                              {"projection", "city,load"},
                              {"selection", "(gt load 5)"}};
  StorletParams agg_params = {{"schema", "city:string,load:double"},
                              {"group", "city"},
                              {"aggs", "sum:load,count:*"}};

  auto text = RunOne(csv, data_, csv_params);
  ASSERT_TRUE(text.ok()) << text.status();
  auto text_agg = RunOne(agg, *text, agg_params);
  ASSERT_TRUE(text_agg.ok()) << text_agg.status();

  StorletParams batch_params = csv_params;
  batch_params["output"] = "batch";
  auto frames = RunOne(csv, data_, batch_params);
  ASSERT_TRUE(frames.ok()) << frames.status();
  ASSERT_NE(*frames, *text) << "batch output should be framed, not text";
  auto batch_agg = RunOne(agg, *frames, agg_params);
  ASSERT_TRUE(batch_agg.ok()) << batch_agg.status();

  EXPECT_EQ(*batch_agg, *text_agg);
  // load > 5 keeps rows 1-4; groups sort by key: Nice, Paris, Rotter,dam
  // (the comma-bearing key is re-quoted on output).
  EXPECT_EQ(*text_agg, "Nice,40,1\nParis,10.5,1\n\"Rotter,dam\",50.25,2\n");
}

TEST_F(StorletPipelineTest, Sbt1LookingCsvIsNotMisparsedAsBatchWire) {
  // Regression for the input sniffer: a text record that merely *starts*
  // with the batch-wire magic must still be decoded as CSV. The sniff
  // corroborates the frame header, and any printable payload fails it
  // (ASCII bytes decoded as a little-endian u32 land >= 0x09000000, far
  // past the length caps), so adversarial text can never select the wire
  // decoder — sniffed and pinned-text runs must agree byte for byte.
  GroupAggStorlet agg;
  const std::string data =
      "SBT1city,100.5\n"
      "SBT1city,0.5\n"
      "Paris,10\n";
  StorletParams sniffed = {{"schema", "city:string,load:double"},
                           {"group", "city"},
                           {"aggs", "sum:load,count:*"}};
  StorletParams pinned = sniffed;
  pinned["input"] = "text";
  auto via_sniff = RunOne(agg, data, sniffed);
  auto via_pin = RunOne(agg, data, pinned);
  ASSERT_TRUE(via_sniff.ok()) << via_sniff.status();
  ASSERT_TRUE(via_pin.ok()) << via_pin.status();
  EXPECT_EQ(*via_sniff, *via_pin);
  EXPECT_EQ(*via_sniff, "Paris,10,1\nSBT1city,101,2\n");

  // Same guarantee for the partials shape the driver's agg pushdown
  // requests: the SAG1 frame folds the SBT1-prefixed rows as text.
  StorletParams partials = sniffed;
  partials["output"] = "partials";
  StorletParams partials_pinned = pinned;
  partials_pinned["output"] = "partials";
  auto frame = RunOne(agg, data, partials);
  auto frame_pinned = RunOne(agg, data, partials_pinned);
  ASSERT_TRUE(frame.ok()) << frame.status();
  ASSERT_TRUE(frame_pinned.ok()) << frame_pinned.status();
  EXPECT_EQ(*frame, *frame_pinned);
}

TEST_F(StorletPipelineTest, TruncatedBatchFrameIsAnError) {
  CsvStorlet csv;
  GroupAggStorlet agg;
  auto frames = RunOne(csv, data_,
                       {{"schema", schema_spec_},
                        {"projection", "city,load"},
                        {"output", "batch"}});
  ASSERT_TRUE(frames.ok());
  std::string truncated = frames->substr(0, frames->size() - 5);
  auto out = RunOne(agg, truncated,
                    {{"schema", "city:string,load:double"},
                     {"group", "city"},
                     {"aggs", "count:*"}});
  EXPECT_FALSE(out.ok());
}

// Agg over SBT1 frames must fold exactly what it folds over the
// equivalent CSV text, in both output modes, for every frame shape the
// wire decoder handles: whole frames rejected by the agg-side selection,
// schema columns the frame lacks, and typed (non-string) frame columns.
class AggInputParityTest : public StorletPipelineTest {
 protected:
  // Runs the agg storlet over `frames` (input=batch) and over `text`
  // (input=text) in both output modes and expects identical bytes.
  // Returns the csv-mode output.
  std::string ExpectParity(const std::string& frames, const std::string& text,
                           const StorletParams& params) {
    std::string csv_output;
    for (const char* mode : {"csv", "partials"}) {
      SCOPED_TRACE(mode);
      GroupAggStorlet agg;
      StorletParams wire_params = params;
      wire_params["output"] = mode;
      wire_params["input"] = "batch";
      StorletParams text_params = wire_params;
      text_params["input"] = "text";
      auto from_wire = RunOne(agg, frames, wire_params);
      auto from_text = RunOne(agg, text, text_params);
      EXPECT_TRUE(from_wire.ok()) << from_wire.status();
      EXPECT_TRUE(from_text.ok()) << from_text.status();
      if (!from_wire.ok() || !from_text.ok()) return "";
      EXPECT_EQ(*from_wire, *from_text);
      EXPECT_FALSE(from_text->empty());
      if (std::string_view(mode) == "csv") csv_output = *from_text;
    }
    return csv_output;
  }
};

TEST_F(AggInputParityTest, SelectionRejectsEveryRowOfOneFrame) {
  CsvStorlet csv;
  StorletParams text_params = {{"schema", schema_spec_},
                               {"projection", "city,load"}};
  StorletParams batch_params = text_params;
  batch_params["output"] = "batch";
  // One frame per part: the first frame holds only rows the agg-side
  // selection rejects.
  const std::string parts[] = {"1,Paris,1.5\n2,Nice,2.5\n",
                               "3,Paris,30.0\n4,\"Rotter,dam\",40.0\n"};
  std::string text;
  std::string frames;
  for (const std::string& part : parts) {
    auto t = RunOne(csv, part, text_params);
    auto f = RunOne(csv, part, batch_params);
    ASSERT_TRUE(t.ok() && f.ok());
    text += *t;
    frames += *f;
  }
  EXPECT_EQ(ExpectParity(frames, text,
                         {{"schema", "city:string,load:double"},
                          {"group", "city"},
                          {"aggs", "sum:load,count:*"},
                          {"selection", "(gt load 5)"}}),
            "Paris,30,1\n\"Rotter,dam\",40,1\n");
}

TEST_F(AggInputParityTest, SchemaColumnAbsentFromFrameReadsAsNull) {
  CsvStorlet csv;
  StorletParams text_params = {{"schema", schema_spec_},
                               {"projection", "city,load"}};
  StorletParams batch_params = text_params;
  batch_params["output"] = "batch";
  auto text = RunOne(csv, data_, text_params);
  auto frames = RunOne(csv, data_, batch_params);
  ASSERT_TRUE(text.ok() && frames.ok());
  // The text twin spells the missing trailing vid column as empty fields.
  std::string padded;
  for (char ch : *text) {
    if (ch == '\n') padded += ',';
    padded += ch;
  }
  EXPECT_EQ(ExpectParity(*frames, padded,
                         {{"schema", "city:string,load:double,vid:int64"},
                          {"group", "city"},
                          {"aggs", "sum:load,count:vid,max:vid"}}),
            "Nice,40,0,\nParis,13,0,\n\"Rotter,dam\",50.25,0,\n");
  ExpectParity(*frames, padded,
               {{"schema", "city:string,load:double,vid:int64"},
                {"group", "vid"},
                {"aggs", "count:*,sum:load"},
                {"selection", "(gt load 5)"}});
}

TEST_F(AggInputParityTest, NonStringFrameColumnsRenderLikeText) {
  // Rows in the agg schema's column order; the frame carries the same
  // values typed and in another column order.
  const Schema agg_schema({{"vid", ColumnType::kInt64},
                           {"city", ColumnType::kString},
                           {"load", ColumnType::kDouble}});
  const std::vector<Row> rows = {
      {Value(int64_t{1}), Value(std::string("Paris")), Value(10.5)},
      {Value(int64_t{2}), Value(std::string("Nice")), Value(40.0)},
      {Value(int64_t{3}), Value(std::string("Paris")), Value::Null()},
      {Value::Null(), Value(std::string("Nice")), Value(2.25)},
      {Value(int64_t{5}), Value(std::string("Rotter,dam")), Value(0.125)},
  };
  const Schema frame_schema({{"load", ColumnType::kDouble},
                             {"city", ColumnType::kString},
                             {"vid", ColumnType::kInt64}});
  std::vector<Row> frame_rows;
  std::string text;
  for (const Row& row : rows) {
    frame_rows.push_back({row[2], row[1], row[0]});
    WriteCsvRow(row, &text);
  }
  std::string frames;
  AppendBatchFrame(RecordBatch::FromRows(frame_schema, frame_rows), &frames);
  EXPECT_EQ(ExpectParity(frames, text,
                         {{"schema", agg_schema.ToSpec()},
                          {"group", "city"},
                          {"aggs", "sum:load,count:vid,min:vid"},
                          {"selection", "(ge load 1)"}}),
            "Nice,42.25,1,2\nParis,10.5,1,1\n");
  ExpectParity(frames, text,
               {{"schema", agg_schema.ToSpec()},
                {"group", "vid"},
                {"aggs", "sum:load,count:*"}});
}

class EtlStorletTest : public ::testing::Test {
 protected:
  Result<std::string> Run(const std::string& data, StorletParams params,
                          std::map<std::string, std::string>* metadata =
                              nullptr) {
    EtlStorlet storlet;
    StorletInputStream in(data);
    StorletOutputStream out;
    StorletLogger logger;
    Status status = storlet.Invoke(in, out, params, logger);
    if (!status.ok()) return status;
    if (metadata != nullptr) *metadata = out.metadata();
    return out.TakeBuffer();
  }
};

TEST_F(EtlStorletTest, TrimsAndNormalizes) {
  auto out = Run(" 1 , Paris \r\n2,Nice\r\n",
                 {{"schema", "vid:int64,city:string"}});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, "1,Paris\n2,Nice\n");
}

TEST_F(EtlStorletTest, DropsMalformedRows) {
  auto out = Run("1,Paris\nnot-a-number,Nice\n2\n3,Lyon\n",
                 {{"schema", "vid:int64,city:string"}});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, "1,Paris\n3,Lyon\n");
}

TEST_F(EtlStorletTest, KeepsMalformedWhenAskedTo) {
  auto out = Run("x,Paris\n",
                 {{"schema", "vid:int64,city:string"},
                  {"drop_malformed", "false"}});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, "x,Paris\n");
}

TEST_F(EtlStorletTest, SplitsColumn) {
  std::map<std::string, std::string> metadata;
  auto out = Run("1,2015-01-01;12:30\n2,2015-01-02;08:00\n",
                 {{"schema", "vid:int64,stamp:string"},
                  {"split_column", "stamp"},
                  {"split_names", "day,time"}},
                 &metadata);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, "1,2015-01-01,12:30\n2,2015-01-02,08:00\n");
  EXPECT_EQ(metadata.at("schema"), "vid:int64,day:string,time:string");
}

TEST_F(EtlStorletTest, SplitPadsMissingPieces) {
  auto out = Run("1,only-day\n",
                 {{"schema", "vid:int64,stamp:string"},
                  {"split_column", "stamp"},
                  {"split_names", "day,time"}});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, "1,only-day,\n");
}

TEST_F(EtlStorletTest, SplitValidatesParameters) {
  EXPECT_FALSE(Run("1,x\n", {{"schema", "vid:int64,stamp:string"},
                             {"split_column", "ghost"},
                             {"split_names", "a,b"}})
                   .ok());
  EXPECT_FALSE(Run("1,x\n", {{"schema", "vid:int64,stamp:string"},
                             {"split_column", "stamp"}})
                   .ok());
  EXPECT_FALSE(Run("1,x\n", {{"schema", "vid:int64,stamp:string"},
                             {"split_column", "stamp"},
                             {"split_names", "a,b"},
                             {"split_separator", "--"}})
                   .ok());
}

}  // namespace
}  // namespace scoop
