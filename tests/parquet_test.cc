#include <gtest/gtest.h>

#include "common/random.h"
#include "common/lz.h"
#include "datasource/parquet_format.h"

namespace scoop {
namespace {

TEST(LzTest, EmptyAndTinyInputs) {
  EXPECT_EQ(*LzDecompress(LzCompress("")), "");
  EXPECT_EQ(*LzDecompress(LzCompress("a")), "a");
  EXPECT_EQ(*LzDecompress(LzCompress("abc")), "abc");
}

TEST(LzTest, CompressesRepetitiveData) {
  std::string input;
  for (int i = 0; i < 1000; ++i) input += "2015-01-01,Rotterdam,";
  std::string compressed = LzCompress(input);
  EXPECT_LT(compressed.size(), input.size() / 4);
  EXPECT_EQ(*LzDecompress(compressed), input);
}

TEST(LzTest, OverlappingMatchRle) {
  std::string input(5000, 'x');
  std::string compressed = LzCompress(input);
  EXPECT_LT(compressed.size(), 300u);
  EXPECT_EQ(*LzDecompress(compressed), input);
}

TEST(LzTest, RejectsCorruptStreams) {
  // Match referring before the start of the output.
  std::string bad;
  bad.push_back(static_cast<char>(0x80));
  bad.push_back(5);
  bad.push_back(0);
  EXPECT_FALSE(LzDecompress(bad).ok());
  // Truncated literal run.
  std::string trunc;
  trunc.push_back(10);
  trunc += "ab";
  EXPECT_FALSE(LzDecompress(trunc).ok());
  // Output cap enforced.
  std::string input(10000, 'y');
  EXPECT_TRUE(LzDecompress(LzCompress(input), 100).status()
                  .IsResourceExhausted());
}

class LzRoundtripTest : public ::testing::TestWithParam<int> {};

TEST_P(LzRoundtripTest, RandomDataRoundtrips) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  // Mix of random and self-similar content.
  std::string input;
  while (input.size() < 50000) {
    if (rng.NextBool(0.5) && !input.empty()) {
      size_t start = rng.NextIndex(input.size());
      size_t len = std::min<size_t>(rng.NextBounded(200) + 1,
                                    input.size() - start);
      input += input.substr(start, len);
    } else {
      for (int i = 0; i < 37; ++i) {
        input.push_back(static_cast<char>(rng.NextBounded(256)));
      }
    }
  }
  auto restored = LzDecompress(LzCompress(input));
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(*restored, input);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LzRoundtripTest, ::testing::Range(1, 9));

Schema TestSchema() {
  return Schema({{"vid", ColumnType::kInt64},
                 {"city", ColumnType::kString},
                 {"load", ColumnType::kDouble}});
}

std::vector<Row> TestRows(int n) {
  Rng rng(5);
  const char* cities[] = {"Paris", "Rotterdam", "Nice"};
  std::vector<Row> rows;
  for (int i = 0; i < n; ++i) {
    Row row;
    row.push_back(rng.NextBool(0.1) ? Value::Null()
                                    : Value(static_cast<int64_t>(i)));
    row.push_back(rng.NextBool(0.1) ? Value::Null()
                                    : Value(std::string(cities[i % 3])));
    row.push_back(rng.NextBool(0.1) ? Value::Null()
                                    : Value(0.5 * i));
    rows.push_back(std::move(row));
  }
  return rows;
}

// Decodes through the batch decoder and materializes rows to compare.
Result<std::vector<Row>> DecodeRows(
    std::string_view data, const std::vector<std::string>& columns) {
  SCOOP_ASSIGN_OR_RETURN(RecordBatch batch, ParquetDecodeBatch(data, columns));
  return batch.ToRows();
}

TEST(ParquetTest, RoundtripAllColumns) {
  Schema schema = TestSchema();
  std::vector<Row> rows = TestRows(500);
  auto encoded = ParquetEncode(schema, rows);
  ASSERT_TRUE(encoded.ok());
  auto decoded = DecodeRows(*encoded, {});
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), rows.size());
  for (size_t r = 0; r < rows.size(); ++r) {
    for (size_t c = 0; c < schema.size(); ++c) {
      EXPECT_EQ((*decoded)[r][c].Compare(rows[r][c]), 0)
          << "row " << r << " col " << c;
    }
  }
}

TEST(ParquetTest, ColumnPruning) {
  Schema schema = TestSchema();
  std::vector<Row> rows = TestRows(100);
  auto encoded = ParquetEncode(schema, rows);
  ASSERT_TRUE(encoded.ok());
  auto decoded = DecodeRows(*encoded, {"load", "vid"});
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ((*decoded)[1].size(), 2u);
  EXPECT_EQ((*decoded)[1][0].Compare(rows[1][2]), 0);  // load first
  EXPECT_EQ((*decoded)[1][1].Compare(rows[1][0]), 0);  // vid second
  EXPECT_FALSE(DecodeRows(*encoded, {"ghost"}).ok());
}

TEST(ParquetTest, DictionaryEncodingKicksIn) {
  // Low-cardinality string column compresses far below plain text size.
  Schema schema({{"city", ColumnType::kString}});
  std::vector<Row> rows;
  for (int i = 0; i < 5000; ++i) {
    rows.push_back({Value(std::string(i % 2 ? "Rotterdam" : "Paris"))});
  }
  auto encoded = ParquetEncode(schema, rows);
  ASSERT_TRUE(encoded.ok());
  EXPECT_LT(encoded->size(), 5000u);  // < 1 byte per row
  auto decoded = DecodeRows(*encoded, {});
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ((*decoded)[1][0].AsString(), "Rotterdam");
  EXPECT_EQ((*decoded)[2][0].AsString(), "Paris");
}

TEST(ParquetTest, InspectReportsSchemaStatsAndRows) {
  Schema schema = TestSchema();
  std::vector<Row> rows = TestRows(64);
  auto encoded = ParquetEncode(schema, rows);
  ASSERT_TRUE(encoded.ok());
  auto info = ParquetInspect(*encoded);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->rows, 64u);
  EXPECT_EQ(info->schema, schema);
  ASSERT_EQ(info->stats.size(), 3u);
  EXPECT_TRUE(info->stats[0].has_values);
}

TEST(ParquetTest, RejectsCorruptObjects) {
  EXPECT_FALSE(ParquetInspect("not parquet at all").ok());
  Schema schema = TestSchema();
  auto encoded = ParquetEncode(schema, TestRows(10));
  ASSERT_TRUE(encoded.ok());
  std::string truncated = encoded->substr(0, encoded->size() / 2);
  EXPECT_FALSE(DecodeRows(truncated, {}).ok());
}

TEST(ParquetTest, EmptyTable) {
  Schema schema = TestSchema();
  auto encoded = ParquetEncode(schema, {});
  ASSERT_TRUE(encoded.ok());
  auto decoded = DecodeRows(*encoded, {});
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->empty());
}

TEST(ParquetTest, RowWidthMismatchRejected) {
  Schema schema = TestSchema();
  std::vector<Row> rows = {{Value(static_cast<int64_t>(1))}};  // one column
  EXPECT_FALSE(ParquetEncode(schema, rows).ok());
}

TEST(ParquetSkipTest, StatsBasedSkipping) {
  Schema schema({{"vid", ColumnType::kInt64}, {"city", ColumnType::kString}});
  std::vector<ParquetColumnStats> stats(2);
  stats[0] = {"100", "200", true};
  stats[1] = {"Amsterdam", "Paris", true};

  auto can_skip = [&](const std::string& filter_text) {
    auto filter = SourceFilter::Parse(filter_text);
    EXPECT_TRUE(filter.ok()) << filter_text;
    return ParquetCanSkip(*filter, schema, stats);
  };
  EXPECT_TRUE(can_skip("(eq vid 50)"));        // below min
  EXPECT_TRUE(can_skip("(eq vid 300)"));       // above max
  EXPECT_FALSE(can_skip("(eq vid 150)"));
  EXPECT_TRUE(can_skip("(lt vid 100)"));
  EXPECT_FALSE(can_skip("(le vid 100)"));
  EXPECT_TRUE(can_skip("(gt vid 200)"));
  EXPECT_FALSE(can_skip("(ge vid 200)"));
  EXPECT_TRUE(can_skip("(like city \"Rotter%\")"));  // above max "Paris"
  EXPECT_FALSE(can_skip("(like city \"Am%\")"));
  EXPECT_TRUE(can_skip("(and (eq vid 150) (eq vid 300))"));  // one side skips
  EXPECT_FALSE(can_skip("(or (eq vid 150) (eq vid 300))"));
  EXPECT_TRUE(can_skip("(or (eq vid 10) (eq vid 300))"));
  EXPECT_FALSE(can_skip("(true)"));
  EXPECT_FALSE(can_skip("(notnull vid)"));
}

TEST(ParquetSkipTest, AllNullColumnSkipsComparisons) {
  Schema schema({{"vid", ColumnType::kInt64}});
  std::vector<ParquetColumnStats> stats(1);  // has_values = false
  auto filter = SourceFilter::Parse("(eq vid 1)");
  EXPECT_TRUE(ParquetCanSkip(*filter, schema, stats));
  auto isnull = SourceFilter::Parse("(isnull vid)");
  EXPECT_FALSE(ParquetCanSkip(*isnull, schema, stats));
}

}  // namespace
}  // namespace scoop
