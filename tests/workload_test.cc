#include <gtest/gtest.h>

#include "common/strings.h"

#include <set>

#include "csv/batch_reader.h"
#include "workload/generator.h"
#include "workload/queries.h"
#include "workload/selectivity.h"
#include "workload/weblog.h"

namespace scoop {
namespace {

TEST(DateFormatTest, FormatsWithinYear) {
  EXPECT_EQ(FormatMeterDate(0), "2015-01-01 00:00:00");
  EXPECT_EQ(FormatMeterDate(10), "2015-01-01 00:10:00");
  EXPECT_EQ(FormatMeterDate(60 * 24 - 10), "2015-01-01 23:50:00");
  EXPECT_EQ(FormatMeterDate(60 * 24), "2015-01-02 00:00:00");
  EXPECT_EQ(FormatMeterDate(60 * 24 * 31), "2015-02-01 00:00:00");
  EXPECT_EQ(FormatMeterDate(60 * 24 * (31 + 28)), "2015-03-01 00:00:00");
  EXPECT_EQ(FormatMeterDate(60 * 24 * 364), "2015-12-31 00:00:00");
}

TEST(GeneratorTest, DeterministicForSeed) {
  GeneratorConfig config{.num_meters = 5, .readings_per_meter = 10, .seed = 3};
  GridPocketGenerator a(config), b(config);
  for (int64_t r = 0; r < a.TotalRows(); ++r) {
    Row ra = a.MakeRow(r);
    Row rb = b.MakeRow(r);
    ASSERT_EQ(ra.size(), rb.size());
    for (size_t c = 0; c < ra.size(); ++c) {
      EXPECT_EQ(ra[c].Compare(rb[c]), 0);
    }
  }
  GridPocketGenerator other({.num_meters = 5, .readings_per_meter = 10,
                             .seed = 4});
  bool any_different = false;
  for (int64_t r = 0; r < a.TotalRows() && !any_different; ++r) {
    if (a.MakeRow(r)[2].Compare(other.MakeRow(r)[2]) != 0) {
      any_different = true;
    }
  }
  EXPECT_TRUE(any_different);
}

TEST(GeneratorTest, RowsMatchSchemaAndAreWellFormed) {
  GridPocketGenerator generator({.num_meters = 20, .readings_per_meter = 50,
                                 .seed = 1});
  Schema schema = GridPocketGenerator::MeterSchema();
  ASSERT_EQ(schema.size(), 10u);  // the paper's 10 columns
  std::set<std::string> cities, states;
  for (int64_t r = 0; r < generator.TotalRows(); ++r) {
    Row row = generator.MakeRow(r);
    ASSERT_EQ(row.size(), schema.size());
    EXPECT_EQ(row[0].type(), ValueType::kInt64);   // vid
    EXPECT_EQ(row[1].type(), ValueType::kString);  // date
    EXPECT_TRUE(LikeMatch(row[1].AsString(), "2015-__-__ __:__:00"));
    EXPECT_GE(row[2].AsInt64(), 0);                // index cumulative
    cities.insert(row[7].AsString());
    states.insert(row[8].AsString());
  }
  EXPECT_GT(cities.size(), 3u);
  // The populations Table I's predicates rely on must exist.
  EXPECT_TRUE(cities.count("Rotterdam"));
  EXPECT_TRUE(states.count("FRA"));
  bool has_u_state = false;
  for (const std::string& s : states) {
    if (!s.empty() && s[0] == 'U') has_u_state = true;
  }
  EXPECT_TRUE(has_u_state);
}

TEST(GeneratorTest, IndexCumulativePerMeter) {
  GridPocketGenerator generator({.num_meters = 3, .readings_per_meter = 100,
                                 .seed = 8});
  // index must be (weakly) increasing per meter over time.
  for (int meter = 0; meter < 3; ++meter) {
    int64_t prev = -1;
    for (int step = 0; step < 100; ++step) {
      Row row = generator.MakeRow(step * 3 + meter);
      int64_t index = row[2].AsInt64();
      EXPECT_GE(index, prev - 25) << "meter " << meter << " step " << step;
      prev = index;
    }
  }
}

TEST(GeneratorTest, CsvMatchesTypedRows) {
  GridPocketGenerator generator({.num_meters = 4, .readings_per_meter = 25,
                                 .seed = 12});
  std::string csv;
  generator.AppendCsv(0, generator.TotalRows(), &csv);
  Schema schema = GridPocketGenerator::MeterSchema();
  CsvBatchReader reader(csv, &schema);
  RecordBatch batch;
  Row parsed;
  int64_t r = 0;
  while (reader.Next(&batch)) {
    for (int64_t i = 0; i < batch.num_rows(); ++i, ++r) {
      batch.ExtractRow(i, &parsed);
      Row expected = generator.MakeRow(r);
      for (size_t c = 0; c < expected.size(); ++c) {
        // Doubles go through a display roundtrip; compare via rendering.
        EXPECT_EQ(parsed[c].ToString(), expected[c].ToString())
            << "row " << r << " col " << c;
      }
    }
  }
  EXPECT_EQ(r, generator.TotalRows());
  EXPECT_EQ(reader.stats().malformed_rows, 0);
}

TEST(GeneratorTest, AppendCsvSlicesConcatenate) {
  GridPocketGenerator generator({.num_meters = 7, .readings_per_meter = 11,
                                 .seed = 2});
  std::string whole;
  generator.AppendCsv(0, generator.TotalRows(), &whole);
  std::string sliced;
  for (int64_t r = 0; r < generator.TotalRows(); r += 13) {
    generator.AppendCsv(r, 13, &sliced);
  }
  EXPECT_EQ(sliced, whole);
}

TEST(QueriesTest, TableOneShapes) {
  const auto& queries = GridPocketQueries();
  ASSERT_EQ(queries.size(), 7u);
  std::set<std::string> names;
  for (const auto& query : queries) {
    names.insert(query.name);
    EXPECT_GT(query.paper_column_selectivity, 0.9);
    EXPECT_GT(query.paper_row_selectivity, 0.99);
    EXPECT_GT(query.paper_data_selectivity, 0.999);
    EXPECT_NE(query.sql.find("largeMeter"), std::string::npos);
  }
  EXPECT_EQ(names.size(), 7u);
  EXPECT_TRUE(names.count("ShowGraphHCHP"));
}

TEST(SelectivityTest, MeasuresControlledFilter) {
  GridPocketGenerator generator({.num_meters = 10, .readings_per_meter = 4320,
                                 .seed = 6});  // 30 days
  std::string csv;
  generator.AppendCsv(0, generator.TotalRows(), &csv);
  Schema schema = GridPocketGenerator::MeterSchema();

  // Unfiltered full-width query: no selectivity at all.
  auto none = MeasureSelectivity("SELECT * FROM t", schema, csv);
  ASSERT_TRUE(none.ok()) << none.status();
  EXPECT_NEAR(none->row_selectivity, 0.0, 1e-9);
  EXPECT_NEAR(none->data_selectivity, 0.0, 0.02);

  // Date filter on the first ~10 days of a 30-day dataset keeps ~1/3.
  auto partial = MeasureSelectivity(
      "SELECT vid FROM t WHERE date LIKE '2015-01-0%'", schema, csv);
  ASSERT_TRUE(partial.ok());
  EXPECT_NEAR(partial->row_selectivity, 1.0 - 9.0 / 30.0, 0.05);
  // Projection to one narrow column discards most byte volume.
  EXPECT_GT(partial->column_selectivity, 0.5);
  EXPECT_GT(partial->data_selectivity, partial->row_selectivity);
}

TEST(SelectivityTest, GridPocketQueriesAreHighlySelective) {
  GridPocketGenerator generator({.num_meters = 30, .readings_per_meter = 6480,
                                 .seed = 7});  // 45 days
  std::string csv;
  generator.AppendCsv(0, generator.TotalRows(), &csv);
  Schema schema = GridPocketGenerator::MeterSchema();
  for (const GridPocketQuery& query : GridPocketQueries()) {
    auto report = MeasureSelectivity(query.sql, schema, csv);
    ASSERT_TRUE(report.ok()) << query.name << ": " << report.status();
    // All Table I queries discard most of the dataset on our synthetic
    // data too (the paper reports >99.9%; our data spans fewer months, so
    // the bar here is lower but the property is the same).
    EXPECT_GT(report->data_selectivity, 0.4) << query.name;
    EXPECT_GT(report->rows_kept, 0) << query.name;
  }
}


TEST(WeblogTest, DeterministicAndWellFormed) {
  WeblogGenerator a({.num_requests = 500, .seed = 3});
  WeblogGenerator b({.num_requests = 500, .seed = 3});
  Schema schema = WeblogGenerator::LogSchema();
  ASSERT_EQ(schema.size(), 8u);
  int64_t server_errors = 0;
  for (int64_t i = 0; i < a.TotalRows(); ++i) {
    Row ra = a.MakeRow(i);
    Row rb = b.MakeRow(i);
    ASSERT_EQ(ra.size(), schema.size());
    for (size_t c = 0; c < ra.size(); ++c) {
      EXPECT_EQ(ra[c].Compare(rb[c]), 0);
    }
    int64_t status = ra[4].AsInt64();
    EXPECT_TRUE(status == 200 || status == 304 || status == 403 ||
                status == 404 || (status >= 500 && status <= 503))
        << status;
    if (status >= 500) ++server_errors;
    EXPECT_TRUE(LikeMatch(ra[3].AsString(), "/api/v1/resource/%"));
  }
  // ~1% error rate by construction.
  EXPECT_GT(server_errors, 0);
  EXPECT_LT(server_errors, a.TotalRows() / 20);
}

TEST(WeblogTest, CsvParsesAgainstSchema) {
  WeblogGenerator generator({.num_requests = 300, .seed = 9});
  std::string csv;
  generator.AppendCsv(0, generator.TotalRows(), &csv);
  Schema schema = WeblogGenerator::LogSchema();
  CsvBatchReader reader(csv, &schema);
  RecordBatch batch;
  int64_t rows = 0;
  while (reader.Next(&batch)) rows += batch.num_rows();
  EXPECT_EQ(rows, generator.TotalRows());
  EXPECT_EQ(reader.stats().malformed_rows, 0);
}

TEST(WeblogTest, ErrorQueriesAreHighlySelective) {
  WeblogGenerator generator({.num_requests = 20000, .seed = 11});
  std::string csv;
  generator.AppendCsv(0, generator.TotalRows(), &csv);
  auto report = MeasureSelectivity(
      "SELECT path, count(*) AS n FROM logs WHERE status >= 500 "
      "GROUP BY path",
      WeblogGenerator::LogSchema(), csv);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_GT(report->row_selectivity, 0.95);
  EXPECT_GT(report->data_selectivity, 0.97);
  EXPECT_GT(report->rows_kept, 0);
}

}  // namespace
}  // namespace scoop
