#include <gtest/gtest.h>

#include "common/strings.h"

#include <numeric>

#include "datasource/csv_source.h"
#include "datasource/parquet_source.h"
#include "datasource/partitioner.h"
#include "datasource/stocator.h"
#include "scoop/scoop.h"
#include "workload/generator.h"

namespace scoop {
namespace {

class DatasourceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SwiftConfig config;
    config.num_proxies = 1;
    config.num_storage_nodes = 3;
    config.disks_per_node = 2;
    config.part_power = 5;
    auto cluster = ScoopCluster::Create(config);
    ASSERT_TRUE(cluster.ok()) << cluster.status();
    cluster_ = std::move(cluster).value();
    auto client = cluster_->Connect("tenant", "key", "acct");
    ASSERT_TRUE(client.ok());
    client_ = std::make_unique<SwiftClient>(std::move(client).value());
    ASSERT_TRUE(client_->CreateContainer("data").ok());
  }

  std::unique_ptr<ScoopCluster> cluster_;
  std::unique_ptr<SwiftClient> client_;
};

TEST_F(DatasourceTest, PartitionDiscoveryCoversObjectsExactly) {
  ASSERT_TRUE(client_->PutObject("data", "a", std::string(1000, 'x')).ok());
  ASSERT_TRUE(client_->PutObject("data", "b", std::string(250, 'y')).ok());
  ASSERT_TRUE(client_->PutObject("data", "empty", "").ok());
  auto partitions = DiscoverPartitions(client_.get(), "data", "", 300);
  ASSERT_TRUE(partitions.ok());
  // a: 4 chunks (300+300+300+100), b: 1 chunk, empty: none.
  ASSERT_EQ(partitions->size(), 5u);
  std::map<std::string, uint64_t> covered;
  int prev_index = -1;
  for (const Partition& p : *partitions) {
    EXPECT_EQ(p.index, prev_index + 1);  // dense, ordered indices
    prev_index = p.index;
    EXPECT_LE(p.first, p.last);
    EXPECT_LT(p.last, p.object_size);
    covered[p.object] += p.length();
  }
  EXPECT_EQ(covered["a"], 1000u);
  EXPECT_EQ(covered["b"], 250u);
  EXPECT_FALSE(DiscoverPartitions(client_.get(), "data", "", 0).ok());
}

TEST_F(DatasourceTest, ObjectAwarePartitioningTargetsParallelism) {
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(client_
                    ->PutObject("data", "obj" + std::to_string(i),
                                std::string(10000, 'x'))
                    .ok());
  }
  auto partitions = DiscoverPartitionsObjectAware(client_.get(), "data", "",
                                                  8, 1000);
  ASSERT_TRUE(partitions.ok());
  EXPECT_EQ(partitions->size(), 8u);  // 40000 bytes / 8 = 5000-byte chunks
  auto coarse = DiscoverPartitionsObjectAware(client_.get(), "data", "", 1000,
                                              8000);
  ASSERT_TRUE(coarse.ok());
  // min_partition_bytes caps the split granularity: 2 chunks per object.
  EXPECT_EQ(coarse->size(), 8u);
}

TEST_F(DatasourceTest, StocatorAlignedReadsReassembleObject) {
  std::string data;
  for (int i = 0; i < 100; ++i) {
    data += "row-" + std::to_string(i) + ",payload\n";
  }
  ASSERT_TRUE(client_->PutObject("data", "obj", data).ok());
  Stocator stocator(client_.get());
  for (uint64_t chunk : {7ULL, 64ULL, 500ULL, 4096ULL}) {
    auto partitions = DiscoverPartitions(client_.get(), "data", "", chunk);
    ASSERT_TRUE(partitions.ok());
    std::string reassembled;
    for (const Partition& p : *partitions) {
      auto read = stocator.ReadPartition(p, nullptr);
      ASSERT_TRUE(read.ok()) << read.status();
      EXPECT_FALSE(read->pushdown_executed);
      reassembled += read->data;
    }
    EXPECT_EQ(reassembled, data) << "chunk=" << chunk;
  }
}

TEST_F(DatasourceTest, StocatorPushdownFiltersAtStore) {
  GridPocketGenerator generator({.num_meters = 20,
                                 .readings_per_meter = 50,
                                 .seed = 11});
  ASSERT_TRUE(generator.Upload(client_.get(), "meters", "m", 2).ok());
  Stocator stocator(client_.get());
  auto partitions = DiscoverPartitions(client_.get(), "meters", "m", 4096);
  ASSERT_TRUE(partitions.ok());
  ASSERT_GT(partitions->size(), 2u);

  PushdownTask task;
  task.schema = GridPocketGenerator::MeterSchema();
  task.projection = {"vid", "city"};
  task.selection = *SourceFilter::Parse("(like city \"Rotterdam\")");

  uint64_t pushdown_bytes = 0;
  uint64_t raw_bytes = 0;
  std::string filtered;
  for (const Partition& p : *partitions) {
    auto read = stocator.ReadPartition(p, &task);
    ASSERT_TRUE(read.ok()) << read.status();
    EXPECT_TRUE(read->pushdown_executed);
    pushdown_bytes += read->bytes_transferred;
    raw_bytes += p.length();
    filtered += read->data;
  }
  EXPECT_LT(pushdown_bytes, raw_bytes / 2) << "pushdown must shrink transfer";
  // Every returned record is a Rotterdam record with exactly two fields.
  int rows = 0;
  for (std::string_view line : Split(filtered, '\n')) {
    if (line.empty()) continue;
    ++rows;
    auto fields = Split(line, ',');
    ASSERT_EQ(fields.size(), 2u);
    EXPECT_EQ(fields[1], "Rotterdam");
  }
  EXPECT_GT(rows, 0);
}

TEST_F(DatasourceTest, CsvSourceScanEqualsGeneratedData) {
  GridPocketGenerator generator({.num_meters = 10,
                                 .readings_per_meter = 30,
                                 .seed = 4});
  ASSERT_TRUE(generator.Upload(client_.get(), "meters", "m", 3).ok());
  Stocator stocator(client_.get());
  CsvSourceOptions options;
  options.chunk_size = 2048;
  CsvDataSource source(&stocator, "meters", "m",
                       GridPocketGenerator::MeterSchema(), options);
  auto rows = source.Scan();
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_EQ(rows->size(), static_cast<size_t>(generator.TotalRows()));
}

TEST_F(DatasourceTest, CsvSourcePushdownAndPlainAgree) {
  GridPocketGenerator generator({.num_meters = 15,
                                 .readings_per_meter = 40,
                                 .seed = 9});
  ASSERT_TRUE(generator.Upload(client_.get(), "meters", "m", 2).ok());
  Stocator stocator(client_.get());
  Schema schema = GridPocketGenerator::MeterSchema();
  auto filter = SourceFilter::Parse("(like city \"Rotterdam\")");
  ASSERT_TRUE(filter.ok());
  std::vector<std::string> required = {"vid", "city", "index"};

  CsvSourceOptions pushdown_options;
  pushdown_options.chunk_size = 4096;
  pushdown_options.pushdown_enabled = true;
  CsvDataSource pushdown(&stocator, "meters", "m", schema, pushdown_options);
  bool applied = false;
  auto filtered = pushdown.ScanPrunedFiltered(required, *filter, &applied);
  ASSERT_TRUE(filtered.ok()) << filtered.status();
  EXPECT_TRUE(applied);

  CsvSourceOptions plain_options;
  plain_options.chunk_size = 4096;
  plain_options.pushdown_enabled = false;
  CsvDataSource plain(&stocator, "meters", "m", schema, plain_options);
  bool plain_applied = true;
  auto unfiltered = plain.ScanPrunedFiltered(required, *filter,
                                             &plain_applied);
  ASSERT_TRUE(unfiltered.ok());
  EXPECT_FALSE(plain_applied);

  // Applying the filter client-side over the plain scan must equal the
  // store-filtered rows.
  Schema pruned = *schema.Select(required);
  std::vector<Row> expected;
  for (const Row& row : *unfiltered) {
    std::vector<std::string> rendered;
    std::vector<std::string_view> views;
    for (const Value& v : row) rendered.push_back(v.ToString());
    for (const std::string& s : rendered) views.push_back(s);
    if (filter->Matches(views, pruned)) expected.push_back(row);
  }
  ASSERT_EQ(filtered->size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    for (size_t c = 0; c < required.size(); ++c) {
      EXPECT_EQ((*filtered)[i][c].Compare(expected[i][c]), 0);
    }
  }
}

TEST_F(DatasourceTest, ParquetSourceRoundtrip) {
  GridPocketGenerator generator({.num_meters = 8,
                                 .readings_per_meter = 25,
                                 .seed = 6});
  Schema schema = GridPocketGenerator::MeterSchema();
  std::vector<Row> rows = generator.MakeAllRows();
  ASSERT_TRUE(client_->CreateContainer("pq").ok());
  // Two objects (row groups).
  std::vector<Row> first(rows.begin(), rows.begin() + rows.size() / 2);
  std::vector<Row> second(rows.begin() + rows.size() / 2, rows.end());
  ASSERT_TRUE(WriteParquetObject(client_.get(), "pq", "part0", schema, first)
                  .ok());
  ASSERT_TRUE(WriteParquetObject(client_.get(), "pq", "part1", schema, second)
                  .ok());

  ParquetDataSource source(client_.get(), "pq", "part", schema);
  auto partitions = source.Partitions();
  ASSERT_TRUE(partitions.ok());
  EXPECT_EQ(partitions->size(), 2u);
  auto all = source.ScanPruned({"vid", "city"});
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->size(), rows.size());
  EXPECT_EQ((*all)[0][1].AsString(), rows[0][7].AsString());
}

TEST_F(DatasourceTest, ParquetStatsSkippingAvoidsDecode) {
  Schema schema({{"vid", ColumnType::kInt64}});
  ASSERT_TRUE(client_->CreateContainer("pq").ok());
  std::vector<Row> low, high;
  for (int64_t i = 0; i < 100; ++i) low.push_back({Value(i)});
  for (int64_t i = 1000; i < 1100; ++i) high.push_back({Value(i)});
  ASSERT_TRUE(WriteParquetObject(client_.get(), "pq", "low", schema, low).ok());
  ASSERT_TRUE(
      WriteParquetObject(client_.get(), "pq", "high", schema, high).ok());

  ParquetDataSource source(client_.get(), "pq", "", schema,
                           /*stats_skipping=*/true);
  auto filter = SourceFilter::Parse("(ge vid 1000)");
  ASSERT_TRUE(filter.ok());
  auto partitions = source.Partitions();
  ASSERT_TRUE(partitions.ok());
  ScanSpec spec;
  spec.required_columns = {"vid"};
  spec.filter = *filter;
  size_t total_rows = 0;
  for (const Partition& p : *partitions) {
    auto scan = source.ScanPartition(p, spec);
    ASSERT_TRUE(scan.ok());
    EXPECT_FALSE(scan->filter_applied);  // parquet never filters rows
    total_rows += static_cast<size_t>(scan->TotalRows());
  }
  // The "low" object is provably out of range and decodes to zero rows.
  EXPECT_EQ(total_rows, 100u);
}

TEST_F(DatasourceTest, EtlOnUploadPath) {
  Stocator stocator(client_.get());
  StorletParams etl;
  etl["schema"] = "vid:int64,city:string";
  ASSERT_TRUE(stocator
                  .PutObject("data", "cleaned",
                             " 1 , Paris \nbroken\n2,Nice\n", &etl)
                  .ok());
  auto body = client_->GetObject("data", "cleaned");
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(*body, "1,Paris\n2,Nice\n");
}

}  // namespace
}  // namespace scoop
