// The deterministic chaos suite: every fault the failpoint catalog can
// manufacture is thrown at the full request path — replica device errors,
// slow disks, corrupt and truncated chunks, storlet crashes mid-stream,
// backend timeouts — and the self-healing machinery (proxy failover,
// mid-stream resume, read-repair, pushdown fallback) must make each one
// invisible: byte-identical results, bounded retries, no stuck streams.
// All schedules derive from SCOOP_FAILPOINT_SEED, so a failure reproduces
// by re-running with the logged seed.
#include <gtest/gtest.h>

#include <iostream>
#include <string>
#include <tuple>
#include <vector>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "objectstore/cluster.h"
#include "scoop/scoop.h"
#include "sql/executor.h"
#include "storlets/headers.h"
#include "tests/reference/scalar_row_reader.h"
#include "workload/generator.h"

namespace scoop {
namespace {

// One replay line per suite run: the knob to turn to reproduce a failing
// schedule (the CI chaos job greps for it on failure).
class SeedLogger : public ::testing::EmptyTestEventListener {
 public:
  void OnTestProgramStart(const ::testing::UnitTest&) override {
    std::cerr << "SCOOP_FAILPOINT_SEED=" << Failpoints::Global().global_seed()
              << " (export to replay this fault schedule)" << std::endl;
  }
};

const int kRegisterSeedLogger = [] {
  ::testing::UnitTest::GetInstance()->listeners().Append(new SeedLogger);
  return 0;
}();

// ---------------------------------------------------------------------------
// Raw object path: replica failover, mid-stream resume, read-repair.

class ChaosTest : public ::testing::Test {
 protected:
  // Several integrity chunks, so mid-stream faults hit after real progress.
  static constexpr size_t kObjectSize = 5 * kIntegrityChunkSize + 1234;
  static constexpr const char* kPath = "/acct/data/obj";

  void SetUp() override {
    Failpoints::Global().DisarmAll();
    SwiftConfig config;
    config.num_proxies = 2;
    config.num_storage_nodes = 3;
    config.disks_per_node = 2;
    config.part_power = 5;
    // Tight deadlines so the slow-replica scenarios resolve in
    // milliseconds; injected latencies are an order of magnitude above the
    // budget, healthy in-memory reads are orders of magnitude below it.
    config.retry.attempt_deadline_us = 50'000;
    config.retry.read_deadline_us = 50'000;
    auto cluster = ScoopCluster::Create(config);
    ASSERT_TRUE(cluster.ok()) << cluster.status();
    cluster_ = std::move(cluster).value();
    auto client = cluster_->Connect("tenant", "key", "acct");
    ASSERT_TRUE(client.ok());
    client_ = std::make_unique<SwiftClient>(std::move(client).value());
    ASSERT_TRUE(client_->CreateContainer("data").ok());

    payload_.reserve(kObjectSize);
    uint64_t x = 0x243f6a8885a308d3ull;  // arbitrary fixed bytes
    while (payload_.size() < kObjectSize) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      payload_ += static_cast<char>('a' + (x >> 33) % 26);
    }
    ASSERT_TRUE(client_->PutObject("data", "obj", payload_).ok());
    replicas_ = cluster_->swift().ring().GetNodes(kPath);
    ASSERT_GE(replicas_.size(), 3u);
  }

  void TearDown() override { Failpoints::Global().DisarmAll(); }

  static std::string DeviceKey(int id) { return "d" + std::to_string(id); }

  Device* FindDevice(int id) {
    for (auto& server : cluster_->swift().object_servers()) {
      for (auto& device : server->devices()) {
        if (device->id() == id) return device.get();
      }
    }
    return nullptr;
  }

  int64_t Metric(const std::string& name) {
    return cluster_->metrics().GetCounter(name)->value();
  }

  std::unique_ptr<ScoopCluster> cluster_;
  std::unique_ptr<SwiftClient> client_;
  std::string payload_;
  std::vector<int> replicas_;
};

TEST_F(ChaosTest, EachReplicaFailureIsInvisible) {
  // Kill each replica's device in turn; every GET must still deliver the
  // exact payload, healing through the survivors.
  for (int device : replicas_) {
    SCOPED_TRACE("failed device " + DeviceKey(device));
    FailpointSpec spec;
    spec.key = DeviceKey(device);
    spec.error = Status::IOError("replica down");
    ASSERT_TRUE(Failpoints::Global().Arm("device.read", spec).ok());
    int64_t failovers_before = Metric("proxy.failovers");

    auto got = client_->GetObject("data", "obj");
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(*got, payload_);
    if (device == replicas_.front()) {
      // Only the primary is on the read path when healthy, so only its
      // failure forces an observable failover; losing a standby replica
      // must be a complete no-op.
      EXPECT_GT(Metric("proxy.failovers"), failovers_before);
      EXPECT_GT(Metric("faults.injected"), 0);
    } else {
      EXPECT_EQ(Metric("proxy.failovers"), failovers_before);
    }
    Failpoints::Global().Disarm("device.read");
  }
}

TEST_F(ChaosTest, UnanimousFailureSurfacesThenHeals) {
  // All replicas down: the error must surface (bounded retries, no hang);
  // clearing the fault heals the path with no residue.
  FailpointSpec spec;
  spec.error = Status::IOError("every disk on fire");
  ASSERT_TRUE(Failpoints::Global().Arm("device.read", spec).ok());
  auto got = client_->GetObject("data", "obj");
  EXPECT_FALSE(got.ok());
  // Bounded: read_sweeps x replicas evaluations, not an infinite loop.
  EXPECT_LE(Failpoints::Global().hits("device.read"),
            static_cast<int64_t>(2 * replicas_.size()));

  Failpoints::Global().DisarmAll();
  auto healed = client_->GetObject("data", "obj");
  ASSERT_TRUE(healed.ok()) << healed.status();
  EXPECT_EQ(*healed, payload_);
}

TEST_F(ChaosTest, MidStreamDropResumesByteIdentical) {
  // The primary starts streaming, then the link is cut mid-chunk: the
  // stream must resume on another replica at the exact delivered offset.
  FailpointSpec spec;
  spec.action = FailpointSpec::Action::kDrop;
  spec.key = DeviceKey(replicas_[0]);
  spec.skip = 2;  // let two chunks through first
  ASSERT_TRUE(Failpoints::Global().Arm("object.read.chunk", spec).ok());
  int64_t failovers_before = Metric("proxy.failovers");

  auto got = client_->GetObject("data", "obj");
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(*got, payload_);
  EXPECT_GT(Metric("proxy.failovers"), failovers_before);
}

TEST_F(ChaosTest, CorruptChunkDetectedAndResumed) {
  // Bit flips in a mid-object chunk: the per-chunk integrity hash must
  // catch them before delivery and the proxy must re-fetch from a clean
  // replica — the client never sees a corrupt byte.
  FailpointSpec spec;
  spec.action = FailpointSpec::Action::kCorrupt;
  spec.key = DeviceKey(replicas_[0]);
  spec.skip = 1;
  ASSERT_TRUE(Failpoints::Global().Arm("object.read.chunk", spec).ok());

  auto got = client_->GetObject("data", "obj");
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(*got, payload_);
  EXPECT_GT(Failpoints::Global().fires("object.read.chunk"), 0);
}

TEST_F(ChaosTest, RangedReadSurvivesMidStreamFault) {
  // Resume math must hold for 206 responses too: the resumed Range is
  // relative to the object, not the window.
  FailpointSpec spec;
  spec.action = FailpointSpec::Action::kDrop;
  spec.key = DeviceKey(replicas_[0]);
  spec.skip = 1;
  ASSERT_TRUE(Failpoints::Global().Arm("object.read.chunk", spec).ok());

  const uint64_t first = kIntegrityChunkSize / 2;
  const uint64_t last = kObjectSize - 7;
  auto got = client_->GetObjectRange("data", "obj", first, last);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(*got, payload_.substr(first, last - first + 1));
}

TEST_F(ChaosTest, SlowBackendTripsAttemptDeadline) {
  // The primary's backend hop stalls far beyond the attempt deadline; the
  // proxy must time it out and serve from another replica.
  FailpointSpec spec;
  spec.action = FailpointSpec::Action::kLatency;
  spec.latency_us = 300'000;  // 6x the 50ms attempt budget
  spec.key = DeviceKey(replicas_[0]);
  spec.max_fires = 1;
  ASSERT_TRUE(Failpoints::Global().Arm("proxy.backend", spec).ok());
  int64_t retries_before = Metric("proxy.retries");

  auto got = client_->GetObject("data", "obj");
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(*got, payload_);
  EXPECT_GT(Metric("proxy.retries"), retries_before);
}

TEST_F(ChaosTest, SlowChunkTripsReadDeadlineMidStream) {
  // The device serves two chunks briskly, then stalls mid-stream: the
  // per-read deadline must fire and the stream resume elsewhere.
  FailpointSpec spec;
  spec.action = FailpointSpec::Action::kLatency;
  spec.latency_us = 300'000;
  spec.key = DeviceKey(replicas_[0]);
  spec.skip = 2;
  spec.max_fires = 1;
  ASSERT_TRUE(Failpoints::Global().Arm("object.read.chunk", spec).ok());
  int64_t failovers_before = Metric("proxy.failovers");

  auto got = client_->GetObject("data", "obj");
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(*got, payload_);
  EXPECT_GT(Metric("proxy.failovers"), failovers_before);
}

TEST_F(ChaosTest, ProxyBackendErrorFailsOver) {
  FailpointSpec spec;
  spec.key = DeviceKey(replicas_[0]);
  spec.error = Status::Internal("backend unreachable");
  ASSERT_TRUE(Failpoints::Global().Arm("proxy.backend", spec).ok());

  auto got = client_->GetObject("data", "obj");
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(*got, payload_);
}

TEST_F(ChaosTest, FailoverTriggersReadRepair) {
  // Physically lose the primary replica. The read heals over the
  // survivors AND enqueues the path for read-repair; after the repair
  // pass the lost replica is back on disk.
  Device* primary = FindDevice(replicas_[0]);
  ASSERT_NE(primary, nullptr);
  ASSERT_TRUE(primary->Delete(kPath).ok());
  ASSERT_FALSE(primary->Exists(kPath));

  auto got = client_->GetObject("data", "obj");
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(*got, payload_);
  EXPECT_GE(cluster_->swift().read_repair_queue().size(), 1u);

  Replicator::Report report = cluster_->swift().RunReadRepair();
  EXPECT_EQ(report.replicas_repaired, 1);
  EXPECT_TRUE(primary->Exists(kPath));
  auto restored = primary->Get(kPath);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->data, payload_);
  // The queue drained; a second pass finds nothing to do.
  EXPECT_EQ(cluster_->swift().read_repair_queue().size(), 0u);
  EXPECT_EQ(cluster_->swift().RunReadRepair().replicas_repaired, 0);
}

TEST_F(ChaosTest, InjectedReplicaPushFailureIsCountedNotFatal) {
  // Read-repair itself can hit a broken device: the push failpoint makes
  // the repair write fail, which must be reported, not crash the pass.
  Device* primary = FindDevice(replicas_[0]);
  ASSERT_NE(primary, nullptr);
  ASSERT_TRUE(primary->Delete(kPath).ok());
  cluster_->swift().read_repair_queue().Enqueue(kPath);

  FailpointSpec spec;
  spec.key = DeviceKey(replicas_[0]);
  spec.error = Status::IOError("repair target still broken");
  ASSERT_TRUE(Failpoints::Global().Arm("replicator.push", spec).ok());
  Replicator::Report failed = cluster_->swift().RunReadRepair();
  EXPECT_EQ(failed.replicas_repaired, 0);
  EXPECT_GE(failed.replicas_unreachable, 1);
  EXPECT_FALSE(primary->Exists(kPath));

  // Fault clears; the next pass completes the heal.
  Failpoints::Global().DisarmAll();
  cluster_->swift().read_repair_queue().Enqueue(kPath);
  EXPECT_EQ(cluster_->swift().RunReadRepair().replicas_repaired, 1);
  EXPECT_TRUE(primary->Exists(kPath));
}

TEST_F(ChaosTest, SameSeedSameSchedule) {
  // The whole point of seeded injection: identical arming + identical
  // request sequence => identical fault schedule, hit for hit.
  auto run_schedule = [&] {
    FailpointSpec spec;
    spec.probability = 0.4;  // seed 0: derived from SCOOP_FAILPOINT_SEED
    spec.key = DeviceKey(replicas_[0]);
    EXPECT_TRUE(Failpoints::Global().Arm("device.read", spec).ok());
    std::vector<bool> outcomes;
    for (int i = 0; i < 20; ++i) {
      outcomes.push_back(client_->GetObject("data", "obj").ok());
    }
    int64_t fires = Failpoints::Global().fires("device.read");
    int64_t hits = Failpoints::Global().hits("device.read");
    Failpoints::Global().DisarmAll();
    return std::tuple(outcomes, fires, hits);
  };
  auto first = run_schedule();
  auto second = run_schedule();
  EXPECT_EQ(first, second);
  EXPECT_GT(std::get<1>(first), 0) << "p=0.4 over 20 reads must fire";
  // Single-replica faults stay invisible regardless of the schedule.
  for (bool ok : std::get<0>(first)) EXPECT_TRUE(ok);
}

// ---------------------------------------------------------------------------
// SQL pushdown stack: storlet faults must degrade to plain reads with
// byte-identical query results.

class ChaosQueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Failpoints::Global().DisarmAll();
    SwiftConfig config;
    config.num_proxies = 1;
    config.num_storage_nodes = 3;
    config.disks_per_node = 2;
    config.part_power = 5;
    auto cluster = ScoopCluster::Create(config);
    ASSERT_TRUE(cluster.ok()) << cluster.status();
    cluster_ = std::move(cluster).value();
    auto client = cluster_->Connect("gridpocket", "secret", "gp");
    ASSERT_TRUE(client.ok());

    GeneratorConfig gen_config;
    gen_config.num_meters = 6;
    gen_config.readings_per_meter = 400;
    gen_config.seed = 77;
    GridPocketGenerator generator(gen_config);
    session_ = std::make_unique<ScoopSession>(cluster_.get(),
                                              std::move(client).value(),
                                              /*num_workers=*/2);
    ASSERT_TRUE(generator.Upload(&session_->client(), "meters", "m",
                                 /*num_objects=*/2)
                    .ok());
    CsvSourceOptions options;
    options.chunk_size = 16 * 1024;
    session_->RegisterCsvTable("meter", "meters", "m",
                               GridPocketGenerator::MeterSchema(), true,
                               options);

    // Fault-free reference result.
    auto reference = session_->Sql(kQuery);
    ASSERT_TRUE(reference.ok()) << reference.status();
    reference_csv_ = reference->table.ToCsv();
    ASSERT_FALSE(reference->table.rows.empty());
    ASSERT_GT(reference->stats.partitions_pushdown, 0);
  }

  void TearDown() override { Failpoints::Global().DisarmAll(); }

  static constexpr const char* kQuery =
      "SELECT vid, sum(index) as total FROM meter "
      "WHERE date LIKE '2015-01%' GROUP BY vid ORDER BY vid";

  int64_t Fallbacks() {
    return cluster_->metrics().GetCounter("pushdown.fallbacks")->value();
  }

  std::unique_ptr<ScoopCluster> cluster_;
  std::unique_ptr<ScoopSession> session_;
  std::string reference_csv_;
};

TEST_F(ChaosQueryTest, StorletCrashMidStreamFallsBackIdentically) {
  // The CSV storlet dies after writing a few output chunks. The poisoned
  // queue must surface as a stream error (never a hang), and the
  // connector must redo each affected partition client-side — same rows.
  FailpointSpec spec;
  spec.skip = 3;
  ASSERT_TRUE(Failpoints::Global().Arm("engine.stage_crash", spec).ok());
  int64_t fallbacks_before = Fallbacks();

  auto faulted = session_->Sql(kQuery);
  ASSERT_TRUE(faulted.ok()) << faulted.status();
  EXPECT_EQ(faulted->table.ToCsv(), reference_csv_);
  EXPECT_GT(Fallbacks(), fallbacks_before);
  // Writes before the skip ran out succeeded, so partitions drained early
  // keep their pushdown result; every partition hit after that must have
  // degraded to a plain read.
  EXPECT_LT(faulted->stats.partitions_pushdown, faulted->stats.partitions)
      << "at least one partition should have degraded to a plain read";
}

TEST_F(ChaosQueryTest, EngineInvokeFailureFallsBackIdentically) {
  // The pipeline cannot even launch: the store answers 500 and the
  // connector degrades before consuming anything.
  FailpointSpec spec;
  spec.error = Status::Internal("sandbox exploded");
  ASSERT_TRUE(Failpoints::Global().Arm("engine.invoke", spec).ok());
  int64_t fallbacks_before = Fallbacks();

  auto faulted = session_->Sql(kQuery);
  ASSERT_TRUE(faulted.ok()) << faulted.status();
  EXPECT_EQ(faulted->table.ToCsv(), reference_csv_);
  EXPECT_GT(Fallbacks(), fallbacks_before);
}

TEST_F(ChaosQueryTest, MiddlewareFaultFallsBackIdentically) {
  FailpointSpec spec;
  spec.error = Status::Internal("middleware fault");
  ASSERT_TRUE(Failpoints::Global().Arm("middleware.get", spec).ok());
  int64_t fallbacks_before = Fallbacks();

  auto faulted = session_->Sql(kQuery);
  ASSERT_TRUE(faulted.ok()) << faulted.status();
  EXPECT_EQ(faulted->table.ToCsv(), reference_csv_);
  EXPECT_GT(Fallbacks(), fallbacks_before);
}

TEST_F(ChaosQueryTest, IntermittentStorletCrashStillConverges) {
  // A flaky storlet that crashes probabilistically: some partitions push
  // down, some fall back, the rows never change.
  FailpointSpec spec;
  spec.probability = 0.5;
  ASSERT_TRUE(Failpoints::Global().Arm("engine.stage_crash", spec).ok());

  for (int round = 0; round < 3; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    auto faulted = session_->Sql(kQuery);
    ASSERT_TRUE(faulted.ok()) << faulted.status();
    EXPECT_EQ(faulted->table.ToCsv(), reference_csv_);
  }
}

TEST_F(ChaosQueryTest, BatchPlaneFailoverMatchesScalarRowEngine) {
  // The columnar scan plane under replica failover must not just be
  // self-consistent — it must match the retired scalar row engine bit for
  // bit. The reference is computed completely outside the cluster: the
  // generator's CSV parsed row-at-a-time and executed through the local
  // plan, with no batches, no storlets, no object store.
  GeneratorConfig gen_config;
  gen_config.num_meters = 6;
  gen_config.readings_per_meter = 400;
  gen_config.seed = 77;
  GridPocketGenerator generator(gen_config);
  std::string csv;
  generator.AppendCsv(0, 6 * 400, &csv);
  Schema schema = GridPocketGenerator::MeterSchema();
  ScalarRowReader reader(csv, &schema);
  std::vector<Row> rows;
  Row row;
  while (reader.Next(&row)) rows.push_back(row);
  ASSERT_EQ(rows.size(), 2400u);
  auto reference = ExecuteSqlOverRows(kQuery, schema, rows);
  ASSERT_TRUE(reference.ok()) << reference.status();
  ASSERT_EQ(reference->ToCsv(), reference_csv_)
      << "fault-free batch plane diverges from the scalar row engine";

  const std::vector<int>& replicas =
      cluster_->swift().ring().GetNodes("/gp/meters/m0000.csv");
  ASSERT_FALSE(replicas.empty());
  FailpointSpec spec;
  spec.key = "d" + std::to_string(replicas[0]);
  spec.error = Status::IOError("replica down");
  ASSERT_TRUE(Failpoints::Global().Arm("device.read", spec).ok());

  auto faulted = session_->Sql(kQuery);
  ASSERT_TRUE(faulted.ok()) << faulted.status();
  EXPECT_EQ(faulted->table.ToCsv(), reference->ToCsv());
}

TEST_F(ChaosQueryTest, AggregateFaultDegradesToDriverSideAggregation) {
  // kQuery is aggregate-pushdown eligible (DESIGN.md §3i), so the
  // fault-free reference was produced from SAG1 partial states. When the
  // storlet engine cannot launch at all, every partition must degrade to
  // a plain GET with the aggregation done driver-side — and that result
  // must be byte-identical both to the partial-state reference and to a
  // never-pushdown registration over the same objects.
  CsvSourceOptions options;
  options.chunk_size = 16 * 1024;
  session_->RegisterCsvTable("meterNoPush", "meters", "m",
                             GridPocketGenerator::MeterSchema(), false,
                             options);
  std::string plain_sql = kQuery;
  plain_sql.replace(plain_sql.find("meter"), 5, "meterNoPush");
  auto plain = session_->Sql(plain_sql);
  ASSERT_TRUE(plain.ok()) << plain.status();
  ASSERT_EQ(plain->table.ToCsv(), reference_csv_)
      << "driver-side aggregation diverges from partial-state pushdown";

  FailpointSpec spec;
  spec.error = Status::Internal("sandbox exploded");
  ASSERT_TRUE(Failpoints::Global().Arm("engine.invoke", spec).ok());
  int64_t fallbacks_before = Fallbacks();
  int64_t partials_before =
      cluster_->metrics().GetCounter("pushdown.partial_aggs")->value();

  auto faulted = session_->Sql(kQuery);
  ASSERT_TRUE(faulted.ok()) << faulted.status();
  EXPECT_EQ(faulted->table.ToCsv(), reference_csv_);
  EXPECT_GT(Fallbacks(), fallbacks_before);
  EXPECT_EQ(faulted->stats.partitions_pushdown, 0);
  // Nothing aggregated store-side during the outage.
  EXPECT_EQ(cluster_->metrics().GetCounter("pushdown.partial_aggs")->value(),
            partials_before);
}

TEST_F(ChaosQueryTest, MidStreamFaultNeverDoubleCountsPartials) {
  // A partition's SAG1 response dies mid-stream (dropped device chunk on
  // the primary) and the read recovers — by proxy-level failover or by
  // the connector's plain-read fallback. Either way a partially-drained
  // frame must be discarded, never merged: a replayed or double-merged
  // partial state would inflate sum/count, which ToCsv equality catches.
  GeneratorConfig gen_config;
  gen_config.num_meters = 6;
  gen_config.readings_per_meter = 400;
  gen_config.seed = 77;
  GridPocketGenerator generator(gen_config);
  std::string csv;
  generator.AppendCsv(0, 6 * 400, &csv);
  Schema schema = GridPocketGenerator::MeterSchema();
  ScalarRowReader reader(csv, &schema);
  std::vector<Row> rows;
  Row row;
  while (reader.Next(&row)) rows.push_back(row);
  auto outside = ExecuteSqlOverRows(kQuery, schema, rows);
  ASSERT_TRUE(outside.ok()) << outside.status();
  ASSERT_EQ(outside->ToCsv(), reference_csv_);

  const std::vector<int>& replicas =
      cluster_->swift().ring().GetNodes("/gp/meters/m0000.csv");
  ASSERT_FALSE(replicas.empty());
  FailpointSpec spec;
  spec.action = FailpointSpec::Action::kDrop;
  spec.key = "d" + std::to_string(replicas[0]);
  spec.skip = 1;  // die after real partial-frame bytes went out
  ASSERT_TRUE(Failpoints::Global().Arm("object.read.chunk", spec).ok());

  auto faulted = session_->Sql(kQuery);
  ASSERT_TRUE(faulted.ok()) << faulted.status();
  EXPECT_EQ(faulted->table.ToCsv(), reference_csv_);

  // And under a probabilistic drop across several rounds: whatever mix of
  // clean pushdown, failover, and fallback each round lands on, the
  // aggregates never drift.
  Failpoints::Global().DisarmAll();
  FailpointSpec flaky;
  flaky.action = FailpointSpec::Action::kDrop;
  flaky.key = "d" + std::to_string(replicas[0]);  // healthy replicas remain
  flaky.probability = 0.5;
  ASSERT_TRUE(Failpoints::Global().Arm("object.read.chunk", flaky).ok());
  for (int round = 0; round < 3; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    auto outcome = session_->Sql(kQuery);
    ASSERT_TRUE(outcome.ok()) << outcome.status();
    EXPECT_EQ(outcome->table.ToCsv(), reference_csv_);
  }
}

TEST_F(ChaosQueryTest, ReplicaFaultUnderPushdownIsInvisible) {
  // A device error under a pushdown read exercises the proxy's
  // response-level failover with storlet headers in play.
  const std::vector<int>& replicas =
      cluster_->swift().ring().GetNodes("/gp/meters/m0000.csv");
  ASSERT_FALSE(replicas.empty());
  FailpointSpec spec;
  spec.key = "d" + std::to_string(replicas[0]);
  spec.error = Status::IOError("replica down");
  ASSERT_TRUE(Failpoints::Global().Arm("device.read", spec).ok());

  auto faulted = session_->Sql(kQuery);
  ASSERT_TRUE(faulted.ok()) << faulted.status();
  EXPECT_EQ(faulted->table.ToCsv(), reference_csv_);
}

}  // namespace
}  // namespace scoop
