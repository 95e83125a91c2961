// Multi-tenant QoS (DESIGN.md §3k): token-bucket admission units, the
// weighted fair queue's dispatch order and depth bounds, the deadline /
// overload signals, the end-to-end shed ladder (degrade before any 503,
// every 503 carries Retry-After), tier-gated pushdown, and the scoopd
// qos_* config surface.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/sync.h"
#include "common/trace.h"
#include "objectstore/auth.h"
#include "objectstore/http.h"
#include "qos/qos.h"
#include "scoop/scoop.h"
#include "scoop/scoopd_config.h"
#include "storlets/headers.h"
#include "workload/generator.h"

namespace scoop {
namespace {

using qos::AdmitDecision;
using qos::QosConfig;
using qos::QosController;
using qos::QosTierLimits;

// ---------------------------------------------------------------------------
// Token-bucket admission units.

TEST(QosAdmissionTest, BucketAdmitsBurstThenShedsWithRetryHint) {
  QosConfig config;
  config.enabled = true;
  config.gold = QosTierLimits{200.0, 3.0, 8.0, 32};
  MetricRegistry metrics;
  QosController controller(config, &metrics);

  for (int i = 0; i < 3; ++i) {
    auto r = controller.Admit("acct", TenantTier::kGold, false, 0);
    EXPECT_EQ(r.decision, AdmitDecision::kAdmit) << i;
  }
  auto shed = controller.Admit("acct", TenantTier::kGold, false, 0);
  EXPECT_EQ(shed.decision, AdmitDecision::kShed);
  EXPECT_GE(shed.retry_after_ms, 1);
  EXPECT_EQ(metrics.GetCounter("qos.sheds")->value(), 1);

  // The bucket refills at rate_per_s; after a generous sleep the tenant
  // is admitted again.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  auto again = controller.Admit("acct", TenantTier::kGold, false, 0);
  EXPECT_EQ(again.decision, AdmitDecision::kAdmit);
}

TEST(QosAdmissionTest, PushdownLadderDegradesBeforeShedding) {
  // burst 5, pushdown_cost 4: one full pushdown, then the degrade rung
  // (raw bytes still affordable), then a shed — the ladder in order.
  QosConfig config;
  config.enabled = true;
  config.gold = QosTierLimits{1.0, 5.0, 8.0, 32};
  config.pushdown_cost = 4.0;
  MetricRegistry metrics;
  QosController controller(config, &metrics);

  auto first = controller.Admit("acct", TenantTier::kGold, true, 0);
  EXPECT_EQ(first.decision, AdmitDecision::kAdmit);
  auto second = controller.Admit("acct", TenantTier::kGold, true, 0);
  EXPECT_EQ(second.decision, AdmitDecision::kDegrade);
  auto third = controller.Admit("acct", TenantTier::kGold, true, 0);
  EXPECT_EQ(third.decision, AdmitDecision::kShed);
  EXPECT_GE(third.retry_after_ms, 1);

  EXPECT_EQ(metrics.GetCounter("qos.admitted")->value(), 1);
  EXPECT_EQ(metrics.GetCounter("qos.degrades")->value(), 1);
  EXPECT_GE(metrics.GetCounter("qos.sheds")->value(), 1);
  // Throttled decisions raised the admission-pressure signal.
  EXPECT_GT(controller.pressure(), 0.0);
}

TEST(QosAdmissionTest, ForcedDegradeThrottlesOnlyPushdown) {
  // The qos.admit failpoint hook: a full bucket still degrades a forced
  // pushdown request, while a plain GET rides free — chaos must never
  // turn plain reads into 503s.
  QosConfig config;
  config.enabled = true;
  QosController controller(config, nullptr);

  auto pushdown =
      controller.Admit("acct", TenantTier::kGold, true, 0, true);
  EXPECT_EQ(pushdown.decision, AdmitDecision::kDegrade);
  auto plain = controller.Admit("acct", TenantTier::kGold, false, 0, true);
  EXPECT_EQ(plain.decision, AdmitDecision::kAdmit);
}

TEST(QosAdmissionTest, BronzeBucketIsClampedWhenTierChanges) {
  // A tenant demoted mid-flight cannot keep spending its gold balance:
  // the next refill clamps the bucket to the bronze burst.
  QosConfig config;
  config.enabled = true;
  config.gold = QosTierLimits{1.0, 100.0, 8.0, 32};
  config.bronze = QosTierLimits{1.0, 2.0, 1.0, 8};
  QosController controller(config, nullptr);

  auto gold = controller.Admit("acct", TenantTier::kGold, false, 0);
  EXPECT_EQ(gold.decision, AdmitDecision::kAdmit);
  // Demoted: burst 2 affords two plain requests, then sheds — not the
  // ~99 tokens left from the gold envelope.
  auto r1 = controller.Admit("acct", TenantTier::kBronze, false, 0);
  EXPECT_EQ(r1.decision, AdmitDecision::kAdmit);
  auto r2 = controller.Admit("acct", TenantTier::kBronze, false, 0);
  EXPECT_EQ(r2.decision, AdmitDecision::kAdmit);
  auto r3 = controller.Admit("acct", TenantTier::kBronze, false, 0);
  EXPECT_EQ(r3.decision, AdmitDecision::kShed);
}

// ---------------------------------------------------------------------------
// Weighted fair queue.

TEST(QosQueueTest, TimeoutRaisesEwmaAndDeadlinesDegradePushdown) {
  QosConfig config;
  config.enabled = true;
  config.storlet_concurrency = 1;
  config.ewma_alpha = 1.0;  // last sample wins: deterministic EWMA
  config.max_queue_wait_us = 30'000;
  config.overload_queue_us = 5'000;
  MetricRegistry metrics;
  QosController controller(config, &metrics);
  ASSERT_TRUE(
      controller.Admit("acct", TenantTier::kGold, false, 0).decision ==
      AdmitDecision::kAdmit);

  auto held = controller.AcquireStorletSlot("acct");
  ASSERT_TRUE(held.ok()) << held.status();
  // The only slot is busy: the second acquire waits max_queue_wait_us,
  // then gives up with DeadlineExceeded (the caller degrades, no hang).
  auto starved = controller.AcquireStorletSlot("acct");
  ASSERT_FALSE(starved.ok());
  EXPECT_EQ(starved.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(metrics.GetCounter("qos.queue_timeouts")->value(), 1);

  // That wait is now the smoothed queue delay, which (a) flips the
  // overload signal and (b) predicts deadline misses at admission.
  EXPECT_GE(controller.QueueEwmaUs(), 25'000);
  EXPECT_TRUE(controller.overloaded());
  auto tight = controller.Admit("acct", TenantTier::kGold, true, 1'000);
  EXPECT_EQ(tight.decision, AdmitDecision::kDegrade);
  auto loose = controller.Admit("acct", TenantTier::kGold, true, 10'000'000);
  EXPECT_EQ(loose.decision, AdmitDecision::kAdmit);
  // A plain request has no storlet to queue for: deadlines don't shed it.
  auto plain = controller.Admit("acct", TenantTier::kGold, false, 1'000);
  EXPECT_EQ(plain.decision, AdmitDecision::kAdmit);
}

TEST(QosQueueTest, DispatchOrderFollowsVirtualTimeWeights) {
  QosConfig config;
  config.enabled = true;
  config.storlet_concurrency = 1;
  config.max_queue_wait_us = 5'000'000;
  config.gold = QosTierLimits{1000.0, 100.0, 8.0, 32};
  config.bronze = QosTierLimits{1000.0, 100.0, 1.0, 32};
  MetricRegistry metrics;
  QosController controller(config, &metrics);
  // Register the tiers the queue keys on.
  ASSERT_EQ(controller.Admit("vip", TenantTier::kGold, false, 0).decision,
            AdmitDecision::kAdmit);
  ASSERT_EQ(controller.Admit("batch", TenantTier::kBronze, false, 0).decision,
            AdmitDecision::kAdmit);

  auto held = controller.AcquireStorletSlot("vip");
  ASSERT_TRUE(held.ok()) << held.status();

  Mutex order_mu;
  std::vector<std::string> order;
  auto waiter = [&](const std::string& account) {
    auto ticket = controller.AcquireStorletSlot(account);
    ASSERT_TRUE(ticket.ok()) << account << ": " << ticket.status();
    MutexLock lock(order_mu);
    order.push_back(account);
    // The ticket dies here, releasing the slot to the next waiter.
  };
  std::vector<std::thread> threads;
  for (int i = 0; i < 3; ++i) threads.emplace_back(waiter, "batch");
  threads.emplace_back(waiter, "vip");

  // All four must be parked in the queue before the slot frees, so the
  // dispatch order is decided by finish tags alone.
  Gauge* queued = metrics.GetGauge("qos.queued");
  for (int i = 0; i < 5000 && queued->value() < 4; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(queued->value(), 4);

  held.value().reset();  // release the held slot: dispatch begins
  for (auto& t : threads) t.join();

  ASSERT_EQ(order.size(), 4u);
  // Weight 8 vs 1: the gold waiter's virtual finish tag lands ahead of
  // every bronze tag even though it enqueued last.
  EXPECT_EQ(order[0], "vip");
  EXPECT_EQ(std::count(order.begin(), order.end(), "batch"), 3);
}

TEST(QosQueueTest, PerTenantDepthBoundRejectsInsteadOfQueueing) {
  QosConfig config;
  config.enabled = true;
  config.storlet_concurrency = 1;
  config.max_queue_wait_us = 5'000'000;
  config.bronze = QosTierLimits{1000.0, 100.0, 1.0, /*max_queue_depth=*/1};
  MetricRegistry metrics;
  QosController controller(config, &metrics);
  ASSERT_EQ(controller.Admit("vip", TenantTier::kGold, false, 0).decision,
            AdmitDecision::kAdmit);
  ASSERT_EQ(controller.Admit("batch", TenantTier::kBronze, false, 0).decision,
            AdmitDecision::kAdmit);

  auto held = controller.AcquireStorletSlot("vip");
  ASSERT_TRUE(held.ok()) << held.status();

  std::atomic<bool> waiter_ok{false};
  std::thread waiter([&] {
    auto ticket = controller.AcquireStorletSlot("batch");
    waiter_ok.store(ticket.ok());
  });
  Gauge* queued = metrics.GetGauge("qos.queued");
  for (int i = 0; i < 5000 && queued->value() < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(queued->value(), 1);

  // Depth 1 is taken: the next bronze acquire is bounced immediately —
  // bounded memory per tenant, and the caller degrades.
  auto bounced = controller.AcquireStorletSlot("batch");
  ASSERT_FALSE(bounced.ok());
  EXPECT_EQ(bounced.status().code(), StatusCode::kResourceExhausted);
  EXPECT_GE(metrics.GetCounter("qos.queue_rejects")->value(), 1);

  held.value().reset();
  waiter.join();
  EXPECT_TRUE(waiter_ok.load());
}

TEST(QosQueueTest, QueueFailpointDeniesSlotAsResourceExhausted) {
  QosConfig config;
  config.enabled = true;
  MetricRegistry metrics;
  QosController controller(config, &metrics);

  FailpointSpec spec;
  spec.error = Status::IOError("injected at qos.queue");
  ASSERT_TRUE(Failpoints::Global().Arm("qos.queue", spec).ok());
  auto denied = controller.AcquireStorletSlot("acct");
  ASSERT_FALSE(denied.ok());
  EXPECT_EQ(denied.status().code(), StatusCode::kResourceExhausted);
  EXPECT_GE(metrics.GetCounter("qos.queue_rejects")->value(), 1);
  Failpoints::Global().DisarmAll();

  auto granted = controller.AcquireStorletSlot("acct");
  EXPECT_TRUE(granted.ok()) << granted.status();
}

TEST(QosControllerTest, ToJsonReportsPerTenantCounters) {
  QosConfig config;
  config.enabled = true;
  config.bronze = QosTierLimits{1.0, 1.0, 1.0, 8};
  QosController controller(config, nullptr);
  ASSERT_EQ(controller.Admit("batch", TenantTier::kBronze, false, 0).decision,
            AdmitDecision::kAdmit);
  ASSERT_EQ(controller.Admit("batch", TenantTier::kBronze, false, 0).decision,
            AdmitDecision::kShed);

  std::string json = controller.ToJson();
  EXPECT_NE(json.find("\"enabled\":true"), std::string::npos) << json;
  EXPECT_NE(json.find("\"batch\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"tier\":\"bronze\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"shed\":1"), std::string::npos) << json;
}

// ---------------------------------------------------------------------------
// scoopd config surface.

TEST(QosConfigTest, ScoopdParsesQosKeysAndTenantTiers) {
  auto parsed = ScoopdConfig::Parse(R"(
role = object
index = 0
qos_enabled = true
qos_gold_rate = 2000
qos_gold_burst = 400
qos_gold_weight = 8
qos_gold_depth = 64
qos_bronze_rate = 20
qos_bronze_burst = 5
qos_bronze_weight = 1
qos_bronze_depth = 4
qos_concurrency = 2
qos_pushdown_cost = 4
qos_default_deadline_us = 250000
qos_max_queue_wait_us = 1000000
qos_overload_queue_us = 75000
tenant = light:k1:lacct
tenant = heavy:k2:hacct:bronze
)");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_TRUE(parsed->qos.enabled);
  EXPECT_DOUBLE_EQ(parsed->qos.gold.rate_per_s, 2000.0);
  EXPECT_DOUBLE_EQ(parsed->qos.gold.burst, 400.0);
  EXPECT_EQ(parsed->qos.gold.max_queue_depth, 64);
  EXPECT_DOUBLE_EQ(parsed->qos.bronze.rate_per_s, 20.0);
  EXPECT_DOUBLE_EQ(parsed->qos.bronze.weight, 1.0);
  EXPECT_EQ(parsed->qos.bronze.max_queue_depth, 4);
  EXPECT_EQ(parsed->qos.storlet_concurrency, 2);
  EXPECT_DOUBLE_EQ(parsed->qos.pushdown_cost, 4.0);
  EXPECT_EQ(parsed->qos.default_deadline_us, 250'000);
  EXPECT_EQ(parsed->qos.max_queue_wait_us, 1'000'000);
  EXPECT_EQ(parsed->qos.overload_queue_us, 75'000);
  ASSERT_EQ(parsed->tenants.size(), 2u);
  EXPECT_EQ(parsed->tenants[0].tier, TenantTier::kGold);
  EXPECT_EQ(parsed->tenants[1].account, "hacct");
  EXPECT_EQ(parsed->tenants[1].tier, TenantTier::kBronze);

  auto bad = ScoopdConfig::Parse("role = object\ntenant = a:b:c:silver\n");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// End-to-end: the shed ladder through a live cluster.

// Sends a raw request through the cluster's front door, bypassing
// SwiftClient's Retry-After-honoring 503 retry so the test sees every
// rung of the ladder as the wire carries it.
HttpResponse RawSend(SwiftCluster& swift, const std::string& token,
                     Request request) {
  request.headers.Set(kAuthTokenHeader, token);
  HttpResponse response = swift.Handle(std::move(request));
  response.Materialize();
  return response;
}

Request PushdownGet(const std::string& account, const Schema& schema) {
  Request request = Request::Get("/" + account + "/meters/m0000.csv");
  request.headers.Set(kRunStorletHeader, "csvstorlet");
  request.headers.Set("X-Storlet-Parameter-Schema", schema.ToSpec());
  return request;
}

class QosEndToEndTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Failpoints::Global().DisarmAll();
    SwiftConfig config;
    config.num_proxies = 1;  // one controller: deterministic bucket state
    config.num_storage_nodes = 2;
    config.disks_per_node = 2;
    config.part_power = 5;
    QosConfig qos_config;
    qos_config.enabled = true;
    qos_config.gold = QosTierLimits{5000.0, 1000.0, 8.0, 64};
    qos_config.bronze = QosTierLimits{40.0, 6.0, 1.0, 4};
    qos_config.pushdown_cost = 4.0;
    auto cluster =
        ScoopCluster::Create(config, ResultCacheConfig(), qos_config);
    ASSERT_TRUE(cluster.ok()) << cluster.status();
    cluster_ = std::move(cluster).value();

    auto light = cluster_->Connect("light", "k", "lacct");
    ASSERT_TRUE(light.ok());
    light_ = std::make_unique<SwiftClient>(std::move(light).value());
    auto heavy = cluster_->Connect("heavy", "k", "hacct");
    ASSERT_TRUE(heavy.ok());
    heavy_ = std::make_unique<SwiftClient>(std::move(heavy).value());

    GeneratorConfig gen{.num_meters = 6, .readings_per_meter = 200,
                       .seed = 11};
    GridPocketGenerator generator(gen);
    // Uploads run while both tenants still enjoy the gold envelope; the
    // demotion below clamps heavy's bucket at its next request.
    ASSERT_TRUE(generator.Upload(light_.get(), "meters", "m", 2).ok());
    ASSERT_TRUE(generator.Upload(heavy_.get(), "meters", "m", 2).ok());
    schema_ = GridPocketGenerator::MeterSchema();
    ASSERT_TRUE(
        cluster_->swift().auth().SetTier("hacct", TenantTier::kBronze).ok());

    auto light_token = cluster_->swift().auth().IssueToken("light", "k");
    ASSERT_TRUE(light_token.ok());
    light_token_ = *light_token;
    auto heavy_token = cluster_->swift().auth().IssueToken("heavy", "k");
    ASSERT_TRUE(heavy_token.ok());
    heavy_token_ = *heavy_token;
  }

  void TearDown() override { Failpoints::Global().DisarmAll(); }

  std::unique_ptr<ScoopCluster> cluster_;
  std::unique_ptr<SwiftClient> light_;
  std::unique_ptr<SwiftClient> heavy_;
  std::string light_token_;
  std::string heavy_token_;
  Schema schema_;
};

TEST_F(QosEndToEndTest, LadderDegradesBeforeShedAndEveryShedCarriesHint) {
  auto reference = heavy_->GetObject("meters", "m0000.csv");
  ASSERT_TRUE(reference.ok()) << reference.status();

  int first_degrade = -1;
  int first_shed = -1;
  int admitted = 0;
  for (int i = 0; i < 30; ++i) {
    HttpResponse r =
        RawSend(cluster_->swift(), heavy_token_, PushdownGet("hacct", schema_));
    if (r.status == 503) {
      if (first_shed < 0) first_shed = i;
      // Acceptance bar: a 503 without a backoff hint is a bug.
      auto seconds = r.headers.Get(kRetryAfterHeader);
      ASSERT_TRUE(seconds.has_value()) << "503 without Retry-After at " << i;
      EXPECT_GE(std::stoll(*seconds), 1);
      auto ms = RetryAfterMillis(r.headers);
      ASSERT_TRUE(ms.has_value()) << i;
      EXPECT_GE(*ms, 1);
      EXPECT_EQ(r.headers.GetOr(kQosDecisionHeader, ""), "shed");
      continue;
    }
    ASSERT_EQ(r.status, 200) << "iteration " << i;
    if (r.headers.Has(kStorletExecutedHeader)) {
      ++admitted;
    } else {
      if (first_degrade < 0) first_degrade = i;
      // The degrade rung serves the raw object, byte-identical to a
      // plain GET: the client's fallback filter keeps results exact.
      EXPECT_EQ(r.headers.GetOr(kQosDecisionHeader, ""), "degraded");
      EXPECT_EQ(r.body(), *reference) << i;
    }
  }
  EXPECT_GE(admitted, 1);
  ASSERT_GE(first_degrade, 0) << "bucket never hit the degrade rung";
  ASSERT_GE(first_shed, 0) << "bucket never hit the shed rung";
  EXPECT_LT(first_degrade, first_shed)
      << "the ladder must degrade before it sheds";
  EXPECT_GE(cluster_->metrics().GetCounter("qos.degrades")->value(), 1);
  EXPECT_GE(cluster_->metrics().GetCounter("qos.sheds")->value(), 1);
}

TEST_F(QosEndToEndTest, HeavyTenantIsShedWhileGoldRunsUntouched) {
  int light_executed = 0;
  int light_total = 0;
  int heavy_shed = 0;
  for (int i = 0; i < 60; ++i) {
    HttpResponse h =
        RawSend(cluster_->swift(), heavy_token_, PushdownGet("hacct", schema_));
    if (h.status == 503) {
      ++heavy_shed;
      EXPECT_TRUE(RetryAfterMillis(h.headers).has_value()) << i;
    }
    if (i % 3 == 0) {
      ++light_total;
      HttpResponse l = RawSend(cluster_->swift(), light_token_,
                               PushdownGet("lacct", schema_));
      // Isolation: the antagonist burns its own bucket, not the gold
      // tenant's — every light request runs its storlet at full service.
      ASSERT_EQ(l.status, 200) << "light request " << i;
      if (l.headers.Has(kStorletExecutedHeader)) ++light_executed;
    }
  }
  EXPECT_EQ(light_executed, light_total);
  EXPECT_GE(heavy_shed, 10);

  ASSERT_NE(cluster_->qos(), nullptr);
  std::string json = cluster_->qos()->ToJson();
  EXPECT_NE(json.find("\"hacct\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"lacct\""), std::string::npos) << json;
}

TEST_F(QosEndToEndTest, QueueFaultShedsEtlPutWithHintButOnlyDegradesGets) {
  auto reference = light_->GetObject("meters", "m0000.csv");
  ASSERT_TRUE(reference.ok());

  FailpointSpec spec;
  spec.error = Status::IOError("injected at qos.queue");
  ASSERT_TRUE(Failpoints::Global().Arm("qos.queue", spec).ok());

  // A GET absorbs the denied slot by degrading: raw bytes, never a 5xx.
  HttpResponse get =
      RawSend(cluster_->swift(), light_token_, PushdownGet("lacct", schema_));
  EXPECT_EQ(get.status, 200);
  EXPECT_FALSE(get.headers.Has(kStorletExecutedHeader));
  EXPECT_EQ(get.headers.GetOr(kQosDecisionHeader, ""), "degraded");
  EXPECT_EQ(get.body(), *reference);

  // A PUT-side ETL transform cannot be skipped (it changes the stored
  // bytes): the write is shed with the standard backoff hint.
  Request put = Request::Put("/lacct/meters/etl-new.csv", *reference);
  put.headers.Set(kRunStorletHeader, "etlstorlet");
  put.headers.Set("X-Storlet-Parameter-Schema", schema_.ToSpec());
  HttpResponse shed = RawSend(cluster_->swift(), light_token_, Request(put));
  EXPECT_EQ(shed.status, 503);
  EXPECT_TRUE(shed.headers.Has(kRetryAfterHeader));
  EXPECT_TRUE(RetryAfterMillis(shed.headers).has_value());
  EXPECT_EQ(shed.headers.GetOr(kQosDecisionHeader, ""), "shed");

  // Fault cleared: the same PUT lands and the object is readable.
  Failpoints::Global().DisarmAll();
  HttpResponse ok = RawSend(cluster_->swift(), light_token_, std::move(put));
  EXPECT_TRUE(ok.ok()) << ok.status;
  EXPECT_TRUE(light_->GetObject("meters", "etl-new.csv").ok());
}

TEST_F(QosEndToEndTest, AdmitSpanEndsBeforeTheObjectServerStarts) {
  // qos.admit times the admission decision only, not the request it
  // forwards: the span must close before the object server of the same
  // trace starts serving.
  TraceCollector& traces = cluster_->traces();
  traces.Clear();
  traces.Enable();
  Request request = PushdownGet("lacct", schema_);
  {
    TraceSpan root("test.root");
    StampTraceContext(root.context(), &request.headers);
    HttpResponse r =
        RawSend(cluster_->swift(), light_token_, std::move(request));
    EXPECT_EQ(r.status, 200);
  }
  traces.Disable();
  std::vector<Span> spans = traces.Snapshot();
  traces.Clear();

  const Span* admit = nullptr;
  const Span* object = nullptr;
  for (const Span& s : spans) {
    if (s.name == "qos.admit") admit = &s;
    if (s.name == "objectserver.request" && object == nullptr) object = &s;
  }
  ASSERT_NE(admit, nullptr) << "no qos.admit span collected";
  ASSERT_NE(object, nullptr) << "no objectserver.request span collected";
  EXPECT_EQ(admit->trace_id, object->trace_id);
  EXPECT_LE(admit->end_ns, object->start_ns)
      << "qos.admit stayed open across the forwarded request";
}

// ---------------------------------------------------------------------------
// Tier-gated pushdown (§VII): the previously dormant TenantTier becomes
// load-bearing. Exercised on a QoS-less cluster so a manually pinned gate
// is not overwritten by the controller's overload relay.

TEST(TierGateTest, RaisedGateServesBronzeRawAndLeavesGoldPushdown) {
  SwiftConfig config;
  config.num_proxies = 1;
  config.num_storage_nodes = 2;
  config.disks_per_node = 2;
  config.part_power = 5;
  auto cluster_or = ScoopCluster::Create(config);
  ASSERT_TRUE(cluster_or.ok()) << cluster_or.status();
  auto cluster = std::move(cluster_or).value();

  auto vip = cluster->Connect("vip", "k", "vacct");
  ASSERT_TRUE(vip.ok());
  auto batch = cluster->Connect("batch", "k", "bacct");
  ASSERT_TRUE(batch.ok());
  GeneratorConfig gen{.num_meters = 4, .readings_per_meter = 150, .seed = 3};
  GridPocketGenerator generator(gen);
  ASSERT_TRUE(generator.Upload(&vip.value(), "meters", "m", 1).ok());
  ASSERT_TRUE(generator.Upload(&batch.value(), "meters", "m", 1).ok());
  ASSERT_TRUE(cluster->swift().auth().SetTier("bacct", TenantTier::kBronze).ok());
  Schema schema = GridPocketGenerator::MeterSchema();
  auto vip_token = cluster->swift().auth().IssueToken("vip", "k");
  auto batch_token = cluster->swift().auth().IssueToken("batch", "k");
  ASSERT_TRUE(vip_token.ok() && batch_token.ok());
  auto batch_raw = batch->GetObject("meters", "m0000.csv");
  ASSERT_TRUE(batch_raw.ok());

  // Gate down: both tiers push down.
  HttpResponse before =
      RawSend(cluster->swift(), *batch_token, PushdownGet("bacct", schema));
  ASSERT_EQ(before.status, 200);
  EXPECT_TRUE(before.headers.Has(kStorletExecutedHeader));

  cluster->policies().SetTierGate(true);
  HttpResponse gated =
      RawSend(cluster->swift(), *batch_token, PushdownGet("bacct", schema));
  ASSERT_EQ(gated.status, 200);
  EXPECT_FALSE(gated.headers.Has(kStorletExecutedHeader))
      << "bronze keeps pushdown through a raised tier gate";
  EXPECT_EQ(gated.body(), *batch_raw);
  HttpResponse gold =
      RawSend(cluster->swift(), *vip_token, PushdownGet("vacct", schema));
  ASSERT_EQ(gold.status, 200);
  EXPECT_TRUE(gold.headers.Has(kStorletExecutedHeader))
      << "a raised gate must not touch gold tenants";

  cluster->policies().SetTierGate(false);
  HttpResponse after =
      RawSend(cluster->swift(), *batch_token, PushdownGet("bacct", schema));
  ASSERT_EQ(after.status, 200);
  EXPECT_TRUE(after.headers.Has(kStorletExecutedHeader));
}

}  // namespace
}  // namespace scoop
