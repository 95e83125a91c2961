#include "perfbench/layers.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>

#include "cache/result_cache.h"
#include "columnar/batch_wire.h"
#include "common/bytestream.h"
#include "common/strings.h"
#include "csv/batch_reader.h"
#include "datasource/partitioner.h"
#include "qos/qos.h"
#include "scoop/tcp_fabric.h"
#include "sql/agg_wire.h"
#include "sql/executor.h"
#include "sql/parser.h"
#include "storlets/storlet.h"
#include "workload/queries.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using scoop::Status;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Calls `fn` until `budget_s` has passed and at least `min_reps` calls
// were made; returns the mean seconds per call. `fn` returns false on a
// failure, which stops the loop and yields a negative result.
template <typename Fn>
double MeanSeconds(Fn&& fn, double budget_s = 0.3, int min_reps = 3) {
  int reps = 0;
  Clock::time_point start = Clock::now();
  double elapsed = 0.0;
  do {
    if (!fn()) return -1.0;
    ++reps;
    elapsed = SecondsSince(start);
  } while (reps < min_reps || elapsed < budget_s);
  return elapsed / reps;
}

constexpr double kMB = 1e6;

// Base query indices (scoop::GridPocketQueries()) whose shapes the probes
// use: ShowMapCons is a select-only pushdown, Showgraphcons a partial
// aggregate pushdown.
constexpr int kSelectOnlyQuery = 0;
constexpr int kAggQuery = 3;

scoop::Result<std::shared_ptr<const scoop::PhysicalPlan>> PlanFor(int base) {
  SCOOP_ASSIGN_OR_RETURN(
      scoop::SelectStatement stmt,
      scoop::ParseSql(
          scoop::GridPocketQueries().at(static_cast<size_t>(base)).sql));
  return scoop::PhysicalPlan::Create(
      stmt, scoop::GridPocketGenerator::MeterSchema());
}

// Runs one storlet over `input` through the streaming pipeline and
// returns its whole output.
scoop::Result<std::string> RunStreaming(
    scoop::StorletEngine& engine, const std::string& container,
    const scoop::StorletInvocation& invocation,
    const std::shared_ptr<const std::string>& input) {
  auto stream = std::make_shared<scoop::SharedBufferByteStream>(
      input, std::string_view(*input));
  SCOOP_ASSIGN_OR_RETURN(
      scoop::StorletEngine::StreamingPipeline pipeline,
      engine.RunPipelineStreaming("gp", container, {invocation}, stream));
  return pipeline.output->ReadAll();
}

// Loopback probe on a small cluster of its own: the same GET in process
// and over TcpFabric, and a bulk GET over TcpFabric.
std::string NetProbe(MetricList* out, int64_t* connects, int64_t* reused) {
  auto cluster = scoop::ScoopCluster::Create();
  if (!cluster.ok()) return "net probe cluster: " + cluster.status().ToString();
  auto inproc = (*cluster)->Connect("netprobe", "key", "netprobe");
  if (!inproc.ok()) return "net probe connect: " + inproc.status().ToString();
  if (!inproc->CreateContainer("net").ok()) return "net probe container";
  std::string small(1024, 'x');
  std::string bulk(8u << 20, '\0');
  for (size_t i = 0; i < bulk.size(); ++i) {
    bulk[i] = static_cast<char>('a' + (i * 7919) % 26);
  }
  if (!inproc->PutObject("net", "small", small).ok() ||
      !inproc->PutObject("net", "bulk", bulk).ok()) {
    return "net probe upload failed";
  }
  auto get_small = [&](scoop::SwiftClient& client) {
    auto body = client.GetObject("net", "small");
    return body.ok() && *body == small;
  };
  double inproc_s = MeanSeconds([&] { return get_small(*inproc); });
  if (inproc_s < 0) return "net probe: in-process GET failed";

  auto fabric = scoop::TcpFabric::Start(cluster->get());
  if (!fabric.ok()) return "net probe fabric: " + fabric.status().ToString();
  auto tcp = (*fabric)->Connect("netprobe", "key", "netprobe");
  if (!tcp.ok()) return "net probe tcp connect: " + tcp.status().ToString();
  double tcp_s = MeanSeconds([&] { return get_small(*tcp); });
  double bulk_s = MeanSeconds([&] {
    auto body = tcp->GetObject("net", "bulk");
    return body.ok() && body->size() == bulk.size();
  });
  if (tcp_s < 0 || bulk_s < 0) return "net probe: TCP GET failed";
  out->push_back({"net.get_overhead_us", (tcp_s - inproc_s) * 1e6, "us"});
  out->push_back(
      {"net.bulk_get_mb_s", static_cast<double>(bulk.size()) / kMB / bulk_s,
       "MB/s"});
  scoop::MetricRegistry& m = (*cluster)->metrics();
  *connects = m.GetCounter("net.connects")->value();
  *reused = m.GetCounter("net.reused_conns")->value();
  fabric->reset();
  return "";
}

std::string StorletProbes(const ProbeContext& ctx,
                          const std::shared_ptr<const std::string>& object,
                          MetricList* out, std::string* agg_frame) {
  scoop::StorletEngine& engine = ctx.cluster->engine();
  const std::string schema =
      scoop::GridPocketGenerator::MeterSchema().ToSpec();
  const double mb = static_cast<double>(object->size()) / kMB;

  auto select_plan = PlanFor(kSelectOnlyQuery);
  auto agg_plan = PlanFor(kAggQuery);
  if (!select_plan.ok() || !agg_plan.ok()) return "probe query plans failed";
  const scoop::AggPushdownSpec* agg = (*agg_plan)->agg_pushdown();
  if (agg == nullptr) return "Showgraphcons no longer pushes its aggregate";

  scoop::StorletInvocation csv{
      "csvstorlet",
      {{"schema", schema},
       {"projection", scoop::Join((*select_plan)->required_columns(), ",")},
       {"selection", (*select_plan)->pushed_filter().Serialize()}}};
  scoop::StorletInvocation partials{
      "aggstorlet",
      {{"schema", schema},
       {"output", "partials"},
       {"input", "text"},
       {"aggs", agg->AggsParam()},
       {"selection", (*agg_plan)->pushed_filter().Serialize()}}};
  if (!agg->group_specs.empty()) partials.params["group"] = agg->GroupParam();

  std::string error;
  double csv_s = MeanSeconds([&] {
    auto r = RunStreaming(engine, ctx.container, csv, object);
    if (!r.ok()) error = r.status().ToString();
    return r.ok() && !r->empty();
  });
  double agg_s = MeanSeconds([&] {
    auto r = RunStreaming(engine, ctx.container, partials, object);
    if (!r.ok()) {
      error = r.status().ToString();
      return false;
    }
    *agg_frame = std::move(r).value();
    return true;
  });
  std::vector<scoop::StorletInvocation> etl{
      {"etlstorlet", {{"schema", schema}}}};
  double etl_s = MeanSeconds([&] {
    auto r = engine.RunPipeline("gp", ctx.container, etl, *object);
    if (!r.ok()) {
      error = r.status().ToString();
      return false;
    }
    if (r->output != *object) {
      error = "ETL of clean generator CSV changed its bytes";
      return false;
    }
    return true;
  });
  if (csv_s < 0 || agg_s < 0 || etl_s < 0) return "storlet probe: " + error;
  out->push_back({"storlets.csv_filter_mb_s", mb / csv_s, "MB/s"});
  out->push_back({"storlets.agg_filter_mb_s", mb / agg_s, "MB/s"});
  out->push_back({"storlets.etl_mb_s", mb / etl_s, "MB/s"});
  return "";
}

std::string ColumnarAndSqlProbes(const ProbeContext& ctx,
                                 const std::string& agg_frame,
                                 MetricList* out) {
  const std::string& bytes = ctx.object_bytes;
  const double mb = static_cast<double>(bytes.size()) / kMB;
  const scoop::Schema schema = scoop::GridPocketGenerator::MeterSchema();

  double scan_s = MeanSeconds([&] {
    scoop::StorletInputStream input{std::string_view(bytes)};
    scoop::CsvStreamBatcher batcher(&input, schema.size());
    scoop::RawRecordBatch raw;
    int64_t rows = 0;
    while (batcher.Next(&raw)) rows += raw.num_rows;
    return rows > 0;
  });
  std::vector<scoop::RecordBatch> batches;
  double read_s = MeanSeconds([&] {
    batches.clear();
    scoop::CsvBatchReader reader(bytes, &schema);
    scoop::RecordBatch batch;
    while (reader.Next(&batch)) batches.push_back(std::move(batch));
    return !batches.empty();
  });
  std::string wire;
  double encode_s = MeanSeconds([&] {
    wire.clear();
    for (const scoop::RecordBatch& b : batches) {
      scoop::AppendBatchFrame(b, &wire);
    }
    return !wire.empty();
  });
  double decode_s = MeanSeconds([&] {
    scoop::BatchWireReader reader;
    reader.Feed(wire);
    scoop::RecordBatch batch;
    size_t decoded = 0;
    for (;;) {
      auto more = reader.Next(&batch);
      if (!more.ok()) return false;
      if (!*more) break;
      ++decoded;
    }
    return decoded == batches.size();
  });
  if (scan_s < 0 || read_s < 0 || encode_s < 0 || decode_s < 0) {
    return "columnar probe failed";
  }
  const double wire_mb = static_cast<double>(wire.size()) / kMB;
  out->push_back({"columnar.csv_scan_mb_s", mb / scan_s, "MB/s"});
  out->push_back({"columnar.csv_batch_read_mb_s", mb / read_s, "MB/s"});
  out->push_back({"columnar.sbt1_encode_mb_s", wire_mb / encode_s, "MB/s"});
  out->push_back({"columnar.sbt1_decode_mb_s", wire_mb / decode_s, "MB/s"});

  // sql.plan_us: parse plus EXPLAIN of each Table I query, per query.
  const size_t num_queries = scoop::GridPocketQueries().size();
  double plan_s = MeanSeconds([&] {
    for (const scoop::GridPocketQuery& q : scoop::GridPocketQueries()) {
      if (!scoop::ParseSql(q.sql).ok()) return false;
      if (!ctx.session->spark().ExplainSql(q.sql).ok()) return false;
    }
    return true;
  });
  double sag1_s = MeanSeconds(
      [&] {
        for (int i = 0; i < 100; ++i) {
          scoop::AggWireReader reader;
          reader.Feed(agg_frame);
          scoop::AggPartialFrame frame;
          auto got = reader.Next(&frame);
          if (!got.ok() || !*got) return false;
        }
        return true;
      },
      0.2, 1);
  auto plan = PlanFor(kSelectOnlyQuery);
  if (!plan.ok()) return "eval probe plan failed";
  std::vector<int> indices;
  for (const std::string& name : (*plan)->required_columns()) {
    indices.push_back(schema.IndexOf(name));
  }
  std::vector<scoop::RecordBatch> projected;
  int64_t rows = 0;
  for (const scoop::RecordBatch& b : batches) {
    projected.push_back(b.SelectColumns((*plan)->scan_schema(), indices));
    rows += b.num_rows();
  }
  double eval_s = MeanSeconds([&] {
    scoop::PartialResult partial;
    for (const scoop::RecordBatch& b : projected) {
      (*plan)->ProcessBatch(b, /*filters_already_applied=*/false, &partial);
    }
    return partial.rows_seen == rows;
  });
  if (plan_s < 0 || sag1_s < 0 || eval_s < 0) return "sql probe failed";
  out->push_back({"sql.plan_us",
                  plan_s * 1e6 / static_cast<double>(num_queries), "us"});
  out->push_back({"sql.sag1_decode_us", sag1_s * 1e6 / 100.0, "us"});
  out->push_back({"sql.eval_mrows_s",
                  static_cast<double>(rows) / 1e6 / eval_s, "Mrows/s"});
  return "";
}

std::string ObjectStoreAndDatasourceProbes(const ProbeContext& ctx,
                                           MetricList* out) {
  scoop::SwiftClient& client = ctx.session->client();
  const std::string& bytes = ctx.object_bytes;
  const double mb = static_cast<double>(bytes.size()) / kMB;
  if (!client.CreateContainer("perfprobe").ok()) return "probe container";

  std::vector<double> put_s;
  for (int i = 0; i < 6; ++i) {
    std::string copy = bytes;
    Clock::time_point start = Clock::now();
    if (!client.PutObject("perfprobe", "object.csv", std::move(copy)).ok()) {
      return "probe PUT failed";
    }
    put_s.push_back(SecondsSince(start));
  }
  double get_s = MeanSeconds([&] {
    auto body = client.GetObject("perfprobe", "object.csv");
    return body.ok() && *body == bytes;
  });
  if (get_s < 0) return "probe GET failed";
  out->push_back({"objectstore.put_mb_s", mb / Percentile(put_s, 0.5),
                  "MB/s"});
  out->push_back({"objectstore.get_mb_s", mb / get_s, "MB/s"});

  auto partitions = scoop::DiscoverPartitions(&client, ctx.container,
                                              ctx.prefix, ctx.partition_bytes);
  if (!partitions.ok() || partitions->empty()) return "probe partitions";
  auto plan = PlanFor(kSelectOnlyQuery);
  if (!plan.ok()) return "probe plan failed";
  scoop::PushdownTask task;
  task.schema = scoop::GridPocketGenerator::MeterSchema();
  task.projection = (*plan)->required_columns();
  task.selection = (*plan)->pushed_filter();
  const size_t step = std::max<size_t>(1, partitions->size() / 48);
  std::vector<double> pushdown_ms;
  std::vector<double> plain_ms;
  for (size_t i = 0; i < partitions->size(); i += step) {
    const scoop::Partition& p = (*partitions)[i];
    for (bool pushdown : {true, false}) {
      uint64_t consumed = 0;
      Clock::time_point start = Clock::now();
      auto stats = ctx.session->stocator().ReadPartitionInto(
          p, pushdown ? &task : nullptr, [&](std::string_view chunk) {
            consumed += chunk.size();
            return Status::OK();
          });
      double ms = SecondsSince(start) * 1e3;
      if (!stats.ok() || stats->pushdown_executed != pushdown) {
        return "probe partition read failed";
      }
      (pushdown ? pushdown_ms : plain_ms).push_back(ms);
    }
  }
  out->push_back(
      {"datasource.pushdown_read_ms", Percentile(pushdown_ms, 0.5), "ms"});
  out->push_back({"datasource.plain_read_ms", Percentile(plain_ms, 0.5), "ms"});
  return "";
}

std::string CacheAndQosProbes(MetricList* out) {
  scoop::MetricRegistry registry;
  scoop::ResultCacheConfig config;
  config.enabled = true;
  scoop::ResultCache cache(config, &registry);
  const std::string path = "/gp/meters/m0000.csv";
  const std::string key = scoop::ResultCache::MakeKey(path, "etag", "fp");
  scoop::CachedResult result;
  result.body = std::make_shared<const std::string>(64 * 1024, 'x');
  if (!cache.Insert(key, path, result)) return "cache probe insert refused";
  double lookup_s = MeanSeconds([&] {
    for (int i = 0; i < 1000; ++i) {
      if (!cache.Lookup(key).has_value()) return false;
    }
    return true;
  });

  scoop::qos::QosConfig qos_config;
  qos_config.enabled = true;
  qos_config.gold = scoop::qos::QosTierLimits{1e9, 1e9, 8.0, 64};
  scoop::qos::QosController qos(qos_config, &registry);
  double admit_s = MeanSeconds([&] {
    for (int i = 0; i < 1000; ++i) {
      auto r = qos.Admit("gp", scoop::TenantTier::kGold, true, 0);
      if (r.decision != scoop::qos::AdmitDecision::kAdmit) return false;
    }
    return true;
  });
  if (lookup_s < 0 || admit_s < 0) return "cache/qos probe failed";
  out->push_back({"cache.lookup_hit_us", lookup_s * 1e6 / 1000.0, "us"});
  out->push_back({"qos.admit_us", admit_s * 1e6 / 1000.0, "us"});
  return "";
}

}  // namespace

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  double pos = q * static_cast<double>(samples.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, samples.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

const std::vector<std::string>& LedgerSpanNames() {
  static const std::vector<std::string>& names = *new std::vector<std::string>{
      "stocator.read_partition", "stocator.read_aligned",
      "pushdown.partial_agg",    "driver.final_merge",
      "proxy.request",           "proxy.attempt",
      "objectserver.request",    "middleware.get",
      "storlet.stage",           "cache.lookup",
      "cache.fill",              "net.server",
      "net.roundtrip",           "qos.admit",
  };
  return names;
}

void SpanLedger::Absorb(const std::vector<scoop::Span>& spans) {
  std::map<uint64_t, std::vector<const scoop::Span*>> children;
  for (const scoop::Span& s : spans) {
    if (s.parent_id != 0) children[s.parent_id].push_back(&s);
  }
  for (const scoop::Span& s : spans) {
    std::vector<std::pair<int64_t, int64_t>> covered;
    auto it = children.find(s.span_id);
    if (it != children.end()) {
      for (const scoop::Span* c : it->second) {
        int64_t lo = std::max(c->start_ns, s.start_ns);
        int64_t hi = std::min(c->end_ns, s.end_ns);
        if (hi > lo) covered.emplace_back(lo, hi);
      }
    }
    std::sort(covered.begin(), covered.end());
    int64_t union_ns = 0;
    int64_t cur_lo = 0;
    int64_t cur_hi = -1;
    for (const auto& [lo, hi] : covered) {
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) union_ns += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) union_ns += cur_hi - cur_lo;
    self_ns_[s.name] += std::max<int64_t>(0, s.duration_ns() - union_ns);
  }
}

double SpanLedger::SelfMs(const std::string& name) const {
  auto it = self_ns_.find(name);
  return it == self_ns_.end() ? 0.0 : static_cast<double>(it->second) / 1e6;
}

std::string RunLayerProbes(const ProbeContext& ctx, MetricList* out) {
  // The probes measure layers, not the cache: reads must reach the store.
  const bool cache_was_on = ctx.cluster->result_cache().enabled();
  ctx.cluster->result_cache().set_enabled(false);

  std::string error;
  double gen_s = MeanSeconds([&] {
    std::string csv;
    ctx.generator->AppendCsv(0, 20000, &csv);
    return !csv.empty();
  });
  std::string sample;
  ctx.generator->AppendCsv(0, 20000, &sample);
  out->push_back({"workload.generate_mb_s",
                  static_cast<double>(sample.size()) / kMB / gen_s, "MB/s"});

  auto object = std::make_shared<const std::string>(ctx.object_bytes);
  std::string agg_frame;
  error = ObjectStoreAndDatasourceProbes(ctx, out);
  if (error.empty()) error = StorletProbes(ctx, object, out, &agg_frame);
  if (error.empty()) error = ColumnarAndSqlProbes(ctx, agg_frame, out);
  if (error.empty()) error = CacheAndQosProbes(out);
  int64_t connects = ctx.workload_connects;
  int64_t reused = ctx.workload_reused;
  if (error.empty()) {
    int64_t probe_connects = 0;
    int64_t probe_reused = 0;
    error = NetProbe(out, &probe_connects, &probe_reused);
    if (connects + reused == 0) {
      connects = probe_connects;
      reused = probe_reused;
    }
  }
  const int64_t round_trips = connects + reused;
  out->push_back({"net.pool_reuse_ratio",
                  round_trips > 0 ? static_cast<double>(reused) /
                                        static_cast<double>(round_trips)
                                  : 0.0,
                  "ratio"});
  ctx.cluster->result_cache().set_enabled(cache_was_on);
  return error;
}

}  // namespace perfbench
