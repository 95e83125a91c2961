// The Table I benchmark driver. One process builds a ScoopCluster, loads
// GridPocket data made from --seed, runs one named workload for --seconds
// of whole rounds, checks every result against the reference evaluator
// (reference.h) and the method's properties, and prints one JSON object
// as its last line:
//   --trace 0: the end-to-end metrics (tracing off);
//   --trace 1: the per-layer metrics (TraceCollector on, plus the
//              standalone layer calls of layers.h).
// See perfbench/README.md for the workloads, metrics and reference figures.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/hash.h"
#include "common/strings.h"
#include "perfbench/layers.h"
#include "perfbench/reference.h"
#include "scoop/scoop.h"
#include "scoop/tcp_fabric.h"
#include "storlets/headers.h"
#include "workload/generator.h"
#include "workload/queries.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// Taken during static initialization, before main: setup_s runs from here.
const Clock::time_point kProcessStart = Clock::now();

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 0;  // required
  bool trace = false;
};

// The shape of one workload's deployment and data.
struct WorkloadSpec {
  bool pushdown = true;  // largeMeter (Scoop) vs plainMeter (plain ingest)
  // Zipfian month mix over TcpFabric with the result cache, QoS admission
  // and ETL rewrites.
  bool dashboard = false;
  int meters = 60;
  int readings = 4464;  // 31 days at the 10-minute cadence
};

// Every workload's data is split into this many objects, read in
// partitions of kPartitionBytes (a few hundred partitions per query).
constexpr int kObjects = 8;
constexpr uint64_t kPartitionBytes = 64 * 1024;

// Dashboard mix: queries per round, and one ETL rewrite after every
// kPutEvery queries of the round. The write share is an assumption, not a
// figure from the paper (see README, "Dashboard details").
constexpr int kDashboardRoundQueries = 42;
constexpr int kPutEvery = 6;
// Proxy result cache budget for the dashboard (see README: it holds the
// hot head of the mix, not its whole working set).
constexpr size_t kDashboardCacheBytes = 16u << 20;
// Variants warmed up before timing: the Table I queries, which are also
// the head of the dashboard's zipf mix (month 01 of each).
constexpr int kHotHead = 7;
// Queries a run issues at least, so ten samples lie beyond its p90.
constexpr int64_t kMinQueries = 110;

bool LookupWorkload(const std::string& name, WorkloadSpec* spec) {
  if (name == "table1_pushdown") return true;
  if (name == "table1_plain") {
    spec->pushdown = false;
    return true;
  }
  if (name == "dashboard_tcp") {
    spec->dashboard = true;
    spec->meters = 6;
    spec->readings = 52560;  // the whole of 2015
    return true;
  }
  return false;
}

int Workers() {
  unsigned n = std::thread::hardware_concurrency();
  return static_cast<int>(n == 0 ? 1 : std::min(4u, n));
}

// A round is a list of operations: a query variant's index, or
// kRewrite for an ETL rewrite of the next data object.
constexpr int kRewrite = -1;

struct Variant {
  VariantId id;
  std::string sql;
};

// Everything a run measures and checks.
struct RunState {
  std::vector<double> query_ms;
  std::vector<double> put_ms;
  std::vector<double> task_ms;
  uint64_t bytes_ingested = 0;
  uint64_t raw_bytes = 0;
  int64_t requests = 0;
  int64_t partitions = 0;
  int64_t tasks = 0;
  int64_t queries = 0;
  int64_t puts = 0;
  int64_t attempted = 0;
  int64_t failed = 0;
  bool correct = true;
  std::map<int, scoop::ResultTable> first_result;  // by variant index
  std::map<int, std::vector<double>> variant_ms;    // by variant index
  SpanLedger spans;
};

void Problem(RunState* run, const std::string& what) {
  run->correct = false;
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

// splitmix64 stream for the benchmark's own shuffles.
uint64_t NextRandom(uint64_t* state) {
  *state += 0x9e3779b97f4a7c15ULL;
  return scoop::Mix64(*state);
}

// The dashboard round: the zipf pmf of RepeatedQueryMix's variant pool
// turned into exact per-variant counts (largest remainder), shuffled by
// the seed. Every round thus has the same make-up whatever the seed, and
// only the order and the data change.
std::vector<int> DashboardRound(const scoop::RepeatedQueryMix& mix,
                               uint64_t seed) {
  const size_t n = mix.variants().size();
  std::vector<int> counts(n);
  std::vector<std::pair<double, size_t>> remainders;
  int assigned = 0;
  for (size_t r = 0; r < n; ++r) {
    double mass = mix.ExpectedHitMass(r + 1) - mix.ExpectedHitMass(r);
    double want = mass * kDashboardRoundQueries;
    counts[r] = static_cast<int>(std::floor(want));
    assigned += counts[r];
    remainders.emplace_back(want - counts[r], r);
  }
  std::stable_sort(remainders.begin(), remainders.end(),
                   [](const auto& a, const auto& b) {
                     return a.first > b.first;
                   });
  for (size_t i = 0; assigned < kDashboardRoundQueries; ++i, ++assigned) {
    ++counts[remainders[i].second];
  }
  std::vector<int> order;
  for (size_t r = 0; r < n; ++r) {
    for (int c = 0; c < counts[r]; ++c) order.push_back(static_cast<int>(r));
  }
  uint64_t state = seed ^ 0x5eed;
  for (size_t i = order.size(); i > 1; --i) {
    size_t j = NextRandom(&state) % i;
    std::swap(order[i - 1], order[j]);
  }
  std::vector<int> ops;
  for (size_t i = 0; i < order.size(); ++i) {
    ops.push_back(order[i]);
    if ((i + 1) % kPutEvery == 0) ops.push_back(kRewrite);
  }
  return ops;
}

class Bench {
 public:
  Bench(const Args& args, const WorkloadSpec& spec)
      : args_(args), spec_(spec) {}

  // Cluster build, data generation and upload, fabric start, table
  // registration, query list. Returns an error description.
  std::string Setup() {
    scoop::SwiftConfig config;
    config.num_proxies = 2;
    config.num_storage_nodes = 4;
    config.disks_per_node = 2;
    config.part_power = 6;
    scoop::ResultCacheConfig cache;
    scoop::qos::QosConfig qos;
    if (spec_.dashboard) {
      cache.enabled = true;
      cache.byte_budget = kDashboardCacheBytes;
      // An envelope no request of this closed loop comes near.
      qos.enabled = true;
      qos.gold = scoop::qos::QosTierLimits{1e6, 1e6, 8.0, 64};
      qos.storlet_concurrency = 8;
    }
    auto cluster = scoop::ScoopCluster::Create(config, cache, qos);
    if (!cluster.ok()) return "cluster: " + cluster.status().ToString();
    cluster_ = std::move(cluster).value();

    scoop::Result<scoop::SwiftClient> client =
        scoop::Status::Internal("unset");
    if (spec_.dashboard) {
      auto fabric = scoop::TcpFabric::Start(cluster_.get());
      if (!fabric.ok()) return "fabric: " + fabric.status().ToString();
      fabric_ = std::move(fabric).value();
      client = fabric_->Connect("gridpocket", "secret", "gp");
    } else {
      client = cluster_->Connect("gridpocket", "secret", "gp");
    }
    if (!client.ok()) return "connect: " + client.status().ToString();
    session_ = std::make_unique<scoop::ScoopSession>(
        cluster_.get(), std::move(client).value(), Workers());

    scoop::GeneratorConfig gen;
    gen.num_meters = spec_.meters;
    gen.readings_per_meter = spec_.readings;
    gen.seed = args_.seed;
    generator_ = std::make_unique<scoop::GridPocketGenerator>(gen);
    std::string error = Upload();
    if (!error.empty()) return error;

    scoop::CsvSourceOptions options;
    options.chunk_size = kPartitionBytes;
    const scoop::Schema schema = scoop::GridPocketGenerator::MeterSchema();
    session_->RegisterCsvTable("largeMeter", kContainer, kPrefix, schema, true,
                               options);
    session_->RegisterCsvTable("plainMeter", kContainer, kPrefix, schema,
                               false, options);

    if (spec_.dashboard) {
      scoop::QueryMixConfig mix_config;
      mix_config.seed = args_.seed;
      mix_config.distinct_queries = 84;
      scoop::RepeatedQueryMix mix(mix_config);
      for (const scoop::MixedQuery& q : mix.variants()) {
        // Variant names end in the month: "ShowMapCons@2015-03".
        auto month = scoop::ParseInt64(q.name.substr(q.name.size() - 2));
        if (!month.ok()) return "variant without a month: " + q.name;
        variants_.push_back({{q.base_index, static_cast<int>(*month)}, q.sql});
      }
      round_ = DashboardRound(mix, args_.seed);
    } else {
      const auto& bases = scoop::GridPocketQueries();
      for (size_t b = 0; b < bases.size(); ++b) {
        variants_.push_back({{static_cast<int>(b), 1},
                             spec_.pushdown ? bases[b].sql
                                            : PlainSql(bases[b].sql)});
        round_.push_back(static_cast<int>(b));
      }
    }
    return "";
  }

  // One untimed pass over the hot head: the seven hottest variants (for
  // the Table I workloads, all seven queries).
  void WarmUp(RunState* run) {
    for (int v = 0; v < kHotHead; ++v) RunQuery(v, run, /*timed=*/false);
  }

  // Whole rounds until --seconds have passed and kMinQueries were issued.
  void Measure(RunState* run) {
    const std::map<std::string, int64_t> before = Counters();
    if (args_.trace) {
      cluster_->traces().Clear();
      cluster_->traces().Enable();
    }
    Clock::time_point start = Clock::now();
    do {
      for (int op : round_) {
        if (op == kRewrite) {
          Rewrite(run);
        } else {
          RunQuery(op, run, /*timed=*/true);
        }
      }
    } while (SecondsSince(start) < args_.seconds ||
             run->queries < kMinQueries);
    timed_s_ = SecondsSince(start) - unclocked_s_;
    // Before Verify, which runs queries this workload does not time.
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    peak_rss_mb_ = static_cast<double>(usage.ru_maxrss) / 1024.0;
    cluster_->traces().Disable();
    cluster_->traces().Clear();
    for (const auto& [name, value] : Counters()) {
      counted_[name] = value - before.at(name);
    }
    if (spec_.dashboard) {
      // The QoS envelope is one no request comes near: admission runs on
      // every request and never degrades or sheds one.
      if (counted_.at("qos.admitted") <= 0) {
        Problem(run, "QoS admitted no request");
      }
      if (counted_.at("qos.degrades") != 0 || counted_.at("qos.sheds") != 0) {
        Problem(run, "QoS degraded " +
                         std::to_string(counted_.at("qos.degrades")) +
                         " and shed " +
                         std::to_string(counted_.at("qos.sheds")) +
                         " requests");
      }
    }
  }

  // Checks made after the timed phase: pushdown against plain on every
  // Table I query, and every variant's result against the reference.
  void Verify(RunState* run) {
    if (!spec_.dashboard) {
      const auto& bases = scoop::GridPocketQueries();
      for (size_t b = 0; b < bases.size(); ++b) {
        auto pushdown = session_->Sql(bases[b].sql);
        auto plain = session_->Sql(PlainSql(bases[b].sql));
        if (!pushdown.ok() || !plain.ok()) {
          Problem(run, "verification query failed: " + bases[b].name);
          continue;
        }
        if (!SameResult(pushdown->table, plain->table)) {
          Problem(run, bases[b].name + ": pushdown result differs from plain");
        }
        if (pushdown->stats.bytes_ingested > plain->stats.bytes_ingested) {
          Problem(run, bases[b].name + ": pushdown ingests more than plain");
        }
        if (plain->stats.rows_scanned != generator_->TotalRows()) {
          Problem(run, bases[b].name + ": plain scan read " +
                           std::to_string(plain->stats.rows_scanned) +
                           " rows of " +
                           std::to_string(generator_->TotalRows()));
        }
      }
    }
    std::vector<VariantId> ids;
    std::vector<int> which;
    for (const auto& [v, table] : run->first_result) {
      ids.push_back(variants_[static_cast<size_t>(v)].id);
      which.push_back(v);
    }
    std::vector<RefTable> want = ComputeReference(*generator_, ids);
    for (size_t i = 0; i < which.size(); ++i) {
      std::string diff = CompareResult(run->first_result[which[i]], want[i]);
      if (!diff.empty()) {
        Problem(run, "variant " + std::to_string(which[i]) +
                         " differs from the reference: " + diff);
      }
    }
  }

  MetricList EndToEnd(const RunState& run) const {
    MetricList out;
    const double queries = static_cast<double>(run.queries);
    // Only the dashboard writes while it queries; elsewhere the PUTs are
    // the set-up upload of the data objects.
    const std::vector<double>& puts =
        spec_.dashboard ? run.put_ms : upload_put_ms_;
    out.push_back({"setup_s", setup_s_, "s"});
    out.push_back({"query_p50_ms", Percentile(run.query_ms, 0.5), "ms"});
    out.push_back({"query_p90_ms", Percentile(run.query_ms, 0.9), "ms"});
    out.push_back({"queries_per_s", queries / timed_s_, "1/s"});
    out.push_back({"bytes_ingested_per_query",
                   static_cast<double>(run.bytes_ingested) / queries,
                   "bytes"});
    out.push_back({"put_p50_ms", Percentile(puts, 0.5), "ms"});
    out.push_back({"peak_rss_mb", peak_rss_mb_, "MB"});
    return out;
  }

  std::string PerLayer(const RunState& run, MetricList* out) {
    const double queries = static_cast<double>(run.queries);
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    auto counted = [&](const char* name) {
      return static_cast<double>(counted_.at(name));
    };
    auto add = [&](const char* name, double value, const char* unit) {
      out->push_back({name, value, unit});
    };
    add("traced.query_p50_ms", Percentile(run.query_ms, 0.5), "ms");
    add("storlets.exec_ms_per_query",
        counted("storlet.exec_ns") / 1e6 / queries, "ms");
    add("storlets.bytes_out_per_query", counted("storlet.bytes_out") / queries,
        "bytes");
    add("datasource.requests_per_partition",
        ratio(static_cast<double>(run.requests),
              static_cast<double>(run.partitions)),
        "count");
    add("datasource.ingest_ratio",
        ratio(static_cast<double>(run.bytes_ingested),
              static_cast<double>(run.raw_bytes)),
        "ratio");
    add("compute.tasks_per_query", static_cast<double>(run.tasks) / queries,
        "count");
    add("compute.task_p50_ms", Percentile(run.task_ms, 0.5), "ms");
    add("compute.final_merge_ms",
        run.spans.SelfMs("driver.final_merge") / queries, "ms");
    add("cache.hit_ratio",
        ratio(counted("cache.hits"),
              counted("cache.hits") + counted("cache.misses")),
        "ratio");
    add("cache.evictions_per_query", counted("cache.evictions") / queries,
        "count");
    add("cache.invalidations_per_put",
        ratio(counted("cache.invalidations"), static_cast<double>(run.puts)),
        "count");
    for (const std::string& name : LedgerSpanNames()) {
      out->push_back({"span." + name + ".self_ms_per_query",
                      run.spans.SelfMs(name) / queries, "ms"});
    }
    ProbeContext ctx;
    ctx.cluster = cluster_.get();
    ctx.session = session_.get();
    ctx.generator = generator_.get();
    ctx.object_bytes = objects_.front();
    ctx.container = kContainer;
    ctx.prefix = kPrefix;
    ctx.partition_bytes = kPartitionBytes;
    ctx.workload_connects = counted_.at("net.connects");
    ctx.workload_reused = counted_.at("net.reused_conns");
    return RunLayerProbes(ctx, out);
  }

  // Per-variant medians on standard error, for the README's tables.
  void Report(const RunState& run) const {
    for (const auto& [v, ms] : run.variant_ms) {
      if (ms.size() < 3) continue;
      const Variant& var = variants_[static_cast<size_t>(v)];
      std::fprintf(stderr, "variant %2d (%s@%02d): %zu runs, median %.2f ms\n",
                   v,
                   scoop::GridPocketQueries()
                       .at(static_cast<size_t>(var.id.base))
                       .name.c_str(),
                   var.id.month, ms.size(), Percentile(ms, 0.5));
    }
  }

  void set_setup_s(double s) { setup_s_ = s; }

 private:
  static constexpr char kContainer[] = "meters";
  static constexpr char kPrefix[] = "m";

  static std::string PlainSql(std::string sql) {
    size_t at = sql.find("largeMeter");
    if (at != std::string::npos) sql.replace(at, 10, "plainMeter");
    return sql;
  }

  static std::string ObjectName(size_t k) {
    return scoop::StrFormat("%s%04d.csv", kPrefix, static_cast<int>(k));
  }

  // The generator's own split into objects (GridPocketGenerator::Upload),
  // generated on Workers() threads, then PUT one by one, each PUT timed.
  std::string Upload() {
    scoop::SwiftClient& client = session_->client();
    if (!client.CreateContainer(kContainer).ok()) return "create container";
    const int64_t total = generator_->TotalRows();
    const int64_t per_object = (total + kObjects - 1) / kObjects;
    std::vector<std::string> parts(kObjects);
    {
      const int n = Workers();
      std::vector<std::thread> threads;
      for (int t = 0; t < n; ++t) {
        threads.emplace_back([&, t] {
          for (int k = t; k < kObjects; k += n) {
            const int64_t first = k * per_object;
            if (first >= total) continue;
            generator_->AppendCsv(first, std::min(per_object, total - first),
                                  &parts[static_cast<size_t>(k)]);
          }
        });
      }
      for (std::thread& thread : threads) thread.join();
    }
    for (int k = 0; k < kObjects && k * per_object < total; ++k) {
      std::string& data = parts[static_cast<size_t>(k)];
      std::string copy = data;
      Clock::time_point start = Clock::now();
      scoop::Status put = client.PutObject(kContainer, ObjectName(k),
                                           std::move(copy));
      upload_put_ms_.push_back(SecondsSince(start) * 1e3);
      if (!put.ok()) return "upload: " + put.ToString();
      // Table I workloads keep one object for the layer probes; the
      // dashboard keeps all of them for its rewrites.
      if (spec_.dashboard || objects_.empty()) {
        objects_.push_back(std::move(data));
      }
    }
    return "";
  }

  // The program's own counters the per-layer metrics are made from.
  std::map<std::string, int64_t> Counters() const {
    std::map<std::string, int64_t> values;
    for (const char* name :
         {"storlet.exec_ns", "storlet.bytes_out", "cache.hits", "cache.misses",
          "cache.evictions", "cache.invalidations", "net.connects",
          "net.reused_conns", "qos.admitted", "qos.degrades", "qos.sheds"}) {
      values[name] = Counter(name);
    }
    return values;
  }

  int64_t Counter(const char* name) const {
    return cluster_->metrics().GetCounter(name)->value();
  }

  void RunQuery(int variant, RunState* run, bool timed) {
    const Variant& v = variants_[static_cast<size_t>(variant)];
    Clock::time_point start = Clock::now();
    scoop::Result<scoop::QueryOutcome> outcome = session_->Sql(v.sql);
    const double ms = SecondsSince(start) * 1e3;
    if (timed) ++run->attempted;
    if (!outcome.ok()) {
      if (timed) ++run->failed;
      std::fprintf(stderr, "query %d failed: %s\n", variant,
                   outcome.status().ToString().c_str());
      return;
    }
    if (timed) {
      const scoop::JobStats& stats = outcome->stats;
      ++run->queries;
      run->query_ms.push_back(ms);
      run->variant_ms[variant].push_back(ms);
      run->bytes_ingested += stats.bytes_ingested;
      run->raw_bytes += stats.raw_bytes;
      run->requests += stats.requests;
      run->partitions += stats.partitions;
      run->tasks += static_cast<int64_t>(stats.tasks.size());
      for (const scoop::TaskInfo& t : stats.tasks) {
        run->task_ms.push_back(t.seconds * 1e3);
      }
      if (args_.trace) {
        run->spans.Absorb(cluster_->traces().Snapshot());
        cluster_->traces().Clear();
      }
    }
    if (!spec_.pushdown &&
        outcome->stats.rows_scanned != generator_->TotalRows()) {
      Problem(run, "plain query " + std::to_string(variant) + " read " +
                       std::to_string(outcome->stats.rows_scanned) +
                       " rows of " + std::to_string(generator_->TotalRows()));
    }
    auto [it, fresh] = run->first_result.try_emplace(variant);
    if (fresh) {
      it->second = std::move(outcome->table);
    } else if (!SameResult(outcome->table, it->second)) {
      Problem(run, "variant " + std::to_string(variant) +
                       " returned a different result than before");
    }
  }

  // Rewrites the next data object with its own bytes through the ETL
  // storlet and times the PUT. The read-back check that follows is kept
  // off the timed phase's clock and out of the span ledger.
  void Rewrite(RunState* run) {
    const size_t k = static_cast<size_t>(run->puts) % objects_.size();
    scoop::SwiftClient& client = session_->client();
    scoop::Headers headers;
    headers.Set(scoop::kRunStorletHeader, "etlstorlet");
    headers.Set(std::string(scoop::kStorletParamPrefix) + "Schema",
                scoop::GridPocketGenerator::MeterSchema().ToSpec());
    std::string copy = objects_[k];
    ++run->attempted;
    ++run->puts;
    const int64_t invoked = Counter("storlet.invocations");
    Clock::time_point start = Clock::now();
    scoop::Status put =
        client.PutObject(kContainer, ObjectName(k), std::move(copy), headers);
    const double ms = SecondsSince(start) * 1e3;
    if (!put.ok()) {
      ++run->failed;
      std::fprintf(stderr, "ETL PUT failed: %s\n", put.ToString().c_str());
      return;
    }
    run->put_ms.push_back(ms);
    Clock::time_point check = Clock::now();
    if (Counter("storlet.invocations") <= invoked) {
      Problem(run, "ETL PUT of " + ObjectName(k) + " ran no storlet");
    }
    auto back = client.GetObject(kContainer, ObjectName(k));
    if (!back.ok() || *back != objects_[k]) {
      Problem(run, "ETL rewrite of " + ObjectName(k) +
                       " did not read back byte-equal");
    }
    if (args_.trace) cluster_->traces().Clear();
    unclocked_s_ += SecondsSince(check);
  }

  const Args args_;
  const WorkloadSpec spec_;
  // Declared so that destruction runs session, then wire, then cluster.
  std::unique_ptr<scoop::ScoopCluster> cluster_;
  std::unique_ptr<scoop::TcpFabric> fabric_;
  std::unique_ptr<scoop::ScoopSession> session_;
  std::unique_ptr<scoop::GridPocketGenerator> generator_;
  std::vector<std::string> objects_;
  std::vector<double> upload_put_ms_;
  std::vector<Variant> variants_;
  std::vector<int> round_;
  double setup_s_ = 0.0;
  double timed_s_ = 0.0;
  // Time of the timed phase spent on checks, left out of timed_s_.
  double unclocked_s_ = 0.0;
  double peak_rss_mb_ = 0.0;
  // Catalogued counters' growth over the timed phase.
  std::map<std::string, int64_t> counted_;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    scoop::Result<int64_t> number = scoop::ParseInt64(value);
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed" && number.ok()) {
      args->seed = static_cast<uint64_t>(*number);
    } else if (key == "--seconds" && number.ok()) {
      args->seconds = static_cast<int>(*number);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

void PrintResult(const RunState& run, const MetricList& metrics) {
  std::string json = scoop::StrFormat(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
      run.correct ? "true" : "false", static_cast<long long>(run.attempted),
      static_cast<long long>(run.failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    json += scoop::StrFormat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                             i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                             metrics[i].unit.c_str());
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int Main(int argc, char** argv) {
  Args args;
  WorkloadSpec spec;
  if (!ParseArgs(argc, argv, &args) || !LookupWorkload(args.workload, &spec)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload "
                 "table1_pushdown|table1_plain|dashboard_tcp --seed N "
                 "--seconds S --trace 0|1\n");
    return 2;
  }
  Bench bench(args, spec);
  std::string error = bench.Setup();
  if (!error.empty()) {
    std::fprintf(stderr, "setup failed: %s\n", error.c_str());
    return 1;
  }
  RunState warm;
  bench.WarmUp(&warm);
  bench.set_setup_s(SecondsSince(kProcessStart));

  RunState run;
  run.correct = warm.correct;
  run.first_result = std::move(warm.first_result);
  bench.Measure(&run);
  bench.Verify(&run);
  bench.Report(run);

  MetricList metrics;
  if (args.trace) {
    error = bench.PerLayer(run, &metrics);
    if (!error.empty()) Problem(&run, "layer probe: " + error);
  } else {
    metrics = bench.EndToEnd(run);
  }
  PrintResult(run, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
