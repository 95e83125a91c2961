// Per-layer measurements of the benchmark: span self time taken from the
// program's TraceCollector, and standalone calls into each layer through
// its public API, timed from outside with std::chrono::steady_clock. No
// span or metric name is added to the program; counters are read by their
// catalogued names (METRICS.md).
#ifndef SCOOP_PERFBENCH_LAYERS_H_
#define SCOOP_PERFBENCH_LAYERS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/trace.h"
#include "scoop/scoop.h"
#include "workload/generator.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using MetricList = std::vector<Metric>;

// Sorted-sample percentile with linear interpolation between closest
// ranks; `q` in [0, 1]. Returns 0 for an empty sample.
double Percentile(std::vector<double> samples, double q);

// The DESIGN.md §3f span names a workload of this benchmark can emit; the
// traced mode reports span.<name>.self_ms_per_query for each of them.
const std::vector<std::string>& LedgerSpanNames();

// Sums span self time by name. Self time is a span's duration minus the
// part of its interval covered by its children (clipped to the parent).
// Span lifetimes overlap on streamed bytes — a producer span lives as long
// as its consumer drains it — so self time is not busy time.
class SpanLedger {
 public:
  void Absorb(const std::vector<scoop::Span>& spans);
  double SelfMs(const std::string& name) const;

 private:
  std::map<std::string, int64_t> self_ns_;
};

// What the standalone layer calls run against: the workload's own
// cluster, session and data.
struct ProbeContext {
  scoop::ScoopCluster* cluster = nullptr;
  scoop::ScoopSession* session = nullptr;  // its client is the workload's
  const scoop::GridPocketGenerator* generator = nullptr;
  std::string object_bytes;  // one stored data object, as uploaded
  std::string container;     // where the data objects live
  std::string prefix;        // their name prefix
  uint64_t partition_bytes = 64 * 1024;
  // The workload's round trips over TCP (net.connects / net.reused_conns
  // deltas); both 0 when the workload runs in process.
  int64_t workload_connects = 0;
  int64_t workload_reused = 0;
};

// Runs every standalone layer call and appends its metric. Returns an
// error description (empty on success); a failed call or a wrong output
// is an error.
std::string RunLayerProbes(const ProbeContext& ctx, MetricList* out);

}  // namespace perfbench

#endif  // SCOOP_PERFBENCH_LAYERS_H_
