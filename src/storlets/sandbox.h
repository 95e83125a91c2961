// The storlet sandbox: executes filters under resource limits and meters
// what they consume (storlet.* counters, METRICS.md) — the storage-side
// cost the paper's §VI-D quantifies. Stands in for the OpenStack
// framework's Docker isolation, which is orthogonal to the behaviour
// studied here.
#ifndef SCOOP_STORLETS_SANDBOX_H_
#define SCOOP_STORLETS_SANDBOX_H_

#include <cstdint>
#include <string>

#include "common/metrics.h"
#include "common/result.h"
#include "storlets/storlet.h"

namespace scoop {

// Resource limits applied to a storlet invocation. The OpenStack framework
// isolates storlets in Docker containers; isolation is orthogonal to the
// behaviour studied here, so the sandbox provides the part that matters to
// the evaluation — metering and limiting of the resources a filter uses at
// the storage node (paper §VI-D measures exactly this overhead).
struct SandboxLimits {
  // Hard cap on bytes a filter may emit; 0 disables the cap. Filters are
  // data *reducers*; a runaway amplifier gets aborted.
  uint64_t max_output_bytes = 0;
  // Wall-clock budget in nanoseconds; 0 disables the cap.
  uint64_t max_exec_ns = 0;
};

// Usage recorded for one invocation.
struct SandboxUsage {
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  uint64_t exec_ns = 0;
};

struct SandboxResult {
  std::string output;
  std::map<std::string, std::string> metadata;
  SandboxUsage usage;
  std::vector<std::string> log_lines;
};

// Executes storlets under the configured limits and meters their resource
// use into `metrics` (counters: storlet.invocations, storlet.bytes_in,
// storlet.bytes_out, storlet.exec_ns, storlet.failures).
class Sandbox {
 public:
  Sandbox(SandboxLimits limits, MetricRegistry* metrics)
      : limits_(limits), metrics_(metrics) {}

  // Runs `storlet` over caller-provided streams (a pipelined stage
  // reading a ByteStream and writing a queue sink). The result's `output`
  // is empty — bytes went to the sink as produced. The output cap is
  // checked after the run (filters are single-pass and bounded by input
  // in practice); an upstream read error or a downstream sink error also
  // fails the stage. Note exec_ns is wall-clock and so includes time
  // blocked on queue backpressure.
  Result<SandboxResult> ExecuteStreaming(Storlet& storlet,
                                         StorletInputStream& in,
                                         StorletOutputStream& out,
                                         const StorletParams& params) const;

 private:
  SandboxLimits limits_;
  MetricRegistry* metrics_;
};

}  // namespace scoop

#endif  // SCOOP_STORLETS_SANDBOX_H_
