// The storlet engine: resolves deployed filters from the registry,
// checks policy, and runs single invocations or multi-stage streaming
// pipelines (one thread per stage, bounded SPSC queues between them —
// DESIGN.md §3c). Stage threads open "storlet.stage" trace spans and
// feed the storlet.stage_us histogram (DESIGN.md §3f). Queue locking per
// DESIGN.md §3d.
#ifndef SCOOP_STORLETS_ENGINE_H_
#define SCOOP_STORLETS_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/result.h"
#include "objectstore/http.h"
#include "storlets/policy.h"
#include "storlets/registry.h"
#include "storlets/sandbox.h"
#include "storlets/storlet.h"

namespace scoop {

// One storlet of a request's pipeline, with its decoded parameters.
struct StorletInvocation {
  std::string name;
  StorletParams params;
};

// Executes pushdown filters for the cluster: resolves policies, pulls
// implementations from the registry, runs them in the sandbox, and chains
// pipelined filters (output of stage i feeds stage i+1, paper §IV-B).
class StorletEngine {
 public:
  StorletEngine(std::shared_ptr<StorletRegistry> registry,
                std::shared_ptr<PolicyStore> policies, MetricRegistry* metrics,
                SandboxLimits limits = SandboxLimits());

  StorletRegistry& registry() { return *registry_; }
  PolicyStore& policies() { return *policies_; }

  // Decodes X-Run-Storlet and its parameter headers into the invocation
  // pipeline. Returns an empty vector when the header is absent.
  static Result<std::vector<StorletInvocation>> ParseInvocations(
      const Headers& headers);

  // Runs the pipeline over `data` for the given scope and returns the
  // final stage's whole output with the accumulated storlet metadata: the
  // streaming form below, drained within the call. Policy, the QoS gate
  // and the sandbox limits apply exactly as there.
  Result<SandboxResult> RunPipeline(
      const std::string& account, const std::string& container,
      const std::vector<StorletInvocation>& invocations,
      std::string_view data) const;

  // The pipelined (§IV-B) form: stage i+1 consumes stage i's chunks as
  // they are produced, connected by bounded queues, so peak buffering is
  // O(chunk_size x pipeline_depth) regardless of object size.
  struct StreamingPipeline {
    // The final stage's output; pulls drive the whole pipeline. Dropping
    // it before EOF aborts every running stage. Must not outlive the
    // engine. A mid-stream stage failure surfaces as a Read error after
    // the chunks produced before the failure.
    std::shared_ptr<ByteStream> output;
    // Accumulated storlet metadata as X-Object-Meta-* trailer headers.
    // Complete only once `output` has reported EOF.
    std::shared_ptr<const Headers> trailers;
  };

  // Validates policy and instantiates every storlet up front (those
  // errors return synchronously, before any byte moves), then launches
  // one thread per stage. `input` feeds stage 0 and is owned by the run.
  // Each stage thread opens a "storlet.stage" span under `parent` (the
  // middleware's span) and records its wall time — queue waits included,
  // that is the point — into the "storlet.stage_us" histogram.
  Result<StreamingPipeline> RunPipelineStreaming(
      const std::string& account, const std::string& container,
      const std::vector<StorletInvocation>& invocations,
      std::shared_ptr<ByteStream> input,
      const TraceContext& parent = {}) const;

  // Chunk granularity and per-queue buffer bound of the streaming
  // pipeline (test hook; queues admit 2 chunks of backpressure).
  void set_chunk_size(size_t chunk_size) {
    chunk_size_ = chunk_size == 0 ? 1 : chunk_size;
  }
  size_t chunk_size() const { return chunk_size_; }

  // The cluster registry this engine meters into (may be null); the
  // storlet middleware records its own latency histograms here.
  MetricRegistry* metrics() const { return metrics_; }

  // QoS hook: called once per pipeline run (when at least one storlet
  // would execute) before any thread launches or byte moves. Returns an
  // opaque ticket that is held until the run is torn down — until the
  // consumer has drained (or dropped) the output stream, so a granted
  // slot covers the storlet's whole execution, not just its launch. An error refuses the
  // invocation: ResourceExhausted / DeadlineExceeded are the polite
  // refusals the middleware degrades on. Keeping the hook a plain
  // function preserves the layering (storlets never sees qos).
  using InvocationGate =
      std::function<Result<std::shared_ptr<void>>(const std::string& account)>;

  // Wiring-time setter (ScoopCluster::Create); not thread-safe against
  // in-flight pipelines — install the gate before serving traffic.
  void set_invocation_gate(InvocationGate gate) { gate_ = std::move(gate); }

 private:
  std::shared_ptr<StorletRegistry> registry_;
  std::shared_ptr<PolicyStore> policies_;
  MetricRegistry* metrics_;
  Sandbox sandbox_;
  size_t chunk_size_ = kDefaultStreamChunk;
  InvocationGate gate_;  // null: no gating
};

}  // namespace scoop

#endif  // SCOOP_STORLETS_ENGINE_H_
