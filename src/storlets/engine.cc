#include "storlets/engine.h"

#include <thread>

#include "common/failpoint.h"
#include "common/strings.h"
#include "storlets/headers.h"

namespace scoop {

namespace {

// Storlet metadata travels as trailer headers under this prefix.
constexpr std::string_view kMetaTrailerPrefix = "X-Object-Meta-";

// Poisons `queue` on scope exit. Placed at the top of every stage thread:
// if the stage dies without reaching its CloseWrite (a storlet "crash"),
// the consumer gets an Aborted status instead of blocking forever on a
// queue whose producer is gone. No-op after a clean CloseWrite.
class QueuePoisonGuard {
 public:
  explicit QueuePoisonGuard(BoundedByteQueue* queue) : queue_(queue) {}
  ~QueuePoisonGuard() {
    queue_->Poison(
        Status::Aborted("storlet stage died without closing its stream"));
  }

 private:
  BoundedByteQueue* queue_;
};

// Chaos hook simulating a storlet that dies mid-stream: when the
// "engine.stage_crash" failpoint fires, the write fails AND the crash flag
// tells the stage thread to exit without closing its queue — the poison
// guard is then the only thing standing between the consumer and a hang.
class CrashOnFailpointSink : public ByteSink {
 public:
  CrashOnFailpointSink(ByteSink* inner, bool* crashed)
      : inner_(inner), crashed_(crashed) {}

  Status Write(std::string_view data) override {
    if (FailpointsArmed()) {
      Status fault = FailpointCheck("engine.stage_crash");
      if (!fault.ok()) {
        *crashed_ = true;
        return fault;
      }
    }
    return inner_->Write(data);
  }

 private:
  ByteSink* inner_;
  bool* crashed_;
};

// Everything a running streaming pipeline owns: storlet instances, the
// inter-stage queues, and the stage threads. The final output Reader
// keeps this alive; when the consumer drops it, the destructor closes
// every queue (unblocking any stage still waiting on either side) and
// joins the threads — abandoning a pipeline mid-stream is clean teardown,
// not a leak.
struct PipelineRun {
  // The five pipeline-shape fields are built before any stage thread
  // starts and never change while threads run; the destructor joins
  // every thread before touching them — hence the waivers.
  std::shared_ptr<ByteStream> source;                  // UNGUARDED: see above
  std::vector<std::unique_ptr<Storlet>> storlets;      // UNGUARDED: see above
  std::vector<StorletParams> params;                   // UNGUARDED: see above
  std::vector<std::unique_ptr<BoundedByteQueue>> queues;  // UNGUARDED: above
  std::vector<std::thread> threads;                    // UNGUARDED: see above

  // Locking contract: `mu` (rank lockrank::kPipeline) guards the metadata
  // accumulated by stage threads. The trailers Headers is written only by
  // the final stage under `mu`, strictly before it closes its queue; the
  // consumer dereferences it lock-free only after observing EOF, which the
  // queue's own mutex orders after that write.
  Mutex mu{"pipeline_run", lockrank::kPipeline};
  std::map<std::string, std::string> metadata GUARDED_BY(mu);
  // UNGUARDED: pointer set once here; the pointee is written by the final
  // stage strictly before queue close, read only after EOF (see above).
  std::shared_ptr<Headers> trailers = std::make_shared<Headers>();
  // QoS fair-queue slot (opaque; set before threads start, released by
  // this destructor) — the slot is held for the stream's whole drain.
  std::shared_ptr<void> qos_ticket;  // UNGUARDED: set before threads start

  ~PipelineRun() {
    for (auto& queue : queues) {
      queue->CloseRead();
      queue->CloseWrite(Status::Aborted("pipeline torn down"));
    }
    for (auto& thread : threads) thread.join();
  }
};

}  // namespace

StorletEngine::StorletEngine(std::shared_ptr<StorletRegistry> registry,
                             std::shared_ptr<PolicyStore> policies,
                             MetricRegistry* metrics, SandboxLimits limits)
    : registry_(std::move(registry)),
      policies_(std::move(policies)),
      metrics_(metrics),
      sandbox_(limits, metrics) {}

Result<std::vector<StorletInvocation>> StorletEngine::ParseInvocations(
    const Headers& headers) {
  std::vector<StorletInvocation> out;
  auto run = headers.Get(kRunStorletHeader);
  if (!run) return out;
  for (std::string_view name : Split(*run, ',')) {
    name = Trim(name);
    if (name.empty()) {
      return Status::InvalidArgument("empty storlet name in X-Run-Storlet");
    }
    out.push_back(StorletInvocation{std::string(name), {}});
  }
  // Decode parameters. Un-indexed X-Storlet-Parameter-<key> headers apply
  // to the first stage; X-Storlet-<i>-Parameter-<key> to stage i.
  for (const auto& [header_name, value] : headers) {
    std::string lower = ToLower(header_name);
    const std::string plain_prefix = ToLower(kStorletParamPrefix);
    if (StartsWith(lower, plain_prefix)) {
      std::string key = lower.substr(plain_prefix.size());
      if (key.empty()) continue;
      out[0].params[key] = value;
      continue;
    }
    // Indexed form: x-storlet-<i>-parameter-<key>.
    const std::string stage_prefix = "x-storlet-";
    const std::string param_marker = "-parameter-";
    if (StartsWith(lower, stage_prefix)) {
      size_t marker = lower.find(param_marker, stage_prefix.size());
      if (marker == std::string::npos) continue;
      std::string index_str =
          lower.substr(stage_prefix.size(), marker - stage_prefix.size());
      auto index = ParseInt64(index_str);
      if (!index.ok()) continue;  // not an indexed parameter header
      if (*index < 0 || *index >= static_cast<int64_t>(out.size())) {
        return Status::InvalidArgument(
            "storlet parameter stage index out of range: " + index_str);
      }
      std::string key = lower.substr(marker + param_marker.size());
      if (key.empty()) continue;
      out[static_cast<size_t>(*index)].params[key] = value;
    }
  }
  return out;
}

Result<SandboxResult> StorletEngine::RunPipeline(
    const std::string& account, const std::string& container,
    const std::vector<StorletInvocation>& invocations,
    std::string_view data) const {
  // The streaming pipeline drained within this call, so its input can
  // borrow the caller's bytes.
  SCOOP_ASSIGN_OR_RETURN(
      StreamingPipeline pipeline,
      RunPipelineStreaming(account, container, invocations,
                           std::make_shared<SharedBufferByteStream>(
                               nullptr, data, chunk_size_)));
  SandboxResult result;
  SCOOP_ASSIGN_OR_RETURN(result.output, pipeline.output->ReadAll());
  for (const auto& [name, value] : *pipeline.trailers) {
    result.metadata[name.substr(kMetaTrailerPrefix.size())] = value;
  }
  return result;
}

Result<StorletEngine::StreamingPipeline> StorletEngine::RunPipelineStreaming(
    const std::string& account, const std::string& container,
    const std::vector<StorletInvocation>& invocations,
    std::shared_ptr<ByteStream> input, const TraceContext& parent) const {
  SCOOP_FAILPOINT("engine.invoke");
  StorletPolicy policy = policies_->Resolve(account, container);
  auto run = std::make_shared<PipelineRun>();
  run->source = std::move(input);
  // Policy and registry failures surface here, synchronously, before any
  // thread starts or any byte moves.
  for (const StorletInvocation& invocation : invocations) {
    if (!PolicyStore::Allows(policy, invocation.name)) {
      return Status::Unauthorized("policy denies storlet '" +
                                  invocation.name + "' on " + account + "/" +
                                  container);
    }
    SCOOP_ASSIGN_OR_RETURN(std::unique_ptr<Storlet> storlet,
                           registry_->Create(invocation.name));
    run->storlets.push_back(std::move(storlet));
    run->params.push_back(invocation.params);
  }

  StreamingPipeline out;
  out.trailers = run->trailers;
  if (run->storlets.empty()) {
    out.output = run->source;
    return out;
  }

  // QoS invocation gate: a fair-queue slot must be granted before any
  // stage thread launches. A refusal surfaces synchronously (the caller
  // degrades to raw bytes); a grant rides in the run, holding the slot
  // until the consumer drains or drops the stream.
  if (gate_) {
    SCOOP_ASSIGN_OR_RETURN(run->qos_ticket, gate_(account));
  }

  Gauge* buffered = metrics_ != nullptr
                        ? metrics_->GetGauge("storlet.buffered_bytes")
                        : nullptr;
  const size_t stages = run->storlets.size();
  for (size_t i = 0; i < stages; ++i) {
    Counter* chunks =
        metrics_ != nullptr
            ? metrics_->GetCounter(StrFormat(
                  "storlet.stage%d.chunks", static_cast<int>(i)))
            : nullptr;
    // Two chunks of slack per queue: enough to overlap stages, small
    // enough to keep the whole pipeline at O(chunk_size x depth).
    run->queues.push_back(
        std::make_unique<BoundedByteQueue>(2 * chunk_size_, buffered, chunks));
  }

  ExponentialHistogram* stage_us =
      metrics_ != nullptr ? metrics_->GetHistogram("storlet.stage_us")
                          : nullptr;
  for (size_t i = 0; i < stages; ++i) {
    const bool final_stage = (i + 1 == stages);
    PipelineRun* r = run.get();  // threads never outlive `run` (dtor joins)
    // Copied (not referenced): the stage thread can outlive this call.
    std::string storlet_name = invocations[i].name;
    run->threads.emplace_back([this, r, i, final_stage, parent, stage_us,
                               storlet_name = std::move(storlet_name)] {
      // Stage wall time *including* queue waits — a slow stage shows up
      // both in its own span and as back-pressure in its neighbours'.
      TraceSpan stage_span("storlet.stage", parent);
      if (stage_span.active()) {
        stage_span.SetTag("stage", std::to_string(i));
        stage_span.SetTag("storlet", storlet_name);
      }
      Stopwatch stage_watch;
      // Last line of defense: if this thread exits without a clean
      // CloseWrite below, the guard poisons the queue so the consumer
      // fails instead of hanging.
      QueuePoisonGuard poison_guard(r->queues[i].get());
      // Stage i>0 owns a Reader over the previous queue; destroying it on
      // exit aborts the upstream stage if this one stopped early.
      std::unique_ptr<ByteStream> queue_reader;
      ByteStream* in_stream = r->source.get();
      if (i > 0) {
        queue_reader = std::make_unique<BoundedByteQueue::Reader>(
            r->queues[i - 1].get(), nullptr);
        in_stream = queue_reader.get();
      }
      StorletInputStream in(in_stream);
      BoundedByteQueue::Writer writer(r->queues[i].get());
      bool crashed = false;
      CrashOnFailpointSink sink(&writer, &crashed);
      StorletOutputStream out(&sink, chunk_size_);
      Result<SandboxResult> result =
          sandbox_.ExecuteStreaming(*r->storlets[i], in, out, r->params[i]);
      if (stage_us != nullptr) {
        stage_us->Record(
            static_cast<int64_t>(stage_watch.ElapsedSeconds() * 1e6));
      }
      if (crashed) {
        // Simulated mid-stream death: no CloseWrite.
        if (stage_span.active()) stage_span.SetTag("crashed", "true");
        return;
      }
      Status final_status = result.ok() ? Status::OK() : result.status();
      if (stage_span.active() && !final_status.ok()) {
        stage_span.SetTag("error", final_status.ToString());
      }
      {
        MutexLock lock(r->mu);
        if (result.ok()) {
          for (auto& [key, value] : result->metadata) {
            r->metadata[key] = std::move(value);
          }
        }
        // The final stage publishes the accumulated metadata as trailers
        // before closing its queue: EOF observed by the consumer
        // happens-after this write, so the trailers are complete by the
        // time anyone may read them.
        if (final_stage && final_status.ok()) {
          for (const auto& [key, value] : r->metadata) {
            r->trailers->Set(std::string(kMetaTrailerPrefix) + key, value);
          }
        }
      }
      r->queues[i]->CloseWrite(std::move(final_status));
    });
  }

  // The run rides along inside the Reader; dropping the stream tears the
  // whole pipeline down.
  out.output = std::make_shared<BoundedByteQueue::Reader>(
      run->queues.back().get(), run);
  return out;
}

}  // namespace scoop
