#include "storlets/sandbox.h"

namespace scoop {

Result<SandboxResult> Sandbox::ExecuteStreaming(
    Storlet& storlet, StorletInputStream& in, StorletOutputStream& out,
    const StorletParams& params) const {
  StorletLogger logger;

  Stopwatch watch;
  Status status = storlet.Invoke(in, out, params, logger);
  out.Flush();
  uint64_t exec_ns = static_cast<uint64_t>(watch.ElapsedSeconds() * 1e9);

  if (metrics_ != nullptr) {
    metrics_->GetCounter("storlet.invocations")->Increment();
    metrics_->GetCounter("storlet.bytes_in")
        ->Add(static_cast<int64_t>(in.bytes_consumed()));
    metrics_->GetCounter("storlet.bytes_out")
        ->Add(static_cast<int64_t>(out.bytes_written()));
    metrics_->GetCounter("storlet.exec_ns")
        ->Add(static_cast<int64_t>(exec_ns));
  }
  auto fail = [&](Status error) -> Result<SandboxResult> {
    if (metrics_ != nullptr) {
      metrics_->GetCounter("storlet.failures")->Increment();
    }
    return error;
  };
  if (!status.ok()) return fail(status);
  // A failed upstream read looked like EOF to the storlet; don't let a
  // silently truncated input masquerade as a successful (partial) run.
  if (!in.status().ok()) return fail(in.status());
  if (!out.sink_status().ok()) return fail(out.sink_status());
  if (limits_.max_output_bytes > 0 &&
      out.bytes_written() > limits_.max_output_bytes) {
    return fail(Status::ResourceExhausted(
        "storlet '" + storlet.name() + "' exceeded output cap"));
  }
  if (limits_.max_exec_ns > 0 && exec_ns > limits_.max_exec_ns) {
    return fail(Status::ResourceExhausted(
        "storlet '" + storlet.name() + "' exceeded time budget"));
  }

  SandboxResult result;
  result.metadata = out.metadata();
  result.usage.bytes_in = in.bytes_consumed();
  result.usage.bytes_out = out.bytes_written();
  result.usage.exec_ns = exec_ns;
  result.log_lines = logger.lines();
  return result;
}

}  // namespace scoop
