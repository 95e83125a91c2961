#include "qos/qos_middleware.h"

#include <algorithm>

#include "common/failpoint.h"
#include "common/strings.h"
#include "common/trace.h"
#include "storlets/headers.h"

namespace scoop {
namespace qos {

HttpResponse QosMiddleware::Process(Request& request,
                                    const HttpHandler& next) {
  if (controller_ == nullptr) return next(request);
  auto path = ObjectPath::Parse(request.path);
  // Account/container plumbing (and anything unparseable) rides free:
  // QoS arbitrates the data plane, not the control plane.
  if (!path.ok() || !path->IsObject()) return next(request);

  bool pushdown = request.method == HttpMethod::kGet &&
                  request.headers.Has(kRunStorletHeader);
  TenantTier tier =
      ParseTenantTier(request.headers.GetOr(kTenantTierHeader, "gold"));
  int64_t deadline_us = controller_->config().default_deadline_us;
  if (auto header = request.headers.Get(kQosDeadlineHeader)) {
    auto parsed = ParseInt64(*header);
    if (parsed.ok() && *parsed > 0) deadline_us = *parsed;
  }

  // Chaos hook, pushdown requests only: an armed fault forces the ladder
  // (degrade, or shed when even the raw bytes are unaffordable) — a
  // plain GET has no degrade rung and must not start 503ing under chaos.
  bool forced_degrade = false;
  if (pushdown) {
    Status fault = FailpointCheck("qos.admit", path->account);
    if (!fault.ok()) forced_degrade = true;
  }

  TraceSpan span("qos.admit", TraceContextFromHeaders(request.headers));
  AdmitResult admitted = controller_->Admit(path->account, tier, pushdown,
                                            deadline_us, forced_degrade);
  if (span.active()) {
    span.SetTag("tenant", path->account);
    span.SetTag("tier", std::string(TenantTierName(tier)));
    span.SetTag("decision",
                admitted.decision == AdmitDecision::kAdmit     ? "admit"
                : admitted.decision == AdmitDecision::kDegrade ? "degrade"
                                                               : "shed");
  }
  // The span times the decision only; the forwarded request has its own.
  span.End();
  // Relay the queue-pressure signal into tier-gated pushdown policy.
  if (policies_ != nullptr) {
    policies_->SetTierGate(controller_->overloaded());
  }

  switch (admitted.decision) {
    case AdmitDecision::kAdmit:
      return next(request);
    case AdmitDecision::kDegrade: {
      // Strip the pushdown task and serve raw bytes; the client notices
      // the missing X-Storlet-Executed and filters locally (PR-3
      // fallback path), so results stay byte-identical.
      request.headers.Remove(kRunStorletHeader);
      HttpResponse response = next(request);
      response.headers.Set(kQosDecisionHeader, "degraded");
      return response;
    }
    case AdmitDecision::kShed:
      break;
  }
  HttpResponse response =
      HttpResponse::Make(503, "qos: tenant over admission rate");
  int64_t retry_after_s = (admitted.retry_after_ms + 999) / 1000;
  response.headers.Set(kRetryAfterHeader,
                       std::to_string(std::max<int64_t>(1, retry_after_s)));
  response.headers.Set(kRetryAfterMsHeader,
                       std::to_string(admitted.retry_after_ms));
  response.headers.Set(kQosDecisionHeader, "shed");
  return response;
}

}  // namespace qos
}  // namespace scoop
