#include "serve/request.hpp"

#include "common/log.hpp"
#include "common/stats.hpp"

namespace diag::serve
{

const char *
priorityName(Priority p)
{
    switch (p) {
      case Priority::Low: return "low";
      case Priority::Normal: return "normal";
      case Priority::High: return "high";
    }
    return "unknown";
}

const char *
respStatusName(RespStatus s)
{
    switch (s) {
      case RespStatus::Ok: return "ok";
      case RespStatus::Rejected: return "rejected";
      case RespStatus::Shed: return "shed";
      case RespStatus::Expired: return "expired";
      case RespStatus::Cancelled: return "cancelled";
      case RespStatus::Failed: return "failed";
    }
    return "unknown";
}

const char *
failKindName(FailKind k)
{
    switch (k) {
      case FailKind::None: return "none";
      case FailKind::Timeout: return "timeout";
      case FailKind::WorkerCrash: return "worker-crash";
      case FailKind::WorkerStall: return "worker-stall";
      case FailKind::Saturated: return "saturated";
      case FailKind::Sdc: return "sdc";
      case FailKind::Trap: return "trap";
      case FailKind::Malformed: return "malformed";
    }
    return "unknown";
}

bool
isRetryable(FailKind k)
{
    switch (k) {
      case FailKind::Timeout:
      case FailKind::WorkerCrash:
      case FailKind::WorkerStall:
      case FailKind::Saturated:
        return true;
      case FailKind::None:
      case FailKind::Sdc:
      case FailKind::Trap:
      case FailKind::Malformed:
        return false;
    }
    return false;
}

std::string
renderResponseJson(const SimResponse &r)
{
    std::string out = detail::vformat(
        "{\"id\": %llu, \"status\": \"%s\", \"fail\": \"%s\", "
        "\"reason\": \"%s\", \"attempts\": %u, \"from_cache\": %s, "
        "\"retry_after_ms\": %llu, \"latency_ms\": %llu",
        static_cast<unsigned long long>(r.id), respStatusName(r.status),
        failKindName(r.fail), jsonEscape(r.reason).c_str(), r.attempts,
        r.from_cache ? "true" : "false",
        static_cast<unsigned long long>(r.retry_after_ms),
        static_cast<unsigned long long>(r.latency_ms));
    if (r.status == RespStatus::Ok)
        out += ", \"payload\": " +
               (r.payload.empty() ? std::string("null") : r.payload);
    out += "}";
    return out;
}

} // namespace diag::serve
