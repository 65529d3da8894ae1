#include "common/error.hh"

namespace prophet
{

const char *
errorCodeName(ErrorCode code)
{
    switch (code) {
      case ErrorCode::Ok:
        return "ok";
      case ErrorCode::SpecParse:
        return "spec-parse";
      case ErrorCode::PipelineConfig:
        return "pipeline-config";
      case ErrorCode::WorkloadUnknown:
        return "workload-unknown";
      case ErrorCode::TraceIo:
        return "trace-io";
      case ErrorCode::TraceCorrupt:
        return "trace-corrupt";
      case ErrorCode::CacheLock:
        return "cache-lock";
      case ErrorCode::DiskFull:
        return "disk-full";
      case ErrorCode::Cancelled:
        return "cancelled";
      case ErrorCode::FaultInjected:
        return "fault-injected";
      case ErrorCode::Internal:
        return "internal";
      case ErrorCode::JobTimeout:
        return "job-timeout";
    }
    return "unknown";
}

bool
isTransientError(ErrorCode code)
{
    switch (code) {
      case ErrorCode::TraceIo:
      case ErrorCode::CacheLock:
      // A deadline expiry says nothing permanent about the job: the
      // machine may simply have been overloaded, so a fresh attempt
      // (with a fresh deadline) is worth one retry.
      case ErrorCode::JobTimeout:
        return true;
      default:
        return false;
    }
}

std::string
Error::render(ErrorCode code, const std::string &message,
              const ErrorContext &ctx)
{
    std::string out = errorCodeName(code);
    out += ": ";
    out += message;

    std::string fields;
    auto add = [&fields](const char *key, const std::string &value) {
        if (value.empty())
            return;
        if (!fields.empty())
            fields += ", ";
        fields += key;
        fields += '=';
        fields += value;
    };
    add("workload", ctx.workload);
    add("pipeline", ctx.pipeline);
    add("path", ctx.path);
    if (ctx.offset != ErrorContext::kNoOffset)
        add("offset", std::to_string(ctx.offset));
    if (!fields.empty())
        out += " [" + fields + "]";
    return out;
}

Error::Error(ErrorCode code, const std::string &message,
             ErrorContext ctx)
    : std::runtime_error(render(code, message, ctx)),
      errorCode(code), errorCtx(std::move(ctx))
{}

} // namespace prophet
