/**
 * @file
 * The structured error model every recoverable failure folds into.
 *
 * A prophet::Error carries a machine-readable ErrorCode (what class
 * of thing went wrong), a context block (which workload, pipeline,
 * spec path, file offset — whatever the failure site knows), and the
 * human-readable message runtime_error already provides. The
 * taxonomy exists so layers can make policy decisions without string
 * matching: the experiment driver retries transient I/O classes and
 * isolates permanent ones per job, the trace cache distinguishes
 * corruption (quarantine) from absence (regenerate), and the CLI
 * maps codes onto documented exit codes.
 *
 * SpecError (driver/spec.hh) and PipelineError (sim/pipelines.hh)
 * derive from Error, so one `catch (const prophet::Error &)` at the
 * top of the CLI sees every structured failure the tree can raise.
 */

#ifndef PROPHET_COMMON_ERROR_HH
#define PROPHET_COMMON_ERROR_HH

#include <cstdint>
#include <stdexcept>
#include <string>

namespace prophet
{

/** Failure classes, coarse enough that policy can key off them. */
enum class ErrorCode : std::uint8_t
{
    Ok = 0,          ///< not an error (sentinel for JobResult)
    SpecParse,       ///< malformed or invalid experiment spec
    PipelineConfig,  ///< unknown pipeline / parameter / value
    WorkloadUnknown, ///< unregistered workload name
    TraceIo,         ///< read/write/open failure on trace data
    TraceCorrupt,    ///< checksum or structural mismatch on a trace
    CacheLock,       ///< trace-cache lock could not be taken
    DiskFull,        ///< no space left while writing (ENOSPC class)
    Cancelled,       ///< cooperative cancellation observed
    FaultInjected,   ///< a deterministic test fault fired
    Internal,        ///< everything else (wrapped std::exception)
    JobTimeout,      ///< watchdog deadline cancelled the job
};

/** Canonical lower-case name of a code ("trace-corrupt", ...). */
const char *errorCodeName(ErrorCode code);

/**
 * Whether a failure class is worth retrying: the condition can
 * plausibly clear on its own (an I/O hiccup, a lock held briefly by
 * another process). Corruption, bad specs, cancellation, and
 * injected permanent faults are not transient — retrying them burns
 * time to reach the same failure.
 */
bool isTransientError(ErrorCode code);

/**
 * Where a failure happened, as precisely as the site knows. Every
 * field is optional; what() renders only the populated ones.
 */
struct ErrorContext
{
    std::string workload; ///< workload being processed
    std::string pipeline; ///< pipeline (result name) being run
    std::string path;     ///< spec or trace file involved
    /** Byte offset within path (kNoOffset = not applicable). */
    std::uint64_t offset = kNoOffset;

    static constexpr std::uint64_t kNoOffset = ~std::uint64_t{0};
};

/**
 * The structured exception. what() is pre-rendered at construction:
 * "trace-corrupt: pc[] checksum mismatch [workload=mcf,
 * path=.../mcf-r0.g1.ptrc, offset=16]".
 */
class Error : public std::runtime_error
{
  public:
    Error(ErrorCode code, const std::string &message,
          ErrorContext ctx = {});

    ErrorCode code() const { return errorCode; }
    const ErrorContext &context() const { return errorCtx; }

    /** Shorthand for isTransientError(code()). */
    bool transient() const { return isTransientError(errorCode); }

  private:
    ErrorCode errorCode;
    ErrorContext errorCtx;

    static std::string render(ErrorCode code,
                              const std::string &message,
                              const ErrorContext &ctx);
};

} // namespace prophet

#endif // PROPHET_COMMON_ERROR_HH
