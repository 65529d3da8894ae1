/**
 * @file
 * The experiment driver: expands a declarative ExperimentSpec into
 * (workload x pipeline) SweepEngine jobs, runs them across the
 * thread pool, derives the requested metrics, and streams the
 * results — in spec order, so output is independent of scheduling —
 * to the spec's sinks. This is the layer the `prophet` CLI and the
 * end-to-end tests drive; the figure benches it supersedes each
 * hardcoded one slice of what a spec file now describes.
 */

#ifndef PROPHET_DRIVER_DRIVER_HH
#define PROPHET_DRIVER_DRIVER_HH

#include <memory>
#include <vector>

#include "driver/sink.hh"
#include "driver/spec.hh"
#include "sim/runner.hh"
#include "trace/trace_cache.hh"

namespace prophet::driver
{

/** CLI-level overrides applied on top of the spec. */
struct DriverOptions
{
    static constexpr unsigned kNoThreads = ~0u;
    static constexpr std::size_t kNoRecords =
        static_cast<std::size_t>(-1);

    unsigned threads = kNoThreads;      ///< kNoThreads = spec value
    std::size_t records = kNoRecords;   ///< kNoRecords = spec value
    int traceCache = -1;                ///< -1 spec, 0 off, 1 on
    std::string traceCacheDir;          ///< empty = default dir

    /** -1 spec value, 0 fail-fast, 1 keep-going (--keep-going). */
    int keepGoing = -1;

    /**
     * Per-job simulation attempts: a job failing with a *transient*
     * error class (isTransientError — trace I/O, cache lock) is
     * retried with backoff up to this many total tries. Permanent
     * errors never retry.
     */
    unsigned maxAttempts = 2;

    /** Base backoff before retry k is k * this (0 in tests). */
    unsigned retryBackoffMs = 50;

    // ---- crash-safe sweeps (all default-off: a run with none of
    // these set produces byte-identical outputs to one without) ----

    /**
     * Per-job watchdog deadline in seconds. < 0 defers to the
     * spec's "deadline_s"; 0 forces the watchdog off; > 0 overrides
     * (--job-timeout). An expired job is cancelled and recorded as
     * a transient JobTimeout failure (retried once by default).
     */
    double jobTimeoutS = -1.0;

    /**
     * External shutdown token (the CLI's SIGINT/SIGTERM handler
     * fires it). When it fires mid-run: in-flight jobs are
     * cancelled and drained, queued jobs never start, the sinks
     * flush what completed, and run() still returns its
     * (partial) report. Null = no external shutdown. Non-const:
     * the run's fail-fast policy shares the token, so a first
     * failure may fire it too.
     */
    CancellationToken *shutdown = nullptr;

    // ---- observability (all default-off: a run with none of these
    // set produces byte-identical outputs to a build without them) --

    /** --progress: live jobs/records-per-second/ETA line on stderr. */
    bool progress = false;

    /** --metrics-out FILE: write the run's metrics JSON report. */
    std::string metricsOut;

    /** --trace-out FILE: write a Chrome/Perfetto span trace. */
    std::string traceOut;
};

/** Everything a run produced, for callers beyond the sinks. */
struct ExperimentReport
{
    RunMeta meta;
    std::vector<JobResult> results; ///< workload-major spec order
    bool sinksOk = true; ///< every sink wrote its output successfully

    /** Jobs that failed or were skipped by fail-fast. */
    std::size_t failedJobs = 0;

    /** Jobs served from the result store, not simulated. */
    std::size_t cachedJobs = 0;

    /** The external shutdown token fired during the run. */
    bool interrupted = false;

    /** True when every job completed and every sink wrote. */
    bool ok() const { return failedJobs == 0 && sinksOk; }
};

/** Runs one spec. Construct, then run() once. */
class ExperimentDriver
{
  public:
    explicit ExperimentDriver(ExperimentSpec spec,
                              DriverOptions opts = {});

    /** Thread count after overrides (as SweepEngine resolves it). */
    unsigned effectiveThreads() const;

    /** Records override after CLI overrides. */
    std::size_t effectiveRecords() const;

    /**
     * Whether the on-disk trace cache — and with it the result store
     * (job results, baselines and Prophet profiles) in its "results"
     * subdirectory — will be consulted.
     */
    bool traceCacheEnabled() const;

    /** Failure policy after overrides (true = keep going). */
    bool keepGoingEnabled() const;

    /**
     * Expand, execute, and deliver to sinks. Results are
     * deterministic for a given spec: identical across thread
     * counts and trace-cache and result-store states.
     */
    ExperimentReport run();

  private:
    ExperimentSpec spec;
    DriverOptions opts;
};

/** Compute one metric by name for a finished run. */
double computeMetric(sim::Runner &runner, const std::string &metric,
                     const std::string &workload,
                     const sim::RunStats &stats);

/**
 * The documented process exit code a finished report maps onto
 * (common/exit_codes.hh): 0 success, 5 partial under keep-going,
 * 4 runtime failure (including a failed sink), 6 interrupted (the
 * external shutdown token drained the run).
 */
int exitCodeForReport(const ExperimentReport &report, bool keepGoing);

} // namespace prophet::driver

#endif // PROPHET_DRIVER_DRIVER_HH
