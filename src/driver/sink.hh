/**
 * @file
 * Pluggable result sinks for the experiment driver. The driver feeds
 * every (workload x pipeline) result in deterministic spec order —
 * never completion order — then finishes with run metadata, so a
 * sink's output is bit-identical across thread counts.
 *
 *   table — the human-readable per-metric tables with a Geomean row
 *           (the same numbers the figure benches print);
 *   json  — one machine-readable document with full RunStats per
 *           job plus run metadata, for perf tracking;
 *   csv   — one row per job, for spreadsheets.
 */

#ifndef PROPHET_DRIVER_SINK_HH
#define PROPHET_DRIVER_SINK_HH

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "driver/spec.hh"
#include "sim/system.hh"

namespace prophet::driver
{

/** Metadata about one driver run, written by every file sink. */
struct RunMeta
{
    std::string specName;
    std::uint64_t specHash = 0;
    std::size_t records = 0;   ///< trace-length override (0=default)
    unsigned threads = 1;
    double wallSeconds = 0.0;
    std::string timestamp;     ///< ISO-8601 UTC
    std::uint64_t traceCacheHits = 0;
    std::uint64_t traceCacheMisses = 0;

    /**
     * Cumulative phase wall time across all jobs (summed over
     * workers, so on N threads these can exceed wallSeconds). Pulled
     * from the "phase.trace_load_ns" / "phase.warmup_ns" /
     * "phase.simulate_ns" registry histograms at the end of the run.
     */
    double traceLoadSeconds = 0.0;
    double simulateSeconds = 0.0;
};

/** One (workload, pipeline) job: its stats, or why it failed. */
struct JobResult
{
    std::string workload;
    std::string pipeline;
    sim::RunStats stats; ///< zeroed when !ok
    /** (metric name, value) in the spec's metric order; empty on
     *  failure. */
    std::vector<std::pair<std::string, double>> metrics;

    /** False when the job failed (or was skipped by fail-fast). */
    bool ok = true;

    /** Failure classification (Ok when the job succeeded). */
    ErrorCode errorCode = ErrorCode::Ok;
    std::string errorMessage;

    /** Simulation attempts (> 1 after transient-error retries). */
    unsigned attempts = 1;

    /**
     * Served from the result store rather than simulated. The sinks
     * never render it (a served run's output must stay
     * byte-identical to a simulated one); metrics.json's "jobs"
     * section reports it for observability.
     */
    bool cached = false;

    /**
     * Wall time of this job's final attempt, including retry backoff
     * sleeps. Diagnostics only (metrics.json "jobs" section): the
     * sinks never render it, so their outputs stay deterministic.
     */
    double seconds = 0.0;
};

/** A result consumer. result() calls arrive in spec order. */
class Sink
{
  public:
    virtual ~Sink() = default;

    /** One job's result (workload-major, pipeline-minor order). */
    virtual void result(const JobResult &r) = 0;

    /**
     * All results delivered; render/write output. Returns false on
     * failure (e.g. an unwritable file) so the driver can surface a
     * nonzero exit instead of silently dropping archived results.
     */
    virtual bool finish(const ExperimentSpec &spec,
                        const RunMeta &meta) = 0;
};

/** Instantiate the sink a SinkSpec requests. */
std::unique_ptr<Sink> makeSink(const SinkSpec &spec);

/** Figure-style heading for a metric ("speedup" ->
 *  "Performance Speedup"). */
std::string metricDisplayName(const std::string &metric);

} // namespace prophet::driver

#endif // PROPHET_DRIVER_SINK_HH
