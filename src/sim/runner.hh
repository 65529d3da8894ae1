/**
 * @file
 * Experiment orchestration: generates/caches workload traces, runs
 * configured systems over them, and implements the multi-run
 * workflows the evaluation needs — Prophet's profile/analyze/learn
 * pipeline (Figure 5) and RPG2's identify/tune pipeline.
 */

#ifndef PROPHET_SIM_RUNNER_HH
#define PROPHET_SIM_RUNNER_HH

#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/analyzer.hh"
#include "core/learner.hh"
#include "rpg2/distance_tuner.hh"
#include "rpg2/kernel_id.hh"
#include "sim/pipelines.hh"
#include "sim/system.hh"
#include "trace/trace_cache.hh"

namespace prophet::sim
{

/** A Prophet run plus the artifacts that produced it. */
struct ProphetOutcome
{
    core::OptimizedBinary binary{};
    core::ProfileSnapshot profile{};
    RunStats stats{};
};

/** An RPG2 run plus the plan that produced it. */
struct Rpg2Outcome
{
    std::vector<rpg2::Kernel> kernels{};
    std::int64_t tunedDistance = 0;
    RunStats stats{};
};

/**
 * The experiment runner. One instance caches traces and baseline
 * runs across the experiments of a bench binary.
 *
 * Thread safety: all public methods may be called concurrently from
 * sweep-engine workers. Traces are generated once, stored immutably
 * behind shared_ptr<const Trace>, and shared by every System run;
 * the generation and baseline caches are mutex-guarded. When two
 * workers race to fill a trace or baseline slot, both compute the
 * (deterministic) value and the first insert wins, so results never
 * depend on scheduling. Profiles are single-flight instead: the
 * first caller profiles a workload and later callers wait for it.
 */
class Runner
{
  public:
    /**
     * @param base Base configuration every run derives from
     *        (Table 1 by default).
     * @param records Trace-length override (0 = workload default).
     */
    explicit Runner(SystemConfig base = SystemConfig::table1(),
                    std::size_t records = 0);

    /**
     * Attach an on-disk trace cache: trace generation first consults
     * the cache and stores fresh generations back. Cached loads are
     * bit-identical to generation (the binary format round-trips
     * every record field), so results cannot depend on cache state.
     * Pass nullptr to detach. The cache must outlive the Runner.
     */
    void setTraceCache(std::shared_ptr<trace::TraceCache> cache);

    /**
     * Attach a cancellation token: every System this Runner builds
     * from here on polls it and aborts with
     * Error(ErrorCode::Cancelled) once it fires (the sweep driver's
     * fail-fast policy). nullptr detaches. The token must outlive
     * the runs; polling an attached-but-idle token is bit-identical
     * to running without one.
     */
    void setCancellation(const CancellationToken *token);

    /** The attached cancellation token (may be null). */
    const CancellationToken *cancellation() const { return cancel; }

    /**
     * Per-thread job token: Systems built on the *calling thread*
     * poll @p token instead of the runner-wide one until it is
     * cleared (nullptr). The driver's watchdog scopes one around
     * each job attempt so a deadline cancels that job alone; with no
     * job token set, behaviour is exactly the runner-wide token's.
     * The token must outlive the scoped runs.
     */
    static void setThreadJobCancellation(
        const CancellationToken *token);

    /**
     * Where profileWorkload keeps profiles beyond this Runner:
     * @c load returns a stored profile of a workload (nullopt on a
     * miss), @c save stores one just simulated. Both see only the
     * workload name; the owner keys it under everything else a
     * profile depends on (this Runner's base config and records).
     * The driver attaches its result store here.
     */
    struct ProfileStore
    {
        std::function<std::optional<core::ProfileSnapshot>(
            const std::string &workload)>
            load;
        std::function<void(const std::string &workload,
                           const core::ProfileSnapshot &profile)>
            save;
    };

    /**
     * Attach a profile store (both hooks required). Set it before
     * the first profileWorkload; the store must outlive the runs.
     */
    void setProfileStore(ProfileStore store);

    /**
     * Seed the baseline cache with externally obtained stats (a
     * baseline the driver's result store served), so metric
     * derivation and RPG2 skip the re-simulation. First insert wins,
     * matching the concurrent-compute semantics of baseline().
     */
    void injectBaseline(const std::string &workload, RunStats stats);

    /** The (cached) trace of a workload. */
    const trace::Trace &traceFor(const std::string &workload);

    /**
     * Shared ownership of the immutable trace, for callers that
     * outlive or run concurrently with this Runner's cache.
     */
    std::shared_ptr<const trace::Trace>
    traceShared(const std::string &workload);

    /** The workload's indirect resolver (may be nullptr). */
    const trace::IndirectResolver *
    resolverFor(const std::string &workload);

    /** Run an explicit configuration over a workload. */
    RunStats runConfig(const std::string &workload,
                       const SystemConfig &cfg);

    /**
     * Run one registered pipeline on one workload — the uniform
     * entry every experiment goes through. The instance's name is
     * looked up in the pipeline registry (sim/pipelines.hh) and its
     * parameter bag configures the run; an unknown name throws
     * PipelineError naming the registered pipelines. Thread-safe
     * like every other public method.
     */
    RunStats run(const PipelineInstance &pipeline,
                 const std::string &workload);

    /** Cached baseline (no temporal prefetcher). */
    const RunStats &baseline(const std::string &workload);

    /**
     * Profile a workload with the simplified temporal prefetcher
     * (Step 1) and return the counter snapshot. Snapshots are
     * deterministic per workload, so each is made once per Runner:
     * the first caller loads it from the attached profile store or
     * simulates (and stores) it, and concurrent callers wait for
     * that one result. A failed or cancelled profile is neither
     * cached nor stored; a waiter then profiles the workload itself.
     */
    core::ProfileSnapshot profileWorkload(const std::string &workload);

    /**
     * The full Prophet pipeline on one input: profile, analyze,
     * run the optimized binary.
     */
    ProphetOutcome runProphet(
        const std::string &workload,
        const core::AnalyzerConfig &acfg = {},
        const core::ProphetConfig &pcfg = core::ProphetConfig{});

    /** Run Prophet with an existing optimized binary (learning). */
    RunStats runProphetWithBinary(
        const std::string &workload,
        const core::OptimizedBinary &binary,
        const core::ProphetConfig &pcfg = core::ProphetConfig{});

    /** The prefetch-distance range runRpg2() searches. */
    static constexpr rpg2::TunerConfig kRpg2Tuning{1, 64};

    /**
     * The full RPG2 pipeline: identify kernels from a baseline
     * profile, binary-search the distance over kRpg2Tuning, report
     * the best run. Workloads with no qualified kernels return the
     * baseline run (RPG2 inserts nothing).
     */
    Rpg2Outcome runRpg2(const std::string &workload);

    /**
     * Bytes of every trace this Runner holds (Trace::residentBytes:
     * 12 per record plus the PC tables).
     */
    std::size_t residentTraceBytes();

    /** The base configuration (benches derive variants from it). */
    const SystemConfig &baseConfig() const { return base; }

    /** Speedup of stats over the cached baseline of a workload. */
    double speedup(const std::string &workload, const RunStats &stats);

    /** DRAM traffic normalized to the workload baseline. */
    double trafficNorm(const std::string &workload,
                       const RunStats &stats);

    /** Coverage: demand-miss reduction vs the workload baseline. */
    double coverage(const std::string &workload,
                    const RunStats &stats);

  private:
    SystemConfig base;
    std::size_t recordsOverride;
    std::shared_ptr<trace::TraceCache> cache; ///< optional
    const CancellationToken *cancel = nullptr; ///< optional

    /**
     * Guards the caches below. Held only around lookups and
     * inserts, never across a simulation or trace generation, so
     * workers overlap fully on the expensive parts.
     */
    std::mutex cacheMu;

    std::map<std::string, trace::GeneratorPtr> generators;
    std::map<std::string, std::shared_ptr<const trace::Trace>> traces;
    std::map<std::string, RunStats> baselines;
    std::map<std::string, std::shared_future<core::ProfileSnapshot>>
        profiles;
    ProfileStore profileStore; ///< optional (empty hooks)

    /** One profiling simulation of @p workload (no caching). */
    core::ProfileSnapshot simulateProfile(const std::string &workload);

    void ensureWorkload(const std::string &workload);
};

} // namespace prophet::sim

#endif // PROPHET_SIM_RUNNER_HH
