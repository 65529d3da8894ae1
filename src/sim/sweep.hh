/**
 * @file
 * The parallel sweep engine: fans simulation jobs — including the
 * multi-run RPG2 tuning and Prophet profile/analyze/run pipelines —
 * across a fixed-size thread pool and merges results
 * deterministically.
 *
 * Every job is an independent System over a shared immutable trace,
 * and each pipeline's internal runs stay sequential inside its job,
 * so a sweep's results are bit-identical to serial execution: the
 * merge is by job index, never by completion order.
 */

#ifndef PROPHET_SIM_SWEEP_HH
#define PROPHET_SIM_SWEEP_HH

#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/cancellation.hh"
#include "sim/runner.hh"
#include "sim/thread_pool.hh"

namespace prophet::sim
{

/**
 * Schedules simulation jobs over a thread pool. With threads == 1
 * the engine degrades to plain serial execution in the calling
 * thread; any thread count produces identical results.
 */
class SweepEngine
{
  public:
    /**
     * @param runner The shared runner the jobs simulate on. Jobs
     *        capture it themselves; the engine only schedules them.
     * @param threads Worker count; 0 = hardware concurrency.
     */
    explicit SweepEngine(Runner &runner, unsigned threads = 0);

    /** Worker count in use. */
    unsigned threads() const;

    /** How tryForEach responds to a failing index. */
    enum class FailurePolicy
    {
        /** Every index runs; failures are collected per index. */
        KeepGoing,

        /**
         * The first failure cancels the token (when one is given);
         * indices not yet started are skipped and reported as
         * cancelled by the caller's convention (their slot stays
         * null — distinguish via the skipped flag in the result).
         */
        FailFast,
    };

    /** Per-index outcome of a tryForEach fan-out. */
    struct JobFailure
    {
        /** Null when the index succeeded. */
        std::exception_ptr error;

        /** True when fail-fast skipped the index before it started. */
        bool skipped = false;

        bool ok() const { return !error && !skipped; }
    };

    /**
     * Run fn(0..n-1), fanned across the pool. Returns when all
     * indices have completed; rethrows the first job exception.
     */
    void forEach(std::size_t n,
                 const std::function<void(std::size_t)> &fn);

    /**
     * Fault-isolated fan-out: run fn(0..n-1) and capture each
     * index's failure instead of rethrowing, so one bad job cannot
     * take down its siblings. Under FailFast the first failure
     * cancels @p token (when non-null) — unwinding in-flight
     * simulations that poll it — and skips indices that have not
     * started. A token fired *externally* (the driver's graceful
     * shutdown) skips not-yet-started indices under either policy:
     * in-flight jobs drain, new ones never start. The returned
     * vector always has n entries, indexed by job, regardless of
     * completion order.
     */
    std::vector<JobFailure>
    tryForEach(std::size_t n,
               const std::function<void(std::size_t)> &fn,
               FailurePolicy policy = FailurePolicy::KeepGoing,
               CancellationToken *token = nullptr);

  private:
    std::unique_ptr<ThreadPool> pool; ///< null when single-threaded
};

} // namespace prophet::sim

#endif // PROPHET_SIM_SWEEP_HH
