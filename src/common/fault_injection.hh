/**
 * @file
 * Deterministic fault injection: named fault points compiled
 * permanently into the error-handling paths, armed per-site from
 * the environment or programmatically, so every recovery path in
 * the tree is exercised by tests rather than by luck.
 *
 * A fault *site* is a stable string the failure path checks, e.g.
 *
 *   trace_io.fread     every payload read in the binary trace loader
 *   trace_io.fwrite    every payload write in the binary trace saver
 *                      (fires as a simulated ENOSPC mid-store)
 *   cache.store        the trace-cache store entry point
 *   job.<w>/<p>        the driver job for workload w, pipeline p
 *                      (permanent failure, marked in the results)
 *   job-transient.<w>/<p>  same, but raised as a transient I/O
 *                      error, so the driver's bounded retry clears
 *                      it once the armed count is exhausted
 *   store.write        a result-store write fails: nothing is
 *                      written, the failure is logged once, the run
 *                      continues, and that result is simulated
 *                      again by the next run that needs it
 *
 * Arming: PROPHET_FAULTS="site:nth[:count]" (comma-separated list).
 * The site's hit counter starts at 1; the fault fires on hits
 * [nth, nth+count), so "trace_io.fread:3:1" fails exactly the third
 * fread and "job.mcf/triage:1" fails that job on every attempt
 * (count defaults to unlimited). Hits are counted per site across
 * the whole process, under a mutex, so a given spec + fault spec
 * always fails at the same point regardless of thread scheduling
 * *per site*; keep multi-threaded fault tests to sites hit by one
 * job to stay fully deterministic.
 *
 * Cost when idle: one relaxed atomic load per fault point — the
 * harness stays compiled in everywhere, including release builds.
 */

#ifndef PROPHET_COMMON_FAULT_INJECTION_HH
#define PROPHET_COMMON_FAULT_INJECTION_HH

#include <cstdint>
#include <string>
#include <vector>

namespace prophet::fault
{

/**
 * Should the fault at @p site fire on this hit? Counts the hit when
 * any fault anywhere is armed; free (one atomic load, no counting)
 * when the harness is idle. The very first call in a process also
 * arms sites from $PROPHET_FAULTS.
 */
bool shouldFail(const std::string &site);

/**
 * Arm @p site: fire on hit numbers [nth, nth + count). Hit numbers
 * are 1-based; count 0 means unlimited (every hit from nth on).
 */
void arm(const std::string &site, std::uint64_t nth,
         std::uint64_t count = 0);

/**
 * Arm sites from a "site:nth[:count],site2:nth2..." spec (the
 * $PROPHET_FAULTS syntax). Returns false (arming nothing further)
 * on a malformed spec.
 */
bool armFromSpec(const std::string &spec);

/** Disarm every site and zero all counters (tests). */
void reset();

/** Times @p site was hit (0 when the harness has been idle). */
std::uint64_t hits(const std::string &site);

/** Times @p site actually fired. */
std::uint64_t fired(const std::string &site);

/** Total faults fired across all sites. */
std::uint64_t totalFired();

/** The armed sites, for diagnostics ("site:nth:count"). */
std::vector<std::string> armedSites();

} // namespace prophet::fault

#endif // PROPHET_COMMON_FAULT_INJECTION_HH
