/**
 * @file
 * The content-addressed result store: one small file per simulated
 * result — a job's RunStats, a workload's baseline, or a workload's
 * Prophet profile — under "<trace-cache-dir>/results/<16-hex
 * key>.prs". The experiment driver consults it before it simulates a
 * job, a baseline or a profile and writes to it after a successful
 * one, so a spec whose results another run already produced (fig11
 * after fig10, or a rerun of an interrupted sweep) is served instead
 * of simulated, and a new Prophet spec over the same machine skips
 * profiling (fig16a after fig10).
 *
 * The key is FNV-1a-64 over a canonical JSON text naming every input
 * the result depends on (ExperimentSpec::resultIdentity or
 * profileIdentity) plus the *model fingerprint*: a hash of the
 * running executable. Any rebuild
 * that changes the simulator's code therefore misses, so the store
 * can never serve results from a different simulator; there is no
 * version constant to remember to bump.
 *
 * Durability follows the trace cache: entries are written to a temp
 * file and renamed into place, without fsync. A torn or lost entry
 * is only a miss. Every entry carries its full key text and a
 * checksum; a corrupt, truncated or foreign-key entry is a miss
 * (counted under "store.corrupt") and is overwritten by the
 * recomputed result. The format is host-endian: the store is a
 * same-machine cache, not an interchange format.
 */

#ifndef PROPHET_DRIVER_RESULT_STORE_HH
#define PROPHET_DRIVER_RESULT_STORE_HH

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>

#include "core/profile.hh"
#include "driver/json.hh"
#include "sim/system.hh"

namespace prophet::driver
{

class ResultStore
{
  public:
    /** The result files of one cache directory. */
    struct Usage
    {
        std::size_t entries = 0;
        std::uint64_t bytes = 0;
    };

    /**
     * A store over "<cache_dir>/results" (created on first put) for
     * results of the simulator identified by @p model_fingerprint —
     * executableFingerprint() in production; tests inject their own.
     * Registers the store.* counters.
     */
    ResultStore(const std::string &cache_dir,
                std::uint64_t model_fingerprint);

    /**
     * FNV-1a-64 of /proc/self/exe, computed once per process; 0 when
     * the executable cannot be read (the driver then runs without a
     * store).
     */
    static std::uint64_t executableFingerprint();

    /**
     * The full key text of a result: the canonical compact JSON of
     * @p identity (everything the result depends on, as
     * ExperimentSpec::resultIdentity builds it) plus this store's
     * model fingerprint under "model".
     */
    std::string keyText(const json::Value &identity) const;

    /** The entry file a key text maps to. */
    std::string path(const std::string &key_text) const;

    /**
     * The stored result for @p identity, or nullopt on a miss. Counts
     * "store.hits" or "store.misses"; a present but unusable entry
     * additionally counts "store.corrupt". Never throws.
     */
    std::optional<sim::RunStats> get(const json::Value &identity);

    /** The stored profile for @p identity; as get(). */
    std::optional<core::ProfileSnapshot>
    getProfile(const json::Value &identity);

    /**
     * Store @p stats under @p identity (temp file + rename). A failed
     * write — or the fault site "store.write" — logs once per store
     * and returns false; the run continues. Thread-safe.
     */
    bool put(const json::Value &identity, const sim::RunStats &stats);

    /** Store @p profile under @p identity; as put() for stats. */
    bool put(const json::Value &identity,
             const core::ProfileSnapshot &profile);

    /** Count and bytes of the result files under @p cache_dir. */
    static Usage usage(const std::string &cache_dir);

    /** Delete every result file under @p cache_dir; returns the
     *  number of entries removed. */
    static std::size_t clear(const std::string &cache_dir);

  private:
    /** The framing every entry kind shares (defined in the .cc). */
    template <class T>
    std::optional<T> load(const json::Value &identity);
    template <class T>
    bool save(const json::Value &identity, const T &value);

    std::string dirPath;
    std::uint64_t model;
    std::atomic<bool> writeFailedOnce{false};
};

} // namespace prophet::driver

#endif // PROPHET_DRIVER_RESULT_STORE_HH
