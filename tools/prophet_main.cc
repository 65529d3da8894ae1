/**
 * @file
 * The `prophet` CLI: the single entry point the declarative
 * experiment layer exposes.
 *
 *   prophet run <spec.json> [--threads N] [--records N]
 *               [--no-trace-cache] [--trace-cache-dir DIR]
 *               [--keep-going | --fail-fast] [--progress]
 *               [--metrics-out FILE] [--trace-out FILE]
 *   prophet list-workloads
 *   prophet list-pipelines
 *   prophet trace-cache warm <spec.json | workload...>
 *               [--threads N] [--records N] [--trace-cache-dir DIR]
 *   prophet trace-cache clear [--trace-cache-dir DIR]
 *   prophet trace-cache stats [--trace-cache-dir DIR]
 *
 * `run` executes a spec and streams results to its sinks; CLI flags
 * override the spec's thread/record counts and failure policy. Each
 * flag is scoped to the subcommands that read it (kFlags): passing it
 * to any other subcommand is a usage error (exit 2), never ignored.
 * `trace-cache warm` pre-generates the traces a spec (or an explicit
 * workload list) needs, so subsequent runs skip generation; it
 * stores no results. `trace-cache stats` and `clear` cover the
 * result store in the "results" subdirectory too.
 *
 * Exit codes (documented in --help): 0 success, 2 usage error,
 * 3 spec parse/validation error, 4 runtime failure (a job or sink
 * failed and the run could not complete fully under fail-fast),
 * 5 partial failure (--keep-going: some jobs failed, the rest
 * completed and the partial results were written), 6 interrupted
 * (SIGINT/SIGTERM drained the run; completed jobs are in the result
 * store, so rerunning the same command continues where it stopped).
 */

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/cancellation.hh"
#include "common/exit_codes.hh"
#include "driver/driver.hh"
#include "driver/result_store.hh"
#include "sim/pipelines.hh"
#include "sim/sweep.hh"
#include "trace/trace_cache.hh"
#include "workloads/registry.hh"

namespace
{

using namespace prophet;

/**
 * Graceful-shutdown plumbing for `prophet run`: the handler fires the
 * driver's shutdown token (CancellationToken::cancel is
 * async-signal-safe — one relaxed atomic store) and records which
 * signal arrived so cmdRun can exit 6. SA_RESETHAND restores the
 * default disposition, so a second ^C force-kills a run whose drain
 * is stuck.
 */
CancellationToken gShutdown;
volatile std::sig_atomic_t gSignal = 0;

extern "C" void
onShutdownSignal(int sig)
{
    gSignal = sig;
    gShutdown.cancel();
}

void
installShutdownHandlers()
{
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = onShutdownSignal;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = SA_RESETHAND;
    sigaction(SIGINT, &sa, nullptr);
    sigaction(SIGTERM, &sa, nullptr);
}

int
usage()
{
    std::fprintf(
        stderr,
        "usage: prophet <command> [args]\n"
        "\n"
        "  run <spec.json> [--threads N] [--records N]\n"
        "      [--no-trace-cache] [--trace-cache-dir DIR]\n"
        "      [--keep-going | --fail-fast] [--progress]\n"
        "      [--metrics-out FILE] [--trace-out FILE]\n"
        "      [--job-timeout SEC]\n"
        "  list-workloads\n"
        "  list-pipelines\n"
        "  trace-cache warm <spec.json | workload...>\n"
        "      [--threads N] [--records N] [--trace-cache-dir DIR]\n"
        "  trace-cache clear [--trace-cache-dir DIR]\n"
        "      (traces and stored results)\n"
        "  trace-cache stats [--trace-cache-dir DIR]\n"
        "\n"
        "observability (run; all off by default — outputs are\n"
        "byte-identical to a run without these flags):\n"
        "  --progress         live jobs/rate/ETA line on stderr\n"
        "  --metrics-out FILE write a JSON metrics report (phase\n"
        "                     timings, counters, per-job timings,\n"
        "                     peak RSS, thread utilization)\n"
        "  --trace-out FILE   write a Chrome trace_event span trace\n"
        "                     (open in https://ui.perfetto.dev)\n"
        "  PROPHET_LOG=error|warn|info|debug filters stderr logging\n"
        "                     (default info)\n"
        "\n"
        "failure policy (run):\n"
        "  --keep-going   run every job even after one fails; render\n"
        "                 partial results with failed cells marked\n"
        "  --fail-fast    cancel remaining jobs on the first failure\n"
        "                 (the default unless the spec sets\n"
        "                 \"keep_going\": true)\n"
        "\n"
        "result store (run): every simulated job, baseline and\n"
        "  Prophet profile is stored under <trace-cache-dir>/results,\n"
        "  keyed by its inputs and a hash of this executable, and\n"
        "  served to any later run that needs it (output is\n"
        "  byte-identical). It is on exactly when the trace cache\n"
        "  is; rerunning an interrupted run continues where it\n"
        "  stopped, and a new Prophet spec over the same machine\n"
        "  skips profiling.\n"
        "\n"
        "long-running sweeps (run):\n"
        "  --job-timeout SEC\n"
        "                 per-job watchdog deadline: an overrunning\n"
        "                 job is cancelled, recorded as a transient\n"
        "                 timeout, and retried; overrides the spec's\n"
        "                 \"deadline_s\" (0 disables both)\n"
        "  SIGINT/SIGTERM drain in-flight jobs, flush partial\n"
        "                 sinks, and exit 6; a second signal\n"
        "                 force-kills\n"
        "\n");
    // One shared block (common/exit_codes.hh): every command computes
    // its exit from the same enum this prints.
    std::fputs(exitCodesHelp(), stderr);
    return 2;
}

/** Flag state, filled by parseFlags for one subcommand. */
struct Flags
{
    driver::DriverOptions opts;
    std::vector<std::string> positional;
};

/**
 * The subcommands, as bits. Every flag names the subcommands that
 * read it; any other use is a usage error, so no flag is ever
 * accepted and silently ignored.
 */
enum : unsigned
{
    kRun = 1u << 0,
    kWarm = 1u << 1,
    kCacheAdmin = 1u << 2, ///< trace-cache clear / stats
};

/** A parsed flag value, handed to FlagDef::apply. */
struct FlagValue
{
    const char *text = nullptr;
    unsigned long long count = 0;
    double seconds = 0.0;
};

struct FlagDef
{
    const char *name;
    unsigned cmds; ///< subcommands that read the flag
    enum class Arg { None, Text, Count, Seconds } arg;
    unsigned long long max; ///< Count bound (inclusive)
    void (*apply)(Flags &, const FlagValue &);
};

// Bounds match the spec parser's: an overflowing value must be an
// error, not a silent truncation — and never a value that collides
// with the kNoThreads/kNoRecords "unset" sentinels.
constexpr unsigned long long kMaxThreads = 65536;
constexpr unsigned long long kMaxRecords = 1ull << 53;

using A = FlagDef::Arg;
const FlagDef kFlags[] = {
    {"--threads", kRun | kWarm, A::Count, kMaxThreads,
     [](Flags &f, const FlagValue &v) {
         f.opts.threads = static_cast<unsigned>(v.count);
     }},
    {"--records", kRun | kWarm, A::Count, kMaxRecords,
     [](Flags &f, const FlagValue &v) {
         f.opts.records = static_cast<std::size_t>(v.count);
     }},
    {"--trace-cache-dir", kRun | kWarm | kCacheAdmin, A::Text, 0,
     [](Flags &f, const FlagValue &v) {
         f.opts.traceCacheDir = v.text;
     }},
    {"--no-trace-cache", kRun, A::None, 0,
     [](Flags &f, const FlagValue &) { f.opts.traceCache = 0; }},
    {"--keep-going", kRun, A::None, 0,
     [](Flags &f, const FlagValue &) { f.opts.keepGoing = 1; }},
    {"--fail-fast", kRun, A::None, 0,
     [](Flags &f, const FlagValue &) { f.opts.keepGoing = 0; }},
    {"--progress", kRun, A::None, 0,
     [](Flags &f, const FlagValue &) { f.opts.progress = true; }},
    {"--metrics-out", kRun, A::Text, 0,
     [](Flags &f, const FlagValue &v) { f.opts.metricsOut = v.text; }},
    {"--trace-out", kRun, A::Text, 0,
     [](Flags &f, const FlagValue &v) { f.opts.traceOut = v.text; }},
    {"--job-timeout", kRun, A::Seconds, 0,
     [](Flags &f, const FlagValue &v) {
         f.opts.jobTimeoutS = v.seconds;
     }},
};

/**
 * Parse argv[from..] for subcommand @p cmd (one of the bits above),
 * named @p cmd_name in messages. Value flags take "--flag V" or
 * "--flag=V". Returns false after printing why on any unknown flag,
 * flag of another subcommand, or malformed value.
 */
bool
parseFlags(int argc, char **argv, int from, unsigned cmd,
           const char *cmd_name, Flags &flags)
{
    for (int i = from; i < argc; ++i) {
        const char *arg = argv[i];
        if (arg[0] != '-') {
            flags.positional.push_back(arg);
            continue;
        }
        const char *eq = std::strchr(arg, '=');
        const std::string name(arg, eq ? eq - arg : std::strlen(arg));
        const FlagDef *def = nullptr;
        for (const auto &d : kFlags)
            if (name == d.name)
                def = &d;
        if (!def) {
            std::fprintf(stderr, "prophet %s: unknown flag %s\n",
                         cmd_name, arg);
            return false;
        }
        if (!(def->cmds & cmd)) {
            std::fprintf(stderr,
                         "prophet: %s is not accepted by `prophet "
                         "%s`\n",
                         def->name, cmd_name);
            return false;
        }
        FlagValue v;
        if (def->arg == A::None) {
            if (eq) {
                std::fprintf(stderr, "prophet: %s takes no value\n",
                             def->name);
                return false;
            }
            def->apply(flags, v);
            continue;
        }
        if (eq) {
            v.text = eq + 1;
        } else if (i + 1 < argc) {
            v.text = argv[++i];
        } else {
            std::fprintf(stderr, "prophet: %s needs a value\n",
                         def->name);
            return false;
        }
        char *end = nullptr;
        errno = 0;
        bool ok = true;
        if (def->arg == A::Count) {
            v.count = std::strtoull(v.text, &end, 10);
            ok = v.count <= def->max; // "-1" wraps past every max
        } else if (def->arg == A::Seconds) {
            v.seconds = std::strtod(v.text, &end);
            ok = v.seconds >= 0.0 && v.seconds < 1e9;
        }
        if (def->arg != A::Text
            && (!ok || end == v.text || *end != '\0'
                || errno == ERANGE)) {
            std::fprintf(stderr, "prophet: %s: invalid value '%s'\n",
                         def->name, v.text);
            return false;
        }
        def->apply(flags, v);
    }
    return true;
}

int
cmdRun(const Flags &flags)
{
    if (flags.positional.size() != 1) {
        std::fprintf(stderr, "prophet run: expected one spec file\n");
        return 2;
    }
    try {
        auto spec =
            driver::ExperimentSpec::fromFile(flags.positional[0]);
        driver::DriverOptions opts = flags.opts;
        // The shutdown token rides along unconditionally: without the
        // result store (--no-trace-cache) an interrupt still drains
        // cleanly and exits 6, a rerun just starts over.
        installShutdownHandlers();
        opts.shutdown = &gShutdown;
        driver::ExperimentDriver drv(std::move(spec),
                                     std::move(opts));
        bool keep_going = drv.keepGoingEnabled();
        auto report = drv.run();
        int rc = driver::exitCodeForReport(report, keep_going);
        if (report.failedJobs > 0)
            std::fprintf(
                stderr, "prophet run: %zu of %zu job%s failed%s\n",
                report.failedJobs, report.results.size(),
                report.results.size() == 1 ? "" : "s",
                keep_going ? " (keep-going: partial results written)"
                           : "");
        if (!report.sinksOk)
            std::fprintf(stderr,
                         "prophet run: one or more sinks failed to "
                         "write\n");
        // A signal trumps the failure codes: the skipped/cancelled
        // jobs are the interrupt's doing, and exit 6 tells scripts
        // "rerun to continue", not "a job is broken".
        if (gSignal != 0) {
            std::fprintf(
                stderr,
                "prophet run: interrupted by signal %d "
                "(%zu job%s completed%s)\n",
                static_cast<int>(gSignal),
                report.results.size() - report.failedJobs,
                report.results.size() - report.failedJobs == 1
                    ? ""
                    : "s",
                drv.traceCacheEnabled() ? "; rerun to continue" : "");
            rc = static_cast<int>(ExitCode::Interrupted);
        }
        return rc;
    } catch (const Error &e) {
        std::fprintf(stderr, "prophet run: %s\n", e.what());
        return static_cast<int>(exitCodeForError(e.code()));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "prophet run: %s\n", e.what());
        return static_cast<int>(ExitCode::RuntimeFailure);
    }
}

int
cmdListWorkloads()
{
    std::printf("SPEC (Figures 10-12, 16-19):\n");
    for (const auto &w : workloads::specWorkloads())
        std::printf("  %s\n", w.c_str());
    std::printf("graph (Figure 15):\n");
    for (const auto &w : workloads::graphWorkloads())
        std::printf("  %s\n", w.c_str());
    std::printf("gcc inputs (Figure 13):\n");
    for (const auto &w : workloads::gccInputs())
        std::printf("  %s\n", w.c_str());
    std::printf("\nGraph labels follow <kernel>_<vertices>_<degree> "
                "with kernels\nbfs dfs sssp bc pagerank, so labels "
                "beyond Figure 15's are valid too.\n"
                "Spec aliases: @spec @graph @gcc\n");
    return 0;
}

int
cmdListPipelines()
{
    // Everything printed here comes from the pipeline registry —
    // names, display names, and the accepted parameters. Adding a
    // registry entry updates this listing (and the spec schema)
    // automatically.
    for (const auto &def : sim::pipelineRegistry()) {
        std::printf("%-10s %s\n", def.name.c_str(),
                    def.displayName.c_str());
        if (def.params.empty()) {
            std::printf("  (no parameters)\n");
            continue;
        }
        for (const auto &p : def.params)
            std::printf("  %-16s %-16s %s\n", p.key.c_str(),
                        sim::paramTypeName(p.type).c_str(),
                        p.doc.c_str());
    }
    std::printf(
        "\nSpec usage: a \"pipelines\" element is a name or an "
        "object, e.g.\n"
        "  {\"name\": \"triage\", \"degree\": 4, \"label\": "
        "\"triage-d4\"}\n"
        "and a top-level \"sweep\": {\"param\": ..., \"values\": "
        "[...]} cross-products\n"
        "every pipeline with every value.\n");
    return 0;
}

int
cmdTraceCacheWarm(const Flags &flags)
{
    if (flags.positional.empty()) {
        std::fprintf(stderr,
                     "prophet trace-cache warm: expected a spec file "
                     "or workload names\n");
        return 2;
    }

    // Cache keys are (workload, records), and each spec file may
    // use a different record override — so warming tracks the pair
    // per workload, never one global record count.
    std::vector<std::pair<std::string, std::size_t>> jobs;
    unsigned threads = 1;
    try {
        for (const auto &arg : flags.positional) {
            if (arg.size() > 5
                && arg.compare(arg.size() - 5, 5, ".json") == 0) {
                auto spec = driver::ExperimentSpec::fromFile(arg);
                for (const auto &w : spec.workloads)
                    jobs.emplace_back(w, spec.records);
                threads = spec.threads;
            } else if (workloads::isKnown(arg)) {
                jobs.emplace_back(arg, std::size_t{0});
            } else {
                std::fprintf(stderr,
                             "prophet trace-cache warm: unknown "
                             "workload \"%s\"\n",
                             arg.c_str());
                return 1;
            }
        }
    } catch (const driver::SpecError &e) {
        std::fprintf(stderr, "prophet trace-cache warm: %s\n",
                     e.what());
        return 1;
    }
    if (flags.opts.records != driver::DriverOptions::kNoRecords)
        for (auto &[w, r] : jobs)
            r = flags.opts.records;
    if (flags.opts.threads != driver::DriverOptions::kNoThreads)
        threads = flags.opts.threads;

    // One Runner per distinct record override (a Runner generates at
    // a single trace length); duplicates within a group collapse.
    std::map<std::size_t, std::vector<std::string>> groups;
    for (const auto &[w, r] : jobs) {
        auto &names = groups[r];
        if (std::find(names.begin(), names.end(), w) == names.end())
            names.push_back(w);
    }
    auto cache = std::make_shared<trace::TraceCache>(
        flags.opts.traceCacheDir);
    std::size_t warmed = 0;
    for (const auto &[records, names] : groups) {
        sim::Runner runner(sim::SystemConfig::table1(), records);
        runner.setTraceCache(cache);
        sim::SweepEngine engine(runner, threads);
        engine.forEach(names.size(), [&](std::size_t i) {
            runner.traceFor(names[i]);
        });
        warmed += names.size();
    }
    auto st = cache->stats();
    std::printf("warmed %zu workload(s) into %s "
                "(%llu already cached, %llu generated)\n",
                warmed, cache->dir().c_str(),
                static_cast<unsigned long long>(st.hits),
                static_cast<unsigned long long>(st.stores));
    return 0;
}

int
cmdTraceCacheClear(const Flags &flags)
{
    trace::TraceCache cache(flags.opts.traceCacheDir);
    std::size_t removed = cache.clear();
    std::size_t results = driver::ResultStore::clear(cache.dir());
    std::printf("removed %zu cached trace(s) and %zu stored "
                "result(s) from %s\n",
                removed, results, cache.dir().c_str());
    return 0;
}

int
cmdTraceCacheStats(const Flags &flags)
{
    trace::TraceCache cache(flags.opts.traceCacheDir);
    auto entries = cache.entries();
    std::uint64_t total = 0;
    std::map<std::uint32_t, std::size_t> by_version;
    for (const auto &e : entries) {
        std::printf("  %10llu  v%u  %s\n",
                    static_cast<unsigned long long>(e.bytes),
                    e.version, e.file.c_str());
        total += e.bytes;
        ++by_version[e.version];
    }
    std::printf("%zu cached trace(s), %llu bytes in %s\n",
                entries.size(),
                static_cast<unsigned long long>(total),
                cache.dir().c_str());
    for (const auto &[version, count] : by_version) {
        if (version == 0)
            std::printf("  format unreadable: %zu entr%s\n", count,
                        count == 1 ? "y" : "ies");
        else
            std::printf("  format v%u: %zu entr%s\n", version, count,
                        count == 1 ? "y" : "ies");
    }
    auto results = driver::ResultStore::usage(cache.dir());
    std::printf("%zu stored result(s), %llu bytes in %s/results\n",
                results.entries,
                static_cast<unsigned long long>(results.bytes),
                cache.dir().c_str());

    // Quarantined entries and the durable health counters
    // (accumulated across every process that used this directory).
    auto quarantined = cache.quarantined();
    if (!quarantined.empty()) {
        std::printf("%zu quarantined entr%s (corrupt, renamed to "
                    ".corrupt; removed by trace-cache clear):\n",
                    quarantined.size(),
                    quarantined.size() == 1 ? "y" : "ies");
        for (const auto &e : quarantined)
            std::printf("  %10llu  %s\n",
                        static_cast<unsigned long long>(e.bytes),
                        e.file.c_str());
    }
    auto pc = cache.persistentCounters();
    std::printf("health counters (lifetime of %s):\n"
                "  checksum failures: %llu\n"
                "  quarantines:       %llu\n"
                "  lock contention:   %llu\n"
                "  store failures:    %llu\n",
                cache.dir().c_str(),
                static_cast<unsigned long long>(pc.checksumFailures),
                static_cast<unsigned long long>(pc.quarantines),
                static_cast<unsigned long long>(pc.lockContention),
                static_cast<unsigned long long>(pc.storeFailures));
    return 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    std::string cmd = argv[1];
    if (cmd == "list-workloads")
        return cmdListWorkloads();
    if (cmd == "list-pipelines")
        return cmdListPipelines();
    if (cmd == "--help" || cmd == "-h" || cmd == "help") {
        usage();
        return 0;
    }

    // Every other command parses flags scoped to it (kFlags).
    const bool two_word = cmd == "trace-cache";
    if (two_word && argc < 3)
        return usage();
    const std::string sub = two_word ? argv[2] : "";
    const std::string name = two_word ? cmd + " " + sub : cmd;
    unsigned bit = 0;
    if (cmd == "run")
        bit = kRun;
    else if (name == "trace-cache warm")
        bit = kWarm;
    else if (name == "trace-cache clear" || name == "trace-cache stats")
        bit = kCacheAdmin;
    else if (cmd == "trace-cache")
        return usage();
    else {
        std::fprintf(stderr, "prophet: unknown command \"%s\"\n",
                     cmd.c_str());
        return usage();
    }
    Flags flags;
    if (!parseFlags(argc, argv, two_word ? 3 : 2, bit, name.c_str(),
                    flags))
        return static_cast<int>(ExitCode::Usage);
    if (!flags.positional.empty()
        && bit == kCacheAdmin) {
        std::fprintf(stderr,
                     "prophet %s: unexpected argument \"%s\"\n",
                     name.c_str(), flags.positional[0].c_str());
        return static_cast<int>(ExitCode::Usage);
    }
    switch (bit) {
      case kRun:
        return cmdRun(flags);
      case kWarm:
        return cmdTraceCacheWarm(flags);
      default:
        return sub == "clear" ? cmdTraceCacheClear(flags)
                              : cmdTraceCacheStats(flags);
    }
}
