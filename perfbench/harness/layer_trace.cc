/**
 * layer_trace: the benchmark's traced run of one experiment spec.
 *
 * Drives the spec's jobs through the simulator library's public entry
 * points -- Runner::traceShared, System::run, Runner::profileWorkload,
 * Analyzer::analyze, Learner::learn, rpg2::identifyKernels and
 * rpg2::tuneDistance -- on the library's own SweepEngine, in the same
 * two phases as `prophet run` (one baseline job per workload, then
 * every workload x pipeline job), and records a span around each call.
 * Spans live in memory and are written as a Chrome trace at exit; the
 * job results go to a JSON file that perfbench/run.py compares with
 * the CLI's JSON sink.
 *
 *   layer_trace SPEC --threads N --trace-cache-dir DIR --run-id K
 *               --out RESULTS.json --trace-out SPANS.json [--probes]
 *
 * --probes: after the jobs, call once, on the spec's first workload,
 * every layer entry point the jobs did not reach (a System kind the
 * spec does not run, Learner::learn, rpg2::identifyKernels), so each
 * per-layer timing exists on every workload. Probe spans are marked
 * and kept out of the job counts.
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/analyzer.hh"
#include "core/learner.hh"
#include "driver/json.hh"
#include "driver/spec.hh"
#include "rpg2/distance_tuner.hh"
#include "rpg2/kernel_id.hh"
#include "rpg2/rpg2.hh"
#include "sim/runner.hh"
#include "sim/sweep.hh"
#include "sim/system.hh"
#include "trace/trace_cache.hh"

namespace
{

using namespace prophet;
using json = driver::json::Value;

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** One finished span. Times are steady_clock nanoseconds. */
struct SpanRecord
{
    std::string name;
    std::string layer;
    std::string detail;      ///< workload, or System kind for sim.run
    std::uint64_t count = 0; ///< records, kernels or hints
    std::uint64_t start = 0;
    std::uint64_t end = 0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0; ///< 0 = top level on its thread
    std::uint32_t tid = 0;
    bool probe = false;
};

std::mutex g_spanMu;
std::vector<SpanRecord> g_spans; // guarded by g_spanMu
std::atomic<std::uint64_t> g_nextSpanId{1};
std::atomic<std::uint32_t> g_nextTid{0};
std::uint32_t g_runId = 0;
std::atomic<bool> g_probing{false}; // set after the job phases

/** Per-thread track id and the stack of open spans on it. */
struct ThreadTrack
{
    std::uint32_t tid = g_nextTid.fetch_add(1);
    std::vector<std::uint64_t> open;
};
thread_local ThreadTrack t_track;

/**
 * A span around one call. Its parent is the innermost open span on the
 * same thread, so a track's spans nest and a layer's self time is its
 * span minus its children on that track.
 */
class Span
{
  public:
    Span(const char *name, const char *layer, std::string detail)
    {
        rec.name = name;
        rec.layer = layer;
        rec.detail = std::move(detail);
        rec.id = g_nextSpanId.fetch_add(1);
        rec.parent = t_track.open.empty() ? 0 : t_track.open.back();
        rec.tid = t_track.tid;
        rec.probe = g_probing;
        t_track.open.push_back(rec.id);
        rec.start = nowNs();
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    ~Span()
    {
        rec.end = nowNs();
        t_track.open.pop_back();
        std::lock_guard<std::mutex> lock(g_spanMu);
        g_spans.push_back(std::move(rec));
    }

    void setCount(std::uint64_t n) { rec.count = n; }

  private:
    SpanRecord rec;
};

const char *
kindName(sim::L2PfKind kind)
{
    switch (kind) {
      case sim::L2PfKind::None:
        return "none";
      case sim::L2PfKind::Triage:
      case sim::L2PfKind::Triage4:
        return "triage";
      case sim::L2PfKind::Triangel:
        return "triangel";
      case sim::L2PfKind::Prophet:
        return "prophet";
      case sim::L2PfKind::Simplified:
        return "simplified";
      case sim::L2PfKind::Stms:
        return "stms";
      case sim::L2PfKind::Domino:
        return "domino";
    }
    return "unknown";
}

json
statsJson(const sim::RunStats &s)
{
    json o = json::makeObject();
    o.set("ipc", json(s.ipc));
    o.set("cycles", json(s.cycles));
    o.set("instructions", json(s.instructions));
    o.set("records", json(s.records));
    o.set("l1_misses", json(s.l1Misses));
    o.set("l2_demand_accesses", json(s.l2DemandAccesses));
    o.set("l2_demand_misses", json(s.l2DemandMisses));
    o.set("llc_misses", json(s.llcMisses));
    o.set("l2_prefetches_issued", json(s.l2PrefetchesIssued));
    o.set("l2_prefetches_useful", json(s.l2PrefetchesUseful));
    o.set("late_prefetches", json(s.latePrefetches));
    o.set("dram_reads", json(s.dramReads));
    o.set("dram_writes", json(s.dramWrites));
    o.set("dram_prefetch_reads", json(s.dramPrefetchReads));
    o.set("final_metadata_ways",
          json(static_cast<double>(s.finalMetadataWays)));
    o.set("markov_lookups", json(s.markov.lookups));
    o.set("markov_hits", json(s.markov.hits));
    o.set("offchip_meta_reads", json(s.offchipMeta.metadataReads));
    o.set("offchip_meta_writes", json(s.offchipMeta.metadataWrites));
    return o;
}

/**
 * The spec's jobs, each pipeline spelled out in library calls exactly
 * as the pipeline registry runs it (sim/pipelines.cc, sim/runner.cc),
 * so the results must equal the CLI's bit for bit.
 */
class Jobs
{
  public:
    explicit Jobs(sim::Runner &r) : runner(r) {}

    std::shared_ptr<const trace::Trace>
    trace(const std::string &w)
    {
        Span s("trace.load", "trace", w);
        auto tr = runner.traceShared(w);
        s.setCount(tr->size());
        return tr;
    }

    sim::RunStats
    simulate(const std::string &w, const sim::SystemConfig &cfg)
    {
        auto tr = trace(w);
        const char *kind = kindName(cfg.l2Pf);
        std::unique_ptr<sim::System> system;
        {
            Span s("sim.construct", "sim", kind);
            system = std::make_unique<sim::System>(
                cfg, runner.resolverFor(w));
        }
        Span s("sim.run", "sim", kind);
        s.setCount(tr->size());
        return system->run(*tr);
    }

    const sim::RunStats &
    baseline(const std::string &w)
    {
        {
            std::lock_guard<std::mutex> lock(mu);
            auto it = baselines.find(w);
            if (it != baselines.end())
                return it->second;
        }
        sim::SystemConfig cfg = runner.baseConfig();
        cfg.l2Pf = sim::L2PfKind::None;
        cfg.rpg2Plan = rpg2::Rpg2Plan{};
        sim::RunStats stats = simulate(w, cfg);
        std::lock_guard<std::mutex> lock(mu);
        return baselines.emplace(w, std::move(stats)).first->second;
    }

    core::ProfileSnapshot
    profile(const std::string &w)
    {
        trace(w); // attribute the load to the trace layer
        Span s("core.profile", "core", w);
        return runner.profileWorkload(w);
    }

    core::OptimizedBinary
    analyze(const core::ProfileSnapshot &p, const std::string &w)
    {
        Span s("core.analyze", "core", w);
        core::OptimizedBinary b = core::Analyzer{}.analyze(p);
        s.setCount(b.hints.size());
        return b;
    }

    void
    learn(core::Learner &learner, const core::ProfileSnapshot &p,
          const std::string &w)
    {
        Span s("core.learn", "core", w);
        learner.learn(p);
    }

    std::vector<rpg2::Kernel>
    identify(const std::string &w)
    {
        const sim::RunStats &base = baseline(w);
        auto tr = trace(w);
        Span s("rpg2.identify", "rpg2", w);
        auto kernels = rpg2::identifyKernels(*tr, base.pcMisses,
                                             runner.resolverFor(w));
        s.setCount(kernels.size());
        return kernels;
    }

    sim::RunStats
    runRpg2(const std::string &w)
    {
        const sim::RunStats &base = baseline(w);
        auto kernels = identify(w);
        if (kernels.empty())
            return base;
        Span s("rpg2.tune", "rpg2", w);
        std::map<std::int64_t, sim::RunStats> runs;
        auto evaluate = [&](std::int64_t d) {
            sim::SystemConfig cfg = runner.baseConfig();
            cfg.l2Pf = sim::L2PfKind::None;
            cfg.rpg2Plan = rpg2::buildPlan(kernels, d);
            sim::RunStats st = simulate(w, cfg);
            double ipc = st.ipc;
            runs.emplace(d, std::move(st));
            return ipc;
        };
        auto tuned = rpg2::tuneDistance(evaluate, {1, 64});
        s.setCount(tuned.evaluations);
        return runs.at(tuned.bestDistance);
    }

    sim::RunStats
    runProphet(const sim::PipelineInstance &p, const std::string &w)
    {
        for (const auto &[key, value] : p.params) {
            (void)value;
            if (key != "features" && key != "binary" && key != "learn")
                throw std::runtime_error(
                    "layer_trace: prophet parameter \"" + key
                    + "\" is not supported");
        }
        sim::SystemConfig cfg = runner.baseConfig();
        cfg.l2Pf = sim::L2PfKind::Prophet;
        if (const auto *features = p.stringList("features")) {
            core::ProphetFeatures f{false, false, false, false};
            for (const auto &name : *features) {
                f.replacement |= name == "replacement";
                f.insertion |= name == "insertion";
                f.mvb |= name == "mvb";
                f.resizing |= name == "resizing";
            }
            cfg.prophet.features = f;
        }
        if (p.string("binary", "profile") == "none")
            return simulate(w, cfg);
        if (const auto *inputs = p.stringList("learn")) {
            core::Learner learner;
            for (const auto &input : *inputs)
                learn(learner, profile(input), input);
            cfg.binary = analyze(learner.merged(), w);
        } else {
            cfg.binary = analyze(profile(w), w);
        }
        return simulate(w, cfg);
    }

    sim::RunStats
    run(const sim::PipelineInstance &p, const std::string &w)
    {
        trace(w);
        if (p.name == "baseline")
            return baseline(w);
        if (p.name == "rpg2")
            return runRpg2(w);
        if (p.name == "prophet")
            return runProphet(p, w);
        if (!p.params.empty())
            throw std::runtime_error("layer_trace: parameters of \""
                                     + p.name + "\" are not supported");
        static const std::map<std::string, sim::L2PfKind> kinds = {
            {"triage", sim::L2PfKind::Triage},
            {"triage4", sim::L2PfKind::Triage4},
            {"triangel", sim::L2PfKind::Triangel},
            {"stms", sim::L2PfKind::Stms},
            {"domino", sim::L2PfKind::Domino},
        };
        auto it = kinds.find(p.name);
        if (it == kinds.end())
            throw std::runtime_error("layer_trace: pipeline \"" + p.name
                                     + "\" is not supported");
        sim::SystemConfig cfg = runner.baseConfig();
        cfg.l2Pf = it->second;
        return simulate(w, cfg);
    }

    /** Reach every entry point the jobs did not (see --probes). */
    void
    probe(const std::string &w)
    {
        std::set<std::string> seen;
        {
            std::lock_guard<std::mutex> lock(g_spanMu);
            for (const auto &s : g_spans)
                seen.insert(s.name == "sim.run" ? s.name + ":" + s.detail
                                                : s.name);
        }
        g_probing = true;
        if (!seen.count("core.learn")) {
            core::Learner learner;
            learn(learner, profile(w), w);
        }
        if (!seen.count("rpg2.identify"))
            identify(w);
        for (sim::L2PfKind kind :
             {sim::L2PfKind::None, sim::L2PfKind::Triangel,
              sim::L2PfKind::Triage, sim::L2PfKind::Stms,
              sim::L2PfKind::Domino, sim::L2PfKind::Prophet}) {
            if (seen.count(std::string("sim.run:") + kindName(kind)))
                continue;
            sim::SystemConfig cfg = runner.baseConfig();
            cfg.l2Pf = kind;
            if (kind == sim::L2PfKind::Prophet)
                cfg.binary = analyze(profile(w), w);
            simulate(w, cfg);
        }
        g_probing = false;
    }

    std::map<std::string, sim::RunStats>
    baselineMap()
    {
        std::lock_guard<std::mutex> lock(mu);
        return baselines;
    }

  private:
    sim::Runner &runner;
    std::mutex mu;
    std::map<std::string, sim::RunStats> baselines; // guarded by mu
};

bool
needsBaseline(const driver::ExperimentSpec &spec)
{
    for (const auto &m : spec.metrics)
        if (m == "speedup" || m == "traffic" || m == "coverage")
            return true;
    for (const auto &p : spec.pipelines)
        if (p.name == "rpg2" || p.name == "baseline")
            return true;
    return false;
}

json
chromeTrace()
{
    json events = json::makeArray();
    std::lock_guard<std::mutex> lock(g_spanMu);
    for (const auto &s : g_spans) {
        json e = json::makeObject();
        e.set("name", json(s.name));
        e.set("cat", json(s.layer));
        e.set("ph", json("X"));
        e.set("ts", json(static_cast<double>(s.start) / 1e3));
        e.set("dur", json(static_cast<double>(s.end - s.start) / 1e3));
        e.set("pid", json(static_cast<double>(g_runId)));
        e.set("tid", json(static_cast<double>(s.tid)));
        json args = json::makeObject();
        args.set("id", json(s.id));
        args.set("parent", json(s.parent));
        args.set("run", json(static_cast<double>(g_runId)));
        args.set("start_ns", json(s.start));
        args.set("end_ns", json(s.end));
        args.set("detail", json(s.detail));
        args.set("count", json(s.count));
        args.set("probe", json(s.probe));
        e.set("args", std::move(args));
        events.push(std::move(e));
    }
    json root = json::makeObject();
    root.set("traceEvents", std::move(events));
    root.set("displayTimeUnit", json("ms"));
    return root;
}

bool
writeFile(const std::string &path, const json &doc)
{
    std::ofstream out(path, std::ios::binary);
    out << driver::json::dump(doc, 1);
    out.flush();
    if (!out) {
        std::fprintf(stderr, "layer_trace: cannot write %s\n",
                     path.c_str());
        return false;
    }
    return true;
}

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: layer_trace SPEC --threads N --trace-cache-dir "
                 "DIR --run-id K --out FILE --trace-out FILE "
                 "[--probes]\n");
    std::exit(2);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::string specPath, cacheDir, outPath, tracePath;
    unsigned threads = 1;
    bool probes = false;
    for (int i = 1; i < argc; ++i) {
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                usage();
            return argv[++i];
        };
        if (!std::strcmp(argv[i], "--threads"))
            threads = static_cast<unsigned>(std::atoi(value()));
        else if (!std::strcmp(argv[i], "--trace-cache-dir"))
            cacheDir = value();
        else if (!std::strcmp(argv[i], "--run-id"))
            g_runId = static_cast<std::uint32_t>(std::atoi(value()));
        else if (!std::strcmp(argv[i], "--out"))
            outPath = value();
        else if (!std::strcmp(argv[i], "--trace-out"))
            tracePath = value();
        else if (!std::strcmp(argv[i], "--probes"))
            probes = true;
        else if (argv[i][0] == '-' || !specPath.empty())
            usage();
        else
            specPath = argv[i];
    }
    if (specPath.empty() || cacheDir.empty() || outPath.empty()
        || tracePath.empty() || threads == 0)
        usage();

    try {
        driver::ExperimentSpec spec =
            driver::ExperimentSpec::fromFile(specPath);
        sim::Runner runner(spec.baseConfig(), spec.records);
        runner.setTraceCache(
            std::make_shared<trace::TraceCache>(cacheDir));
        sim::SweepEngine engine(runner, threads);
        Jobs jobs(runner);

        const std::size_t per = spec.pipelines.size();
        std::vector<sim::RunStats> results(spec.workloads.size() * per);
        if (needsBaseline(spec)) {
            Span phase("phase.baselines", "harness", spec.name);
            engine.forEach(spec.workloads.size(), [&](std::size_t i) {
                Span job("job", "driver",
                         spec.workloads[i] + "/baseline");
                jobs.baseline(spec.workloads[i]);
            });
        }
        {
            Span phase("phase.jobs", "harness", spec.name);
            engine.forEach(results.size(), [&](std::size_t i) {
                const std::string &w = spec.workloads[i / per];
                const sim::PipelineInstance &p = spec.pipelines[i % per];
                Span job("job", "driver", w + "/" + p.resultName());
                results[i] = jobs.run(p, w);
            });
        }
        const std::size_t resident = runner.residentTraceBytes();

        std::uint64_t probeNs = 0;
        if (probes && !spec.workloads.empty()) {
            std::uint64_t t0 = nowNs();
            jobs.probe(spec.workloads.front());
            probeNs = nowNs() - t0;
        }

        json doc = json::makeObject();
        doc.set("experiment", json(spec.name));
        doc.set("threads", json(static_cast<double>(engine.threads())));
        doc.set("resident_trace_bytes",
                json(static_cast<std::uint64_t>(resident)));
        doc.set("probe_ns", json(probeNs));
        json rows = json::makeArray();
        for (std::size_t i = 0; i < results.size(); ++i) {
            json r = json::makeObject();
            r.set("workload", json(spec.workloads[i / per]));
            r.set("pipeline",
                  json(spec.pipelines[i % per].resultName()));
            r.set("stats", statsJson(results[i]));
            rows.push(std::move(r));
        }
        doc.set("results", std::move(rows));
        json bases = json::makeObject();
        for (const auto &[w, st] : jobs.baselineMap())
            bases.set(w, statsJson(st));
        doc.set("baselines", std::move(bases));
        bool ok = writeFile(outPath, doc);
        ok = writeFile(tracePath, chromeTrace()) && ok;
        return ok ? 0 : 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "layer_trace: %s\n", e.what());
        return 1;
    }
}
