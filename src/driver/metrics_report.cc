#include "driver/metrics_report.hh"

#include <cstdio>
#include <fstream>

#include <sys/resource.h>

#include "common/metrics.hh"

namespace prophet::driver
{

namespace
{

/**
 * "phase.trace_load_ns" -> "trace_load"; empty when @p name is not a
 * phase histogram. The phases section is the part CI and
 * bench_compare --phases consume, so its keys are the bare phase
 * names rather than the raw registry names.
 */
std::string
phaseKey(const std::string &name)
{
    const std::string prefix = "phase.";
    const std::string suffix = "_ns";
    if (name.size() <= prefix.size() + suffix.size()
        || name.compare(0, prefix.size(), prefix) != 0
        || name.compare(name.size() - suffix.size(), suffix.size(),
                        suffix)
            != 0)
        return "";
    return name.substr(prefix.size(),
                       name.size() - prefix.size() - suffix.size());
}

json::Value
histogramToJson(const metrics::Histogram::Snapshot &s)
{
    json::Value o = json::Value::makeObject();
    o.set("count", json::Value(s.count));
    o.set("sum", json::Value(s.sum));
    o.set("min", json::Value(s.min));
    o.set("max", json::Value(s.max));
    // Sparse bucket list: [[lower_bound, count], ...] — 64 mostly
    // empty buckets per histogram would drown the document.
    json::Value buckets = json::Value::makeArray();
    for (std::size_t i = 0; i < s.buckets.size(); ++i) {
        if (s.buckets[i] == 0)
            continue;
        json::Value pair = json::Value::makeArray();
        pair.push(
            json::Value(metrics::Histogram::bucketLowerBound(i)));
        pair.push(json::Value(s.buckets[i]));
        buckets.push(std::move(pair));
    }
    o.set("buckets", std::move(buckets));
    return o;
}

} // anonymous namespace

std::uint64_t
peakRssBytes()
{
    struct rusage ru;
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0;
    // ru_maxrss is KiB on Linux (bytes on macOS; this simulator's CI
    // targets are Linux, where the * 1024 is correct).
    return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;
}

json::Value
buildMetricsReport(const ExperimentReport &report)
{
    metrics::RegistrySnapshot snap =
        metrics::Registry::instance().snapshot();

    json::Value root = json::Value::makeObject();
    root.set("experiment", json::Value(report.meta.specName));
    root.set("timestamp", json::Value(report.meta.timestamp));
    root.set("threads",
             json::Value(static_cast<double>(report.meta.threads)));
    root.set("wall_seconds", json::Value(report.meta.wallSeconds));
    root.set("peak_rss_bytes", json::Value(peakRssBytes()));
    root.set("failed_jobs",
             json::Value(
                 static_cast<std::uint64_t>(report.failedJobs)));

    // Phases: {"trace_load": {"seconds": S, "count": N}, ...} from
    // every "phase.*_ns" histogram. Seconds are cumulative across
    // workers (sum over all recordings).
    json::Value phases = json::Value::makeObject();
    for (const auto &h : snap.histograms) {
        std::string key = phaseKey(h.name);
        if (key.empty())
            continue;
        json::Value p = json::Value::makeObject();
        p.set("seconds",
              json::Value(static_cast<double>(h.snap.sum) / 1e9));
        p.set("count", json::Value(h.snap.count));
        phases.set(key, std::move(p));
    }
    root.set("phases", std::move(phases));

    // Thread-pool utilization: busy time summed over workers against
    // workers * wall. A single-threaded run has no pool, so workers
    // falls back to 1 and busy stays 0.
    json::Value pool = json::Value::makeObject();
    double busy_s = 0.0;
    for (const auto &c : snap.counters)
        if (c.name == "threadpool.busy_ns")
            busy_s = static_cast<double>(c.value) / 1e9;
    unsigned workers =
        report.meta.threads > 0 ? report.meta.threads : 1;
    pool.set("workers",
             json::Value(static_cast<double>(workers)));
    pool.set("busy_seconds", json::Value(busy_s));
    double capacity = report.meta.wallSeconds * workers;
    pool.set("utilization",
             json::Value(capacity > 0.0 ? busy_s / capacity : 0.0));
    root.set("thread_pool", std::move(pool));

    json::Value counters = json::Value::makeObject();
    for (const auto &c : snap.counters)
        counters.set(c.name, json::Value(c.value));
    root.set("counters", std::move(counters));

    if (!snap.gauges.empty()) {
        json::Value gauges = json::Value::makeObject();
        for (const auto &g : snap.gauges)
            gauges.set(g.name,
                       json::Value(static_cast<double>(g.value)));
        root.set("gauges", std::move(gauges));
    }

    json::Value histograms = json::Value::makeObject();
    for (const auto &h : snap.histograms)
        histograms.set(h.name, histogramToJson(h.snap));
    root.set("histograms", std::move(histograms));

    json::Value jobs = json::Value::makeArray();
    for (const auto &r : report.results) {
        json::Value j = json::Value::makeObject();
        j.set("workload", json::Value(r.workload));
        j.set("pipeline", json::Value(r.pipeline));
        j.set("ok", json::Value(r.ok));
        j.set("seconds", json::Value(r.seconds));
        j.set("records", json::Value(r.stats.records));
        j.set("attempts",
              json::Value(static_cast<double>(r.attempts)));
        // Sampled jobs carry their detailed-record count; full jobs
        // keep the pre-sampling document shape.
        if (r.stats.sampled) {
            j.set("sampled", json::Value(true));
            j.set("sampled_records",
                  json::Value(r.stats.sampledRecords));
            j.set("sample_scale", json::Value(r.stats.sampleScale));
        }
        // Store-served jobs are marked; simulated ones keep the
        // document shape, like "sampled" above.
        if (r.cached)
            j.set("cached", json::Value(true));
        jobs.push(std::move(j));
    }
    root.set("jobs", std::move(jobs));
    return root;
}

bool
writeMetricsReport(const ExperimentReport &report,
                   const std::string &path)
{
    json::Value doc = buildMetricsReport(report);
    std::ofstream out(path, std::ios::binary);
    if (!out) {
        std::fprintf(stderr, "metrics: cannot write %s\n",
                     path.c_str());
        return false;
    }
    out << json::dump(doc, 2);
    out.flush();
    if (!out) {
        std::fprintf(stderr, "metrics: write to %s failed\n",
                     path.c_str());
        return false;
    }
    std::fprintf(stderr, "metrics: wrote %s\n", path.c_str());
    return true;
}

} // namespace prophet::driver
