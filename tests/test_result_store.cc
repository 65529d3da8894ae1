/**
 * @file
 * The content-addressed result store, unit and end-to-end:
 *
 *  - an entry round-trips every RunStats field bit for bit, the
 *    per-PC miss map (in insertion order) included, and a profile
 *    entry round-trips its per-PC map in insertion order;
 *  - a second driver run over the same cache directory serves every
 *    job and baseline from the store — zero simulations — with
 *    results identical to the first run's;
 *  - every input of a result is part of its key (records, l1,
 *    dram_channels, warmup_records, sampling, pipeline parameters,
 *    the model fingerprint); a label is not; a profile's key leaves
 *    out sampling and the pipeline too;
 *  - a result stored under one model fingerprint is never served
 *    under another;
 *  - corrupt, truncated and foreign-key entries of either kind miss,
 *    are counted, and are rewritten by the recomputed result;
 *  - a new Prophet spec over a machine another run profiled — a
 *    sweep or a learn spec — simulates no profile, and a cancelled
 *    profile is never stored;
 *  - an armed job fault still fails a stored job, a failed store
 *    write only costs a recomputation, and an interrupted run
 *    resumes by being run again.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <functional>
#include <fstream>
#include <iterator>
#include <string>
#include <unistd.h>
#include <vector>

#include "common/cancellation.hh"
#include "common/error.hh"
#include "common/fault_injection.hh"
#include "common/metrics.hh"
#include "driver/driver.hh"
#include "driver/json.hh"
#include "driver/result_store.hh"
#include "sim/runner.hh"

namespace fs = std::filesystem;

namespace prophet::driver
{
namespace
{

constexpr std::uint64_t kModel = 0x1234'5678'9abc'def0ull;
constexpr std::size_t kRecords = 20'000;

/** A RunStats with every serialized field distinct and non-default. */
sim::RunStats
fabricatedStats(unsigned seed)
{
    sim::RunStats s;
    std::uint64_t v = 1000ull * seed + 1;
    s.ipc = 0.5 + 0.01 * seed;
    s.cycles = v++;
    s.instructions = v++;
    s.records = v++;
    s.l1Misses = v++;
    s.l2DemandAccesses = v++;
    s.l2DemandMisses = v++;
    s.llcMisses = v++;
    s.l2PrefetchesIssued = v++;
    s.l2PrefetchesUseful = v++;
    s.latePrefetches = v++;
    s.dramReads = v++;
    s.dramWrites = v++;
    s.dramPrefetchReads = v++;
    s.markov.lookups = v++;
    s.markov.hits = v++;
    s.markov.inserts = v++;
    s.markov.updates = v++;
    s.markov.replacements = v++;
    s.markov.resizeDrops = v++;
    s.finalMetadataWays = 3 + seed;
    s.sampled = true;
    s.sampledRecords = v++;
    s.sampleScale = 1.0 + 0.25 * seed;
    s.offchipMeta.metadataReads = v++;
    s.offchipMeta.metadataWrites = v++;
    s.l1Accesses = v++;
    s.l2Accesses = v++;
    s.llcAccesses = v++;
    // Descending PCs: insertion order differs from sorted order, so
    // a serializer that sorted (or rehashed) the map would show.
    for (unsigned i = 0; i < 5; ++i)
        s.pcMisses.emplace(0x4000'0100ull + seed * 16 - i * 8,
                           v + i * 7);
    return s;
}

void
expectStatsEq(const sim::RunStats &a, const sim::RunStats &b)
{
    EXPECT_EQ(a.ipc, b.ipc); // bit-identical, not just approximate
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.records, b.records);
    EXPECT_EQ(a.l1Misses, b.l1Misses);
    EXPECT_EQ(a.l2DemandAccesses, b.l2DemandAccesses);
    EXPECT_EQ(a.l2DemandMisses, b.l2DemandMisses);
    EXPECT_EQ(a.llcMisses, b.llcMisses);
    EXPECT_EQ(a.l2PrefetchesIssued, b.l2PrefetchesIssued);
    EXPECT_EQ(a.l2PrefetchesUseful, b.l2PrefetchesUseful);
    EXPECT_EQ(a.latePrefetches, b.latePrefetches);
    EXPECT_EQ(a.dramReads, b.dramReads);
    EXPECT_EQ(a.dramWrites, b.dramWrites);
    EXPECT_EQ(a.dramPrefetchReads, b.dramPrefetchReads);
    EXPECT_EQ(a.markov.lookups, b.markov.lookups);
    EXPECT_EQ(a.markov.hits, b.markov.hits);
    EXPECT_EQ(a.markov.inserts, b.markov.inserts);
    EXPECT_EQ(a.markov.updates, b.markov.updates);
    EXPECT_EQ(a.markov.replacements, b.markov.replacements);
    EXPECT_EQ(a.markov.resizeDrops, b.markov.resizeDrops);
    EXPECT_EQ(a.finalMetadataWays, b.finalMetadataWays);
    EXPECT_EQ(a.sampled, b.sampled);
    EXPECT_EQ(a.sampledRecords, b.sampledRecords);
    EXPECT_EQ(a.sampleScale, b.sampleScale);
    EXPECT_EQ(a.offchipMeta.metadataReads, b.offchipMeta.metadataReads);
    EXPECT_EQ(a.offchipMeta.metadataWrites,
              b.offchipMeta.metadataWrites);
    EXPECT_EQ(a.l1Accesses, b.l1Accesses);
    EXPECT_EQ(a.l2Accesses, b.l2Accesses);
    EXPECT_EQ(a.llcAccesses, b.llcAccesses);
    ASSERT_EQ(a.pcMisses.size(), b.pcMisses.size());
    auto ia = a.pcMisses.begin();
    auto ib = b.pcMisses.begin();
    for (; ia != a.pcMisses.end(); ++ia, ++ib) {
        EXPECT_EQ(ia->first, ib->first);
        EXPECT_EQ(ia->second, ib->second);
    }
}

/** A profile with every field distinct and PCs in descending order. */
core::ProfileSnapshot
fabricatedProfile(unsigned seed)
{
    core::ProfileSnapshot p;
    p.allocatedEntries = 4096 + seed;
    for (unsigned i = 0; i < 6; ++i) {
        core::PcProfile prof;
        prof.accuracy = 0.1 * i + 0.01 * seed;
        prof.issuedPrefetches = 100ull * seed + i;
        prof.l2Misses = 7ull * seed + 3 * i;
        p.perPc.emplace(0x5000'0200ull + seed * 16 - i * 8, prof);
    }
    return p;
}

void
expectProfileEq(const core::ProfileSnapshot &a,
                const core::ProfileSnapshot &b)
{
    EXPECT_EQ(a.allocatedEntries, b.allocatedEntries);
    ASSERT_EQ(a.perPc.size(), b.perPc.size());
    auto ia = a.perPc.begin();
    auto ib = b.perPc.begin();
    for (; ia != a.perPc.end(); ++ia, ++ib) {
        EXPECT_EQ(ia->first, ib->first);
        EXPECT_EQ(ia->second.accuracy, ib->second.accuracy);
        EXPECT_EQ(ia->second.issuedPrefetches,
                  ib->second.issuedPrefetches);
        EXPECT_EQ(ia->second.l2Misses, ib->second.l2Misses);
    }
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
    ASSERT_TRUE(out.good()) << path;
}

ExperimentSpec
specFrom(const std::string &text)
{
    json::Value doc;
    std::string err;
    EXPECT_TRUE(json::parse(text, doc, &err)) << err << "\n" << text;
    return ExperimentSpec::fromJson(doc);
}

std::uint64_t
counterValue(const std::string &name)
{
    return metrics::counter(name).value();
}

/** Profiling simulations since the last metrics reset. */
std::uint64_t
profileRuns()
{
    return metrics::histogram("phase.profile_ns").count();
}

/** Every entry file of a store directory. */
std::vector<std::string>
entryFiles(const std::string &cache_dir)
{
    std::vector<std::string> out;
    std::error_code ec;
    for (const auto &de :
         fs::directory_iterator(cache_dir + "/results", ec))
        if (de.path().extension() == ".prs")
            out.push_back(de.path().string());
    return out;
}

class ResultStoreTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        fault::reset();
        metrics::Registry::instance().resetValues();
        dir = (fs::temp_directory_path()
               / ("prophet_result_store_test_"
                  + std::to_string(::getpid())))
                  .string();
        fs::remove_all(dir);
        fs::create_directories(dir);
        cache = dir + "/cache";
    }

    void
    TearDown() override
    {
        fault::reset();
        fs::remove_all(dir);
    }

    /**
     * mcf+omnetpp x triangel+prophet with a CSV sink at @p csv: four
     * jobs, and "speedup" adds one baseline per workload.
     */
    ExperimentSpec
    sweepSpec(const std::string &csv) const
    {
        return specFrom(
            "{\"name\": \"stored\","
            " \"workloads\": [\"mcf\", \"omnetpp\"],"
            " \"pipelines\": [\"triangel\", \"prophet\"],"
            " \"metrics\": [\"ipc\", \"speedup\"],"
            " \"records\": " + std::to_string(kRecords) + ","
            " \"sinks\": [{\"type\": \"csv\", \"path\": \"" + csv
            + "\"}]}");
    }

    DriverOptions
    cachedOptions() const
    {
        DriverOptions o;
        o.traceCacheDir = cache;
        o.retryBackoffMs = 0;
        return o;
    }

    /** The baseline identity of mcf under a triage spec. */
    static json::Value
    mcfIdentity(const ExperimentSpec &spec,
                std::size_t records = kRecords)
    {
        return spec.resultIdentity(records, "mcf", &spec.pipelines[0]);
    }

    std::string dir;
    std::string cache;
};

TEST_F(ResultStoreTest, EntryRoundTripsEveryFieldBitForBit)
{
    auto spec = specFrom("{\"name\": \"k\", \"workloads\": [\"mcf\"],"
                         " \"pipelines\": [\"triangel\"],"
                         " \"metrics\": [\"ipc\"]}");
    ResultStore store(cache, kModel);
    const json::Value id = mcfIdentity(spec);
    EXPECT_FALSE(store.get(id));
    EXPECT_EQ(counterValue("store.misses"), 1u);

    const sim::RunStats want = fabricatedStats(3);
    ASSERT_TRUE(store.put(id, want));
    EXPECT_EQ(counterValue("store.writes"), 1u);

    // A fresh store instance (a later process) reads it back.
    ResultStore again(cache, kModel);
    auto got = again.get(id);
    ASSERT_TRUE(got);
    expectStatsEq(*got, want);
    EXPECT_EQ(counterValue("store.hits"), 1u);

    // A profile entry, likewise.
    const json::Value pid = spec.profileIdentity(kRecords, "mcf");
    EXPECT_FALSE(store.getProfile(pid));
    const core::ProfileSnapshot profile = fabricatedProfile(3);
    ASSERT_TRUE(store.put(pid, profile));
    auto got_profile = again.getProfile(pid);
    ASSERT_TRUE(got_profile);
    expectProfileEq(*got_profile, profile);
    EXPECT_EQ(counterValue("store.hits"), 2u);
    EXPECT_EQ(counterValue("store.corrupt"), 0u);
}

TEST_F(ResultStoreTest, SecondRunServesEveryJobAndBaseline)
{
    const std::string csv1 = dir + "/first.csv";
    const std::string csv2 = dir + "/second.csv";
    auto first = ExperimentDriver(sweepSpec(csv1), cachedOptions()).run();
    ASSERT_TRUE(first.ok());
    EXPECT_EQ(first.cachedJobs, 0u);
    EXPECT_GT(counterValue("sim.runs"), 0u);
    EXPECT_EQ(counterValue("store.hits"), 0u);
    // 4 jobs, 2 baselines and the profiles of mcf and omnetpp.
    EXPECT_EQ(counterValue("store.writes"), 8u);
    EXPECT_EQ(entryFiles(cache).size(), 8u);

    auto second =
        ExperimentDriver(sweepSpec(csv2), cachedOptions()).run();
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(counterValue("sim.runs"), 0u);
    EXPECT_EQ(counterValue("store.hits"), 6u);
    EXPECT_EQ(counterValue("store.misses"), 0u);
    EXPECT_EQ(counterValue("store.writes"), 0u);
    EXPECT_EQ(second.cachedJobs, 4u);
    ASSERT_EQ(first.results.size(), second.results.size());
    for (std::size_t i = 0; i < first.results.size(); ++i) {
        const JobResult &a = first.results[i], &b = second.results[i];
        SCOPED_TRACE(a.workload + "/" + a.pipeline);
        EXPECT_FALSE(a.cached);
        EXPECT_TRUE(b.cached);
        expectStatsEq(a.stats, b.stats);
        EXPECT_EQ(a.metrics, b.metrics);
    }
    EXPECT_EQ(readFile(csv1), readFile(csv2));
}

TEST_F(ResultStoreTest, EveryInputIsPartOfTheKeyButNotTheLabel)
{
    const std::string base_doc =
        "\"name\": \"k\", \"workloads\": [\"mcf\"],"
        " \"metrics\": [\"ipc\"]";
    const std::string triage =
        "\"pipelines\": [{\"name\": \"triage\", \"degree\": 1}]";
    auto base = specFrom("{" + base_doc + ", " + triage + "}");

    ResultStore store(cache, kModel);
    ASSERT_TRUE(store.put(mcfIdentity(base), fabricatedStats(1)));
    ASSERT_TRUE(store.put(base.profileIdentity(kRecords, "mcf"),
                          fabricatedProfile(1)));

    struct Case
    {
        const char *what;
        std::string extra; ///< members added to the base document
        std::size_t records;
        std::uint64_t model;
        bool hit;
        bool profileHit; ///< profiles never read sampling or params
    };
    const std::vector<Case> cases = {
        {"unchanged", triage, kRecords, kModel, true, true},
        {"label only",
         "\"pipelines\": [{\"name\": \"triage\", \"degree\": 1,"
         " \"label\": \"renamed\"}]",
         kRecords, kModel, true, true},
        {"threads and sinks",
         triage + ", \"threads\": 3, \"sinks\": []", kRecords, kModel,
         true, true},
        {"records", triage, kRecords + 1, kModel, false, false},
        {"l1", triage + ", \"l1\": \"ipcp\"", kRecords, kModel, false,
         false},
        {"dram_channels", triage + ", \"dram_channels\": 2", kRecords,
         kModel, false, false},
        {"warmup_records", triage + ", \"warmup_records\": 1000",
         kRecords, kModel, false, false},
        {"sampling",
         triage + ", \"sampling\": {\"window_records\": 1000,"
                  " \"interval_records\": 5000}",
         kRecords, kModel, false, true},
        {"pipeline parameter",
         "\"pipelines\": [{\"name\": \"triage\", \"degree\": 4}]",
         kRecords, kModel, false, true},
        {"prophet parameters",
         "\"pipelines\": [{\"name\": \"prophet\", \"el_acc\": 0.05,"
         " \"label\": \"p\"}]",
         kRecords, kModel, false, true},
        {"model fingerprint", triage, kRecords, kModel + 1, false,
         false},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.what);
        auto spec = specFrom("{" + base_doc + ", " + c.extra + "}");
        ResultStore reader(cache, c.model);
        EXPECT_EQ(static_cast<bool>(
                      reader.get(mcfIdentity(spec, c.records))),
                  c.hit);
        EXPECT_EQ(static_cast<bool>(reader.getProfile(
                      spec.profileIdentity(c.records, "mcf"))),
                  c.profileHit);
    }
    // A job, the workload's baseline and its profile never share a
    // key either.
    EXPECT_FALSE(store.get(base.resultIdentity(kRecords, "mcf", nullptr)));
    EXPECT_NE(store.keyText(base.profileIdentity(kRecords, "mcf")),
              store.keyText(base.resultIdentity(kRecords, "mcf",
                                                nullptr)));
    EXPECT_EQ(counterValue("store.corrupt"), 0u);
}

TEST_F(ResultStoreTest, ResultOfOneModelIsNeverServedUnderAnother)
{
    auto spec = specFrom("{\"name\": \"k\", \"workloads\": [\"mcf\"],"
                         " \"pipelines\": [\"triangel\"],"
                         " \"metrics\": [\"ipc\"]}");
    const json::Value id = mcfIdentity(spec);
    ResultStore old_model(cache, kModel);
    ASSERT_TRUE(old_model.put(id, fabricatedStats(1)));

    // Another build of the simulator: its key, and so its file,
    // differ; nothing is served.
    ResultStore new_model(cache, kModel ^ 1);
    EXPECT_NE(new_model.path(new_model.keyText(id)),
              old_model.path(old_model.keyText(id)));
    EXPECT_FALSE(new_model.get(id));

    // Even the old model's bytes under the new model's file name
    // (a hash collision, in effect) are refused: the key text
    // stored in the entry does not match.
    fs::copy_file(old_model.path(old_model.keyText(id)),
                  new_model.path(new_model.keyText(id)));
    EXPECT_FALSE(new_model.get(id));
    EXPECT_EQ(counterValue("store.corrupt"), 1u);
    ASSERT_TRUE(old_model.get(id));

    // The running executable has a real, stable fingerprint.
    EXPECT_NE(ResultStore::executableFingerprint(), 0u);
    EXPECT_EQ(ResultStore::executableFingerprint(),
              ResultStore::executableFingerprint());
}

TEST_F(ResultStoreTest, BadEntriesMissAndAreRewritten)
{
    auto spec = specFrom("{\"name\": \"k\", \"workloads\": [\"mcf\"],"
                         " \"pipelines\": [\"triangel\"],"
                         " \"metrics\": [\"ipc\"]}");
    ResultStore store(cache, kModel);

    // Each entry kind, with a second entry of that kind whose bytes
    // stand in for a foreign key.
    struct Kind
    {
        const char *what;
        json::Value id, other;
        std::function<bool(const json::Value &, unsigned)> put;
        std::function<bool(const json::Value &, unsigned)> getEquals;
    };
    const std::vector<Kind> kinds = {
        {"result", mcfIdentity(spec),
         spec.resultIdentity(kRecords, "omnetpp", &spec.pipelines[0]),
         [&](const json::Value &id, unsigned seed) {
             return store.put(id, fabricatedStats(seed));
         },
         [&](const json::Value &id, unsigned seed) {
             auto got = store.get(id);
             if (got)
                 expectStatsEq(*got, fabricatedStats(seed));
             return static_cast<bool>(got);
         }},
        {"profile", spec.profileIdentity(kRecords, "mcf"),
         spec.profileIdentity(kRecords, "omnetpp"),
         [&](const json::Value &id, unsigned seed) {
             return store.put(id, fabricatedProfile(seed));
         },
         [&](const json::Value &id, unsigned seed) {
             auto got = store.getProfile(id);
             if (got)
                 expectProfileEq(*got, fabricatedProfile(seed));
             return static_cast<bool>(got);
         }},
    };
    std::uint64_t corrupt = 0;
    for (const Kind &k : kinds) {
        ASSERT_TRUE(k.put(k.id, 1));
        ASSERT_TRUE(k.put(k.other, 2));
        const std::string file = store.path(store.keyText(k.id));
        const std::string good = readFile(file);
        const std::string foreign =
            readFile(store.path(store.keyText(k.other)));

        std::string flipped = good;
        flipped[good.size() / 2] ^= 0x40;
        const std::vector<std::pair<const char *, std::string>> cases = {
            {"bit flip", flipped},
            {"truncated payload", good.substr(0, good.size() - 11)},
            {"truncated header", good.substr(0, 6)},
            {"empty", ""},
            {"foreign key", foreign},
        };
        for (const auto &[what, bytes] : cases) {
            SCOPED_TRACE(std::string(k.what) + ": " + what);
            writeFile(file, bytes);
            EXPECT_FALSE(k.getEquals(k.id, 1));
            EXPECT_EQ(counterValue("store.corrupt"), ++corrupt);
            // What the driver does on a miss: recompute and store.
            ASSERT_TRUE(k.put(k.id, 1));
            EXPECT_TRUE(k.getEquals(k.id, 1));
        }
    }
}

TEST_F(ResultStoreTest, DriverRecomputesAndRewritesCorruptEntries)
{
    const std::string csv1 = dir + "/first.csv";
    const std::string csv2 = dir + "/second.csv";
    ASSERT_TRUE(
        ExperimentDriver(sweepSpec(csv1), cachedOptions()).run().ok());
    auto files = entryFiles(cache);
    ASSERT_EQ(files.size(), 8u);
    for (const auto &f : files) {
        std::string bytes = readFile(f);
        bytes[bytes.size() / 2] ^= 0x01;
        writeFile(f, bytes);
    }

    auto second =
        ExperimentDriver(sweepSpec(csv2), cachedOptions()).run();
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(counterValue("store.corrupt"), 8u);
    EXPECT_EQ(counterValue("store.hits"), 0u);
    EXPECT_EQ(counterValue("store.writes"), 8u);
    EXPECT_EQ(profileRuns(), 2u);
    EXPECT_EQ(second.cachedJobs, 0u);
    EXPECT_EQ(readFile(csv1), readFile(csv2));

    // The rewritten entries serve the next run.
    auto third =
        ExperimentDriver(sweepSpec(csv2), cachedOptions()).run();
    EXPECT_EQ(counterValue("store.hits"), 6u);
    EXPECT_EQ(third.cachedJobs, 4u);
    EXPECT_EQ(readFile(csv1), readFile(csv2));
}

TEST_F(ResultStoreTest, ArmedJobFaultStillFailsAStoredJob)
{
    ASSERT_TRUE(ExperimentDriver(sweepSpec(dir + "/a.csv"),
                                 cachedOptions())
                    .run()
                    .ok());
    DriverOptions opts = cachedOptions();
    opts.keepGoing = 1;
    fault::arm("job.mcf/prophet", 1);
    auto report = ExperimentDriver(sweepSpec(dir + "/b.csv"), opts).run();
    EXPECT_EQ(report.failedJobs, 1u);
    EXPECT_EQ(report.cachedJobs, 3u);
    for (const auto &r : report.results) {
        if (r.workload == "mcf" && r.pipeline == "prophet") {
            EXPECT_FALSE(r.ok);
            EXPECT_FALSE(r.cached);
            EXPECT_EQ(r.errorCode, ErrorCode::FaultInjected);
        } else {
            EXPECT_TRUE(r.ok && r.cached) << r.workload << "/"
                                          << r.pipeline;
        }
    }
}

TEST_F(ResultStoreTest, FailedStoreWriteOnlyCostsARecomputation)
{
    fault::arm("store.write", 1); // every write
    auto first = ExperimentDriver(sweepSpec(dir + "/a.csv"),
                                  cachedOptions())
                     .run();
    EXPECT_TRUE(first.ok());
    EXPECT_EQ(counterValue("store.writes"), 0u);
    EXPECT_TRUE(entryFiles(cache).empty());
    fault::reset();

    auto second = ExperimentDriver(sweepSpec(dir + "/b.csv"),
                                   cachedOptions())
                      .run();
    EXPECT_TRUE(second.ok());
    EXPECT_EQ(second.cachedJobs, 0u);
    EXPECT_EQ(counterValue("store.writes"), 8u);
    EXPECT_EQ(readFile(dir + "/a.csv"), readFile(dir + "/b.csv"));
}

TEST_F(ResultStoreTest, RerunningAnInterruptedRunContinuesIt)
{
    // Ground truth: one run without any cache.
    auto ref_spec = sweepSpec(dir + "/ref.csv");
    ref_spec.traceCache = false;
    ASSERT_TRUE(ExperimentDriver(std::move(ref_spec)).run().ok());

    // An interrupted run stores nothing it did not finish...
    CancellationToken shutdown;
    shutdown.cancel();
    DriverOptions opts = cachedOptions();
    opts.shutdown = &shutdown;
    opts.keepGoing = 1;
    auto drained = ExperimentDriver(sweepSpec(dir + "/out.csv"), opts)
                       .run();
    EXPECT_TRUE(drained.interrupted);
    EXPECT_EQ(drained.failedJobs, drained.results.size());
    for (const auto &r : drained.results) {
        EXPECT_EQ(r.errorCode, ErrorCode::Cancelled);
        EXPECT_NE(r.errorMessage.find("rerun to continue"),
                  std::string::npos)
            << r.errorMessage;
    }

    // ...a partial one stores what completed (one job fails)...
    opts.shutdown = nullptr;
    fault::arm("job.omnetpp/triangel", 1);
    auto partial = ExperimentDriver(sweepSpec(dir + "/out.csv"), opts)
                       .run();
    EXPECT_EQ(partial.failedJobs, 1u);
    fault::reset();

    // ...and running it again simulates only the rest, merging into
    // output byte-identical to the uncached run's.
    auto rerun = ExperimentDriver(sweepSpec(dir + "/out.csv"), opts)
                     .run();
    EXPECT_TRUE(rerun.ok());
    EXPECT_EQ(rerun.cachedJobs, 3u);
    EXPECT_EQ(readFile(dir + "/ref.csv"), readFile(dir + "/out.csv"));
}

TEST_F(ResultStoreTest, NewProphetSpecReusesStoredProfiles)
{
    // fig10's shape first: Prophet among other pipelines.
    ASSERT_TRUE(ExperimentDriver(sweepSpec(dir + "/fig10.csv"),
                                 cachedOptions())
                    .run()
                    .ok());
    EXPECT_EQ(profileRuns(), 2u);

    // fig16a's shape: a Prophet parameter sweep over the same
    // machine, so every job misses but no profile does.
    auto sweep = [&](bool cached) {
        auto spec = specFrom(
            "{\"name\": \"el_acc\","
            " \"workloads\": [\"mcf\", \"omnetpp\"],"
            " \"pipelines\": [{\"name\": \"prophet\"}],"
            " \"sweep\": {\"param\": \"el_acc\","
            "             \"values\": [0.05, 0.25]},"
            " \"metrics\": [\"speedup\"],"
            " \"records\": " + std::to_string(kRecords) + ","
            " \"sinks\": [{\"type\": \"csv\", \"path\": \"" + dir
            + (cached ? "/cached.csv" : "/uncached.csv") + "\"}]}");
        spec.traceCache = cached;
        return ExperimentDriver(std::move(spec), cachedOptions()).run();
    };
    auto cached = sweep(true);
    ASSERT_TRUE(cached.ok());
    EXPECT_EQ(cached.cachedJobs, 0u);
    EXPECT_EQ(profileRuns(), 0u);
    EXPECT_EQ(counterValue("store.hits"), 4u); // 2 baselines, 2 profiles
    auto uncached = sweep(false);
    ASSERT_TRUE(uncached.ok());
    EXPECT_EQ(profileRuns(), 2u);
    EXPECT_EQ(readFile(dir + "/cached.csv"),
              readFile(dir + "/uncached.csv"));
}

TEST_F(ResultStoreTest, LearnSpecReusesItsInputsStoredProfiles)
{
    auto spec = [&](const std::string &body) {
        return specFrom("{\"name\": \"gcc\", \"metrics\": [\"ipc\"],"
                        " \"records\": " + std::to_string(kRecords)
                        + ", \"sinks\": [], " + body + "}");
    };
    ASSERT_TRUE(ExperimentDriver(spec("\"workloads\": [\"gcc_166\","
                                      " \"gcc_expr\"],"
                                      " \"pipelines\": [\"prophet\"]"),
                                 cachedOptions())
                    .run()
                    .ok());
    EXPECT_EQ(profileRuns(), 2u);

    // fig13's shape: learn from those inputs, evaluate on another.
    const std::string learn =
        "\"workloads\": [\"gcc_typeck\"],"
        " \"pipelines\": [{\"name\": \"prophet\","
        " \"learn\": [\"gcc_166\", \"gcc_expr\"]}]";
    auto served = ExperimentDriver(spec(learn), cachedOptions()).run();
    ASSERT_TRUE(served.ok());
    EXPECT_EQ(served.cachedJobs, 0u);
    EXPECT_EQ(profileRuns(), 0u);
    EXPECT_EQ(counterValue("store.hits"), 2u);

    auto fresh_spec = spec(learn);
    fresh_spec.traceCache = false;
    auto fresh = ExperimentDriver(std::move(fresh_spec)).run();
    ASSERT_TRUE(fresh.ok());
    EXPECT_EQ(profileRuns(), 2u);
    expectStatsEq(served.results[0].stats, fresh.results[0].stats);
}

TEST_F(ResultStoreTest, CancelledProfileIsNeverStored)
{
    auto spec = specFrom("{\"name\": \"k\", \"workloads\": [\"mcf\"],"
                         " \"pipelines\": [\"prophet\"],"
                         " \"metrics\": [\"ipc\"]}");
    ResultStore store(cache, kModel);
    // The hooks the driver attaches.
    auto attach = [&](sim::Runner &runner) {
        sim::Runner::ProfileStore hooks;
        hooks.load = [&](const std::string &w) {
            return store.getProfile(spec.profileIdentity(kRecords, w));
        };
        hooks.save = [&](const std::string &w,
                         const core::ProfileSnapshot &p) {
            store.put(spec.profileIdentity(kRecords, w), p);
        };
        runner.setProfileStore(std::move(hooks));
    };

    CancellationToken cancelled;
    cancelled.cancel();
    sim::Runner runner(spec.baseConfig(), kRecords);
    attach(runner);
    runner.setCancellation(&cancelled);
    try {
        runner.profileWorkload("mcf");
        FAIL() << "a cancelled profile returned";
    } catch (const Error &e) {
        EXPECT_EQ(e.code(), ErrorCode::Cancelled);
    }
    EXPECT_TRUE(entryFiles(cache).empty());
    EXPECT_EQ(counterValue("store.writes"), 0u);

    // Nor is it remembered: the same runner profiles it once
    // uncancelled, and stores that one.
    runner.setCancellation(nullptr);
    const core::ProfileSnapshot want = runner.profileWorkload("mcf");
    EXPECT_EQ(counterValue("store.writes"), 1u);
    EXPECT_EQ(profileRuns(), 1u);

    // A later runner is served it.
    sim::Runner later(spec.baseConfig(), kRecords);
    attach(later);
    expectProfileEq(later.profileWorkload("mcf"), want);
    EXPECT_EQ(profileRuns(), 1u);
    EXPECT_EQ(counterValue("store.hits"), 1u);
}

TEST_F(ResultStoreTest, NoTraceCacheMeansNoStore)
{
    auto spec = sweepSpec(dir + "/a.csv");
    spec.traceCache = false;
    DriverOptions opts = cachedOptions();
    ASSERT_TRUE(ExperimentDriver(spec, opts).run().ok());
    EXPECT_FALSE(fs::exists(cache + "/results"));
    EXPECT_EQ(counterValue("store.misses"), 0u);

    // --no-trace-cache overrides a spec that has it on.
    opts.traceCache = 0;
    ASSERT_TRUE(ExperimentDriver(sweepSpec(dir + "/b.csv"), opts)
                    .run()
                    .ok());
    EXPECT_FALSE(fs::exists(cache + "/results"));
}

TEST_F(ResultStoreTest, UsageAndClearCoverEveryEntry)
{
    auto spec = specFrom("{\"name\": \"k\", \"workloads\": [\"mcf\"],"
                         " \"pipelines\": [\"triangel\"],"
                         " \"metrics\": [\"ipc\"]}");
    EXPECT_EQ(ResultStore::usage(cache).entries, 0u);
    ResultStore store(cache, kModel);
    ASSERT_TRUE(store.put(mcfIdentity(spec), fabricatedStats(1)));
    ASSERT_TRUE(store.put(spec.resultIdentity(kRecords, "mcf", nullptr),
                          fabricatedStats(2)));
    ASSERT_TRUE(store.put(spec.profileIdentity(kRecords, "mcf"),
                          fabricatedProfile(3)));
    auto u = ResultStore::usage(cache);
    EXPECT_EQ(u.entries, 3u);
    EXPECT_GT(u.bytes, 0u);
    // A crashed writer's temp file is swept but not counted.
    writeFile(cache + "/results/dead.prs.tmp1.0", "x");
    EXPECT_EQ(ResultStore::clear(cache), 3u);
    EXPECT_EQ(ResultStore::usage(cache).entries, 0u);
    EXPECT_FALSE(fs::exists(cache + "/results"));
}

} // anonymous namespace
} // namespace prophet::driver
