/**
 * @file
 * Integration tests for the experiment runner: the Prophet pipeline
 * (profile -> analyze -> run), the RPG2 pipeline, learning across
 * gcc inputs, and the normalization helpers every figure uses.
 *
 * These are the repository's end-to-end checks that the paper's
 * headline orderings emerge from the mechanisms.
 */

#include <gtest/gtest.h>

#include "sim/runner.hh"

namespace prophet::sim
{
namespace
{

/**
 * Full-length traces: mcf's chase ring needs multiple traversals to
 * train, so shortening below the workload default changes behaviour.
 */
constexpr std::size_t kRecords = 0; // workload default


TEST(Runner, BaselineIsCachedAndStable)
{
    Runner r(SystemConfig::table1(), kRecords);
    const auto &a = r.baseline("sphinx3");
    const auto &b = r.baseline("sphinx3");
    EXPECT_EQ(&a, &b);
    EXPECT_GT(a.ipc, 0.0);
}

TEST(Runner, SpeedupOfBaselineIsOne)
{
    Runner r(SystemConfig::table1(), kRecords);
    const auto &b = r.baseline("sphinx3");
    EXPECT_DOUBLE_EQ(r.speedup("sphinx3", b), 1.0);
    EXPECT_DOUBLE_EQ(r.trafficNorm("sphinx3", b), 1.0);
    EXPECT_DOUBLE_EQ(r.coverage("sphinx3", b), 0.0);
}

TEST(Runner, TriangelBeatsBaselineOnTemporalWorkload)
{
    Runner r(SystemConfig::table1(), kRecords);
    auto tri = r.run("triangel", "mcf");
    EXPECT_GT(r.speedup("mcf", tri), 1.05);
    EXPECT_GT(r.coverage("mcf", tri), 0.05);
}

TEST(Runner, ProphetPipelineProducesHintsAndWins)
{
    Runner r(SystemConfig::table1(), kRecords);
    auto out = r.runProphet("mcf");
    EXPECT_GT(out.binary.hints.size(), 0u);
    EXPECT_TRUE(out.binary.csr.prophetEnabled);
    EXPECT_GT(r.speedup("mcf", out.stats), 1.1);

    auto tri = r.run("triangel", "mcf");
    // The paper's headline: Prophet outperforms Triangel.
    EXPECT_GT(out.stats.ipc, tri.ipc);
}

TEST(Runner, ProphetResizesSmallFootprintWorkload)
{
    Runner r(SystemConfig::table1(), kRecords);
    auto out = r.runProphet("sphinx3");
    // sphinx3's temporal working set is far below 1 MB: profile-
    // guided resizing allocates fewer than the maximum ways.
    EXPECT_LT(out.binary.csr.metadataWays, 8u);
    EXPECT_GT(r.speedup("sphinx3", out.stats), 1.0);
}

TEST(Runner, Rpg2FindsNoKernelsOnPointerChasing)
{
    Runner r(SystemConfig::table1(), kRecords);
    auto out = r.runRpg2("mcf");
    // mcf's kernels are computed, not strides (Section 5.2): RPG2
    // inserts nothing and performance equals the baseline.
    EXPECT_TRUE(out.kernels.empty());
    EXPECT_DOUBLE_EQ(out.stats.ipc, r.baseline("mcf").ipc);
}

TEST(Runner, Rpg2WorksOnGraphWorkloads)
{
    Runner r(SystemConfig::table1(), kRecords);
    auto out = r.runRpg2("sssp_100000_5");
    ASSERT_FALSE(out.kernels.empty());
    EXPECT_GT(out.tunedDistance, 0);
    // CRONO-like kernels are RPG2's strength (Section 5.5).
    EXPECT_GT(r.speedup("sssp_100000_5", out.stats), 1.02);
}

TEST(Runner, LearningImprovesUnseenInput)
{
    // Figure 13's mechanism in miniature: hints learned from
    // gcc_166 alone are sub-optimal for gcc_typeck; after learning
    // typeck's counters, performance improves.
    Runner r(SystemConfig::table1(), kRecords);

    core::Learner learner;
    learner.learn(r.profileWorkload("gcc_166"));
    core::Analyzer analyzer;
    auto bin_166 = analyzer.analyze(learner.merged());
    auto on_typeck_before =
        r.runProphetWithBinary("gcc_typeck", bin_166);

    learner.learn(r.profileWorkload("gcc_typeck"));
    auto bin_both = analyzer.analyze(learner.merged());
    auto on_typeck_after =
        r.runProphetWithBinary("gcc_typeck", bin_both);

    EXPECT_GE(on_typeck_after.ipc, on_typeck_before.ipc * 0.98);

    // And the "Direct" target: profiling typeck alone.
    auto direct = r.runProphet("gcc_typeck");
    EXPECT_GE(on_typeck_after.ipc, direct.stats.ipc * 0.9);
}

TEST(Runner, AblationFeatureOrderingOnMcf)
{
    // Figure 19's skeleton: the full feature set beats the bare
    // Triage4+metadata baseline.
    Runner r(SystemConfig::table1(), kRecords);

    core::ProphetConfig bare;
    bare.features = core::ProphetFeatures{false, false, false, false};
    auto baseline = r.runProphetWithBinary(
        "mcf", core::OptimizedBinary{}, bare);

    auto full = r.runProphet("mcf");
    EXPECT_GT(full.stats.ipc, baseline.ipc * 0.98);
}

TEST(Runner, TrafficNormAboveOneWithPrefetching)
{
    Runner r(SystemConfig::table1(), kRecords);
    auto tri = r.run("triangel", "omnetpp");
    // Prefetching trades DRAM traffic for latency (Figure 11).
    EXPECT_GE(r.trafficNorm("omnetpp", tri), 0.99);
}

TEST(Runner, ResidentTraceBytesAreTwelvePerRecordPlusPcTables)
{
    Runner r(SystemConfig::table1(), 5000);
    EXPECT_EQ(r.residentTraceBytes(), 0u);
    std::size_t records = 0, pcs = 0;
    for (const char *w : {"mcf", "pagerank_100000_100"}) {
        const trace::Trace &t = r.traceFor(w);
        records += t.size();
        pcs += t.pcCount();
    }
    EXPECT_GE(records, 10000u);
    EXPECT_GT(pcs, 0u);
    EXPECT_LE(pcs, 16u);
    // addr[] and meta[] per record, one PC per table entry: no
    // pc[] or line-address column.
    EXPECT_EQ(r.residentTraceBytes(), 12 * records + 8 * pcs);
}

} // anonymous namespace
} // namespace prophet::sim
