/**
 * @file
 * Unit tests for the RPG2 baseline: kernel identification (stride
 * kernels with resolvers only), distance tuning, and the software-
 * prefetch plan.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "rpg2/distance_tuner.hh"
#include "rpg2/kernel_id.hh"
#include "rpg2/rpg2.hh"
#include "sim/pipelines.hh"
#include "sim/runner.hh"
#include "workloads/pattern_lib.hh"

namespace prophet::rpg2
{
namespace
{

using workloads::IndirectStream;
using workloads::PcResolver;
using workloads::StreamParams;

StreamParams
params()
{
    StreamParams p;
    p.pc = 0x1000;
    p.regionBase = 1ull << 32;
    p.seed = 5;
    return p;
}

/** Build a trace + resolver from an indirect stream. */
struct KernelFixture
{
    IndirectStream stream;
    trace::Trace t;
    PcResolver resolver;
    FlatMap<PC, std::uint64_t> misses;

    explicit KernelFixture(bool stride)
        : stream(params(), 512, 4096, stride)
    {
        for (int i = 0; i < 2000; ++i)
            stream.emit(t);
        resolver.registerKernel(
            stream.kernelPc(),
            [this](Addr a, std::int64_t d) {
                return stream.resolve(a, d);
            });
        // The indirect consumer causes most misses.
        misses[stream.targetPc()] = 9000;
        misses[stream.kernelPc()] = 500;
    }
};

TEST(KernelId, FindsStrideKernelWithResolver)
{
    KernelFixture f(true);
    auto kernels = identifyKernels(f.t, f.misses, &f.resolver);
    ASSERT_EQ(kernels.size(), 1u);
    EXPECT_EQ(kernels[0].pc, f.stream.kernelPc());
    EXPECT_EQ(kernels[0].stride, 4); // 4-byte index elements
    EXPECT_GT(kernels[0].strideCoverage, 0.9);
    EXPECT_GT(kernels[0].missShare, 0.9);
}

TEST(KernelId, RejectsShuffledKernel)
{
    // Computed kernels (mcf-style) have no stride: nothing
    // qualifies even though the resolver map is populated.
    KernelFixture f(false);
    auto kernels = identifyKernels(f.t, f.misses, &f.resolver);
    EXPECT_TRUE(kernels.empty());
}

TEST(KernelId, RejectsWithoutResolver)
{
    KernelFixture f(true);
    auto kernels = identifyKernels(f.t, f.misses, nullptr);
    EXPECT_TRUE(kernels.empty());
}

TEST(KernelId, MissShareThresholdEnforced)
{
    KernelFixture f(true);
    // The kernel + consumer cause only 5% of all misses.
    f.misses[0xdead] = 200000;
    auto kernels = identifyKernels(f.t, f.misses, &f.resolver);
    EXPECT_TRUE(kernels.empty());
}

TEST(KernelId, MinAccessThreshold)
{
    KernelFixture f(true);
    KernelIdConfig cfg;
    cfg.minAccesses = 1'000'000; // more than the trace has
    auto kernels = identifyKernels(f.t, f.misses, &f.resolver, cfg);
    EXPECT_TRUE(kernels.empty());
}

TEST(KernelId, DominantStrideTieBreaksToSmallerDelta)
{
    // Deltas alternate +8, +4 (the larger seen first), 150 of each:
    // a tie the smaller delta must win whatever the counting order.
    constexpr PC kPc = 0x2000;
    trace::Trace t;
    Addr a = 1ull << 32;
    for (int i = 0; i < 301; ++i) {
        t.append(kPc, a);
        a += i % 2 == 0 ? 8 : 4;
    }
    PcResolver resolver;
    resolver.registerKernel(
        kPc, [](Addr addr, std::int64_t) { return addr; });
    FlatMap<PC, std::uint64_t> misses;
    misses[kPc] = 100;
    KernelIdConfig cfg;
    cfg.minStrideCoverage = 0.5;
    auto kernels = identifyKernels(t, misses, &resolver, cfg);
    ASSERT_EQ(kernels.size(), 1u);
    EXPECT_EQ(kernels[0].stride, 4);
    EXPECT_DOUBLE_EQ(kernels[0].strideCoverage, 0.5);
}

/**
 * The reference identification: one std::map node per delta (ties
 * to the smallest delta by ascending iteration), per-PC state in a
 * std::map, and the resolvability probe found by rescanning the
 * trace — the straightforward form identifyKernels must agree with.
 */
std::vector<Kernel>
referenceKernels(const trace::Trace &t,
                 const FlatMap<PC, std::uint64_t> &pc_misses,
                 const trace::IndirectResolver &resolver)
{
    const KernelIdConfig cfg;
    struct Stat
    {
        Addr last = kInvalidAddr;
        std::uint64_t accesses = 0;
        std::map<std::int64_t, std::uint64_t> deltas;
        PC consumer = kInvalidPC;
    };
    std::map<PC, Stat> stats;
    for (std::size_t i = 0; i < t.size(); ++i) {
        Stat &s = stats[t[i].pc];
        ++s.accesses;
        if (s.last != kInvalidAddr && t[i].addr != s.last)
            ++s.deltas[static_cast<std::int64_t>(t[i].addr)
                       - static_cast<std::int64_t>(s.last)];
        s.last = t[i].addr;
        for (std::size_t j = i + 1;
             s.consumer == kInvalidPC && j < t.size() && j <= i + 4;
             ++j) {
            if (t[j].pc == t[i].pc)
                break;
            if (t[j].dependsOnPrev)
                s.consumer = t[j].pc;
        }
    }
    std::uint64_t total = 0;
    for (const auto &[pc, m] : pc_misses)
        total += m;
    auto missesOf = [&](PC pc) -> std::uint64_t {
        auto it = pc_misses.find(pc);
        return it == pc_misses.end() ? 0 : it->second;
    };
    std::vector<Kernel> out;
    for (const auto &[pc, s] : stats) {
        if (s.accesses < cfg.minAccesses || s.deltas.empty())
            continue;
        std::uint64_t misses = missesOf(pc)
            + (s.consumer == kInvalidPC ? 0 : missesOf(s.consumer));
        double share = static_cast<double>(misses)
            / static_cast<double>(total);
        std::int64_t best = 0;
        std::uint64_t best_count = 0, sum = 0;
        for (const auto &[d, c] : s.deltas) {
            sum += c;
            if (c > best_count) {
                best_count = c;
                best = d;
            }
        }
        double coverage = static_cast<double>(best_count)
            / static_cast<double>(sum);
        std::size_t first = 0;
        while (t[first].pc != pc)
            ++first;
        if (coverage < cfg.minStrideCoverage
            || !resolver.resolve(pc, t[first].addr, 1)
            || share < cfg.minMissShare)
            continue;
        out.push_back(Kernel{pc, best, coverage, share});
    }
    std::sort(out.begin(), out.end(),
              [](const Kernel &a, const Kernel &b) {
                  if (a.missShare != b.missShare)
                      return a.missShare > b.missShare;
                  return a.pc < b.pc;
              });
    return out;
}

TEST(KernelId, MatchesReferenceCounterOnGraphWorkloads)
{
    // The graph_big labels at reduced length: the flat-map counting
    // must find exactly the reference's kernels, bit for bit.
    sim::Runner runner(sim::SystemConfig::table1(), 100'000);
    std::size_t found = 0;
    for (const char *w : {"bfs_100000_16", "dfs_800000_800",
                          "sssp_100000_5", "bc_40000_10",
                          "pagerank_100000_100"}) {
        SCOPED_TRACE(w);
        const trace::Trace &t = runner.traceFor(w);
        const auto *resolver = runner.resolverFor(w);
        ASSERT_NE(resolver, nullptr);
        const auto &misses = runner.baseline(w).pcMisses;
        auto got = identifyKernels(t, misses, resolver);
        auto want = referenceKernels(t, misses, *resolver);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i].pc, want[i].pc);
            EXPECT_EQ(got[i].stride, want[i].stride);
            EXPECT_EQ(got[i].strideCoverage, want[i].strideCoverage);
            EXPECT_EQ(got[i].missShare, want[i].missShare);
        }
        found += got.size();
    }
    EXPECT_GT(found, 0u); // the comparison covers real kernels
}

TEST(Plan, PrefetchAddrsComputeKernelAndIndirect)
{
    KernelFixture f(true);
    auto kernels = identifyKernels(f.t, f.misses, &f.resolver);
    ASSERT_FALSE(kernels.empty());
    auto plan = buildPlan(kernels, 8);
    EXPECT_EQ(plan.size(), 1u);

    // The kernel access at trace position 0.
    Addr kaddr = f.t[0].addr;
    auto addrs =
        plan.prefetchAddrs(f.stream.kernelPc(), kaddr, &f.resolver);
    ASSERT_EQ(addrs.size(), 2u);
    EXPECT_EQ(addrs[0], kaddr + 8 * 4); // b[i + 8]
    EXPECT_EQ(addrs[1], *f.stream.resolve(kaddr, 8)); // a[b[i + 8]]
}

TEST(Plan, NonKernelPcIssuesNothing)
{
    Rpg2Plan plan;
    plan.arm(1, 4, 8);
    EXPECT_TRUE(plan.prefetchAddrs(2, 100, nullptr).empty());
}

TEST(Plan, SetDistanceUpdatesAllKernels)
{
    Rpg2Plan plan;
    plan.arm(1, 4, 8);
    plan.arm(2, 8, 8);
    plan.setDistance(16);
    auto a1 = plan.prefetchAddrs(1, 1000, nullptr);
    ASSERT_EQ(a1.size(), 1u);
    EXPECT_EQ(a1[0], 1000u + 16 * 4);
}

TEST(Plan, EmptyPlanReportsEmpty)
{
    Rpg2Plan plan;
    EXPECT_TRUE(plan.empty());
    plan.arm(1, 4, 8);
    EXPECT_FALSE(plan.empty());
}

TEST(Tuner, FindsPeakOfUnimodalCurve)
{
    // IPC peaks at distance 20.
    auto eval = [](std::int64_t d) {
        double x = static_cast<double>(d) - 20.0;
        return 2.0 - x * x / 400.0;
    };
    auto r = tuneDistance(eval, {1, 64});
    EXPECT_NEAR(static_cast<double>(r.bestDistance), 20.0, 8.0);
    EXPECT_GT(r.bestIpc, 1.8);
}

TEST(Tuner, LogarithmicEvaluationCount)
{
    int calls = 0;
    auto eval = [&](std::int64_t d) {
        ++calls;
        return static_cast<double>(d); // monotone: best at max
    };
    auto r = tuneDistance(eval, sim::Runner::kRpg2Tuning);
    EXPECT_EQ(r.bestDistance, 64);
    // Binary search, not a full sweep: monotone IPC takes the wider
    // half every step, so the search reaches the bound the rpg2
    // pipeline declares for its job.
    const sim::PipelineDef *rpg2 = sim::findPipeline("rpg2");
    ASSERT_NE(rpg2, nullptr);
    EXPECT_EQ(rpg2->systemRuns, 8u);
    EXPECT_EQ(static_cast<unsigned>(calls), rpg2->systemRuns);
    EXPECT_EQ(r.evaluations, rpg2->systemRuns);
}

TEST(Tuner, MonotoneDecreasingPicksMin)
{
    auto eval = [](std::int64_t d) {
        return 100.0 - static_cast<double>(d);
    };
    auto r = tuneDistance(eval, {1, 64});
    EXPECT_EQ(r.bestDistance, 1);
}

} // anonymous namespace
} // namespace prophet::rpg2
