/**
 * @file
 * Allocation-freedom of the warmed-up per-record system step: once a
 * System has seen its working set, driving further records through the
 * L1-hit, L2-miss, and prefetch-issue paths must perform zero heap
 * allocations, for every pipeline the records/sec benches gate
 * (none/triage/triangel/prophet). Enforced with a counting global
 * operator new (the same technique as test_cache.cc) around
 * System::step().
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

#include "sim/system.hh"
#include "workloads/pattern_lib.hh"

namespace
{
std::atomic<std::uint64_t> g_heapAllocs{0};
} // anonymous namespace

void *
operator new(std::size_t n)
{
    ++g_heapAllocs;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

void *
operator new(std::size_t n, std::align_val_t align)
{
    ++g_heapAllocs;
    // aligned_alloc requires the size to be a multiple of alignment.
    std::size_t a = static_cast<std::size_t>(align);
    std::size_t size = ((n ? n : 1) + a - 1) / a * a;
    if (void *p = std::aligned_alloc(a, size))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n, std::align_val_t align)
{
    return ::operator new(n, align);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}
void operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}
void operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace prophet::sim
{
namespace
{

/**
 * A pointer chase over more lines than the L2 holds (8192): repeated
 * traversals keep generating L2 misses and give the temporal
 * prefetchers a pattern to issue on, while revisited lines produce
 * L1/L2 hits. The second trace half replays the same ring, so by the
 * time the first half has been stepped, every structure the loop
 * touches has reached its steady-state footprint. A nonzero
 * @p mutation_rate re-links part of the ring after every traversal,
 * so metadata targets get overwritten and the Multi-path Victim
 * Buffer holds the old ones.
 */
trace::Trace
chaseTrace(std::size_t records, double mutation_rate)
{
    workloads::StreamParams p;
    p.pc = 0x400000;
    p.regionBase = 1ull << 33;
    p.seed = 7;
    workloads::ChaseStream stream(p, 20000, mutation_rate);
    trace::Trace t;
    for (std::size_t i = 0; i < records; ++i)
        stream.emit(t);
    return t;
}

struct StepCase
{
    const char *name;
    L2PfKind kind;
    /**
     * Prophet with a priority hint on the chase PC and a mutating
     * ring. Unhinted entries have priority 0, and the MVB rejects
     * their displaced targets, so only this case reaches the MVB's
     * extra-target path.
     */
    bool hinted;
};

class WarmSystemStep : public ::testing::TestWithParam<StepCase>
{
};

TEST_P(WarmSystemStep, WarmedInnerStepDoesNotAllocate)
{
    const StepCase &param = GetParam();
    trace::Trace t = chaseTrace(150000, param.hinted ? 0.1 : 0.0);

    SystemConfig cfg = SystemConfig::table1();
    cfg.l2Pf = param.kind;
    cfg.warmupRecords = 0;
    if (param.hinted)
        ASSERT_TRUE(
            cfg.binary.hints.install(0x400000, core::Hint{true, 1}));

    System sys(cfg);
    sys.beginRun(t.size() * 2);

    // Warm: several full ring traversals. Every PC, line, metadata
    // set, sampler set, and scratch buffer the loop will ever touch
    // is touched here.
    std::size_t warm = 100000;
    for (std::size_t i = 0; i < warm; ++i)
        sys.step(t[i]);

    auto mvbExtraTargets = [&]() -> std::uint64_t {
        return sys.prophet()
            ? sys.prophet()->victimBuffer().stats().extraTargets
            : 0;
    };
    const std::uint64_t extra_before = mvbExtraTargets();

    // The measured window replays the same ring — L2 misses (the
    // ring exceeds L2 capacity) and prefetch issues (repeating
    // successor pattern) — plus a block of back-to-back accesses to
    // one line, the L1-hit path. See the assertions on the final
    // stats below.
    std::uint64_t before = g_heapAllocs.load();
    for (std::size_t i = warm; i < t.size(); ++i)
        sys.step(t[i]);
    trace::TraceRecord same{0x400000, 1ull << 33, 4, false, false};
    for (int i = 0; i < 64; ++i)
        sys.step(same);
    std::uint64_t during = g_heapAllocs.load() - before;
    const std::uint64_t extra_targets = mvbExtraTargets() - extra_before;

    RunStats s = sys.finish();
    EXPECT_EQ(during, 0u)
        << "warmed per-record step allocated on the " << param.name
        << " path";

    // Prove the window exercised the paths the satellite names.
    EXPECT_GT(s.l1Accesses, s.l1Misses); // L1 hits happened
    EXPECT_GT(s.l2DemandMisses, 0u);     // L2 misses happened
    if (cfg.l2Pf != L2PfKind::None) {
        EXPECT_GT(s.l2PrefetchesIssued, 0u); // prefetch-issue path
    }
    if (param.hinted) {
        EXPECT_GT(extra_targets, 0u); // the MVB supplied targets
    }
}

INSTANTIATE_TEST_SUITE_P(
    Pipelines, WarmSystemStep,
    ::testing::Values(StepCase{"none", L2PfKind::None, false},
                      StepCase{"triage", L2PfKind::Triage, false},
                      StepCase{"triangel", L2PfKind::Triangel, false},
                      StepCase{"prophet", L2PfKind::Prophet, false},
                      StepCase{"prophet_hinted", L2PfKind::Prophet,
                               true}),
    [](const ::testing::TestParamInfo<StepCase> &info) {
        return std::string(info.param.name);
    });

} // anonymous namespace
} // namespace prophet::sim
