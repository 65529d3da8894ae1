/**
 * @file
 * Unit tests for the set-associative cache model: hits/misses,
 * prefetch-bit accounting, fill timing (late prefetches), way
 * reservation for the metadata partition, and writeback tracking.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "mem/cache.hh"

/**
 * Allocation counter: global operator new replacement so tests can
 * assert that the steady-state miss path performs zero heap
 * allocations (the eviction hot path uses pre-built candidate spans).
 */
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

namespace prophet::mem
{
namespace
{

CacheConfig
smallConfig()
{
    // 16 sets x 4 ways.
    return CacheConfig{"test", 16 * 4 * 64, 4, 2, 8, "lru"};
}

TEST(Cache, MissThenHit)
{
    Cache c(smallConfig());
    EXPECT_FALSE(c.lookupDemand(5, 0).hit);
    c.fill(5, 10, PfClass::None, kInvalidPC, false);
    auto r = c.lookupDemand(5, 20);
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(r.readyAt, 22u); // cycle + hit latency
    EXPECT_EQ(c.stats().demandHits, 1u);
    EXPECT_EQ(c.stats().demandMisses, 1u);
}

TEST(Cache, InFlightFillPaysResidualLatency)
{
    Cache c(smallConfig());
    c.fill(5, 100, PfClass::L2, 0x400, false);
    auto r = c.lookupDemand(5, 50); // before the fill lands
    EXPECT_TRUE(r.hit);
    EXPECT_TRUE(r.wasLate);
    EXPECT_EQ(r.readyAt, 102u); // fill time + latency
    EXPECT_EQ(c.stats().latePrefetchHits, 1u);
}

TEST(Cache, PrefetchBitConsumedOnce)
{
    Cache c(smallConfig());
    c.fill(7, 0, PfClass::L2, 0x1234, false);
    auto first = c.lookupDemand(7, 10);
    EXPECT_TRUE(first.wasPrefetched);
    EXPECT_EQ(first.prefetchClass, PfClass::L2);
    EXPECT_EQ(first.prefetchPc, 0x1234u);
    auto second = c.lookupDemand(7, 20);
    EXPECT_FALSE(second.wasPrefetched);
    EXPECT_EQ(c.stats().prefetchHits, 1u);
}

TEST(Cache, PrefetchClassDistinguishesL1FromL2)
{
    Cache c(smallConfig());
    c.fill(1, 0, PfClass::L1, 0x10, false);
    c.fill(2, 0, PfClass::L2, 0x20, false);
    EXPECT_EQ(c.lookupDemand(1, 5).prefetchClass, PfClass::L1);
    EXPECT_EQ(c.lookupDemand(2, 5).prefetchClass, PfClass::L2);
}

TEST(Cache, EvictionReportsDirtyLine)
{
    Cache c(smallConfig());
    // Fill one set (addresses congruent mod 16) to capacity.
    c.fill(0, 0, PfClass::None, kInvalidPC, true); // dirty
    c.fill(16, 0, PfClass::None, kInvalidPC, false);
    c.fill(32, 0, PfClass::None, kInvalidPC, false);
    c.fill(48, 0, PfClass::None, kInvalidPC, false);
    auto ev = c.fill(64, 0, PfClass::None, kInvalidPC, false);
    EXPECT_TRUE(ev.valid);
    EXPECT_EQ(ev.lineAddr, 0u); // LRU victim
    EXPECT_TRUE(ev.dirty);
    EXPECT_EQ(c.stats().writebacks, 1u);
}

TEST(Cache, UnusedPrefetchEvictionCounted)
{
    Cache c(smallConfig());
    c.fill(0, 0, PfClass::L2, 0x1, false);
    for (Addr a = 16; a <= 64; a += 16)
        c.fill(a, 0, PfClass::None, kInvalidPC, false);
    EXPECT_EQ(c.stats().unusedPrefetchEvictions, 1u);
}

TEST(Cache, SteadyStateMissPathDoesNotAllocate)
{
    for (const char *policy : {"lru", "plru", "srrip", "random"}) {
        CacheConfig cfg = smallConfig();
        cfg.replacement = policy;
        Cache c(cfg);
        // Warm every way of every set so each subsequent fill evicts.
        for (Addr a = 0; a < 16 * 4; ++a)
            c.fill(a, 0, PfClass::None, kInvalidPC, false);

        std::uint64_t before = g_heapAllocs.load();
        Cycle cycle = 0;
        for (Addr a = 16 * 4; a < 16 * 4 + 512; ++a) {
            auto miss = c.lookupDemand(a, cycle);
            ASSERT_FALSE(miss.hit);
            auto ev = c.fill(a, cycle + 30, PfClass::None,
                             kInvalidPC, false);
            ASSERT_TRUE(ev.valid); // every fill evicts a valid line
            ++cycle;
        }
        EXPECT_EQ(g_heapAllocs.load(), before)
            << "demand miss + eviction allocated under " << policy;
    }
}

TEST(Cache, MarkDirtyAndInvalidate)
{
    Cache c(smallConfig());
    c.fill(9, 0, PfClass::None, kInvalidPC, false);
    c.markDirty(9);
    auto ev = c.invalidate(9);
    EXPECT_TRUE(ev.valid);
    EXPECT_TRUE(ev.dirty);
    EXPECT_FALSE(c.contains(9));
    EXPECT_FALSE(c.invalidate(9).valid);
}

TEST(Cache, ReservedWaysShrinkDemandCapacity)
{
    Cache c(smallConfig());
    EXPECT_EQ(c.effectiveBytes(), 16u * 4 * 64);
    c.setReservedWays(2);
    EXPECT_EQ(c.effectiveBytes(), 16u * 2 * 64);
    EXPECT_EQ(c.reservedWays(), 2u);
}

TEST(Cache, GrowingReservationInvalidatesLines)
{
    Cache c(smallConfig());
    // Fill ways 0..3 of set 0.
    for (Addr a = 0; a < 4 * 16; a += 16)
        c.fill(a, 0, PfClass::None, kInvalidPC, false);
    c.setReservedWays(3);
    // Only one demand way remains; at most one line can still hit.
    int hits = 0;
    for (Addr a = 0; a < 4 * 16; a += 16)
        if (c.contains(a))
            ++hits;
    EXPECT_LE(hits, 1);
}

TEST(Cache, ReservedWaysStillAllowFills)
{
    Cache c(smallConfig());
    c.setReservedWays(3);
    // One way left: every new fill in a set evicts the previous.
    c.fill(0, 0, PfClass::None, kInvalidPC, false);
    auto ev = c.fill(16, 0, PfClass::None, kInvalidPC, false);
    EXPECT_TRUE(ev.valid);
    EXPECT_EQ(ev.lineAddr, 0u);
    EXPECT_TRUE(c.contains(16));
}

TEST(Cache, LookupPrefetchDoesNotPerturbStats)
{
    Cache c(smallConfig());
    c.fill(4, 0, PfClass::L2, 0x99, false);
    auto r = c.lookupPrefetch(4, 10);
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(c.stats().demandHits, 0u);
    // The prefetch bit survives for the real demand.
    EXPECT_TRUE(c.lookupDemand(4, 20).wasPrefetched);
}

TEST(Cache, SetIndexingSeparatesSets)
{
    Cache c(smallConfig());
    // Same tag bits, different sets: both must coexist.
    c.fill(0, 0, PfClass::None, kInvalidPC, false);
    c.fill(1, 0, PfClass::None, kInvalidPC, false);
    EXPECT_TRUE(c.contains(0));
    EXPECT_TRUE(c.contains(1));
}

TEST(Cache, StatsResetKeepsContents)
{
    Cache c(smallConfig());
    c.fill(2, 0, PfClass::None, kInvalidPC, false);
    c.lookupDemand(2, 5);
    c.resetStats();
    EXPECT_EQ(c.stats().demandHits, 0u);
    EXPECT_TRUE(c.contains(2));
}

} // anonymous namespace
} // namespace prophet::mem
