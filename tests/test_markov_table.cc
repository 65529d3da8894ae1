/**
 * @file
 * Unit tests for the LLC-resident metadata (Markov) table:
 * insert/lookup/update semantics, way-partition capacity, priority-
 * aware victim filtering (Prophet replacement), the eviction
 * callback feeding the Multi-path Victim Buffer, and resizing.
 */

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "mem/replacement.hh"
#include "prefetch/markov_table.hh"

namespace prophet::pf
{
namespace
{

MarkovTable
smallTable(unsigned sets = 4, unsigned ways = 1)
{
    return MarkovTable(sets, ways,
                       std::make_unique<mem::LruPolicy>());
}

TEST(MarkovTable, InsertThenLookup)
{
    auto t = smallTable();
    t.insert(100, 200, 0);
    auto target = t.lookup(100);
    ASSERT_TRUE(target.has_value());
    EXPECT_EQ(*target, 200u);
    EXPECT_EQ(t.stats().hits, 1u);
    EXPECT_EQ(t.stats().inserts, 1u);
}

TEST(MarkovTable, MissOnAbsentKey)
{
    auto t = smallTable();
    EXPECT_FALSE(t.lookup(7).has_value());
    EXPECT_EQ(t.stats().lookups, 1u);
    EXPECT_EQ(t.stats().hits, 0u);
}

TEST(MarkovTable, UpdateOverwritesTarget)
{
    auto t = smallTable();
    t.insert(100, 200, 0);
    t.insert(100, 300, 0);
    EXPECT_EQ(*t.peek(100), 300u);
    EXPECT_EQ(t.stats().inserts, 1u);
    EXPECT_EQ(t.stats().updates, 1u);
    EXPECT_EQ(t.size(), 1u);
}

TEST(MarkovTable, SameTargetReinsertIsNotAnUpdate)
{
    auto t = smallTable();
    t.insert(100, 200, 0);
    t.insert(100, 200, 0);
    EXPECT_EQ(t.stats().updates, 0u);
}

TEST(MarkovTable, CapacityMatchesGeometry)
{
    MarkovTable t(2048, 8, std::make_unique<mem::SrripPolicy>());
    // 2048 sets x 8 ways x 12 entries/line = 196,608 entries = 1 MB,
    // the paper's maximum (Section 5.10).
    EXPECT_EQ(t.capacityEntries(), 196608u);
}

TEST(MarkovTable, EvictionCallbackOnReplacement)
{
    auto t = smallTable(1, 1); // 12 entries total
    std::vector<MarkovTable::Entry> evicted;
    t.setEvictionCallback([&](const MarkovTable::Entry &e) {
        evicted.push_back(e);
    });
    for (Addr k = 0; k < 13; ++k)
        t.insert(k * 1000 + 1, k, static_cast<std::uint8_t>(1));
    EXPECT_EQ(t.stats().replacements, 1u);
    ASSERT_EQ(evicted.size(), 1u);
    EXPECT_TRUE(evicted[0].valid);
}

TEST(MarkovTable, EvictionCallbackOnTargetOverwrite)
{
    auto t = smallTable();
    std::vector<MarkovTable::Entry> displaced;
    t.setEvictionCallback([&](const MarkovTable::Entry &e) {
        displaced.push_back(e);
    });
    t.insert(100, 200, 2);
    t.insert(100, 300, 2); // displaces target 200
    ASSERT_EQ(displaced.size(), 1u);
    EXPECT_EQ(displaced[0].key, 100u);
    EXPECT_EQ(displaced[0].target, 200u);
}

TEST(MarkovTable, PriorityAwareVictimFiltering)
{
    // One set, 12 entries. Fill with high priority except one low-
    // priority entry; the next insert must evict the low one.
    auto t = smallTable(1, 1);
    t.setPriorityAware(true);
    for (Addr k = 0; k < 11; ++k)
        t.insert(0x1000 + k * 64, k, 3);
    t.insert(0x9999, 7, 1); // the only low-priority entry
    // Touch the low-priority entry so pure LRU would protect it.
    t.lookup(0x9999);
    t.insert(0xabcd, 8, 3); // forces a replacement
    EXPECT_FALSE(t.peek(0x9999).has_value());
    // All high-priority entries survive.
    for (Addr k = 0; k < 11; ++k)
        EXPECT_TRUE(t.peek(0x1000 + k * 64).has_value());
}

TEST(MarkovTable, WithoutPriorityAwarenessLruWins)
{
    auto t = smallTable(1, 1);
    t.setPriorityAware(false);
    for (Addr k = 0; k < 12; ++k)
        t.insert(0x1000 + k * 64, k, 0);
    // Refresh everything except the first entry.
    for (Addr k = 1; k < 12; ++k)
        t.lookup(0x1000 + k * 64);
    t.insert(0xabcd, 99, 0);
    EXPECT_FALSE(t.peek(0x1000).has_value());
}

TEST(MarkovTable, PriorityRecorded)
{
    auto t = smallTable();
    t.insert(100, 200, 3);
    auto p = t.priorityOf(100);
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(*p, 3u);
}

TEST(MarkovTable, ShrinkDropsEntriesBeyondCapacity)
{
    MarkovTable t(4, 2, std::make_unique<mem::LruPolicy>());
    for (Addr k = 0; k < 150; ++k)
        t.insert(k * 131 + 7, k, 0);
    std::uint64_t before = t.size();
    t.setAllocatedWays(1);
    EXPECT_LT(t.size(), before);
    EXPECT_GT(t.stats().resizeDrops, 0u);
    EXPECT_EQ(t.allocatedWays(), 1u);
    EXPECT_EQ(t.capacityEntries(), 4u * 12);
}

TEST(MarkovTable, ZeroWaysDisablesTable)
{
    auto t = smallTable();
    t.setAllocatedWays(0);
    t.insert(1, 2, 0);
    EXPECT_FALSE(t.lookup(1).has_value());
    EXPECT_EQ(t.size(), 0u);
    // Re-enable.
    t.setAllocatedWays(1);
    t.insert(1, 2, 0);
    EXPECT_TRUE(t.lookup(1).has_value());
}

TEST(MarkovTable, AllocatedEntriesCounter)
{
    auto t = smallTable(1, 1);
    for (Addr k = 0; k < 12; ++k)
        t.insert(0x2000 + k * 64, k, 0);
    EXPECT_EQ(t.stats().allocatedEntries(), 12u);
    t.insert(0x9000, 1, 0); // replacement
    // Insertions - replacements stays at live size (Section 4.1).
    EXPECT_EQ(t.stats().allocatedEntries(), 12u);
    EXPECT_EQ(t.stats().allocatedEntries(), t.size());
}

TEST(MarkovTable, ClearInvalidatesEverything)
{
    auto t = smallTable();
    t.insert(1, 2, 0);
    t.insert(3, 4, 0);
    t.clear();
    EXPECT_EQ(t.size(), 0u);
    EXPECT_FALSE(t.peek(1).has_value());
}

TEST(MarkovTable, PeekDoesNotTouchReplacement)
{
    auto t = smallTable(1, 1);
    for (Addr k = 0; k < 12; ++k)
        t.insert(0x3000 + k * 64, k, 0);
    // Peeking the oldest entry must not rescue it from LRU eviction.
    t.peek(0x3000);
    t.insert(0x7777, 9, 0);
    EXPECT_FALSE(t.peek(0x3000).has_value());
}

TEST(MarkovTable, ChainsComposable)
{
    auto t = smallTable(16, 2);
    // Store A->B->C->D and follow the chain.
    t.insert(10, 20, 0);
    t.insert(20, 30, 0);
    t.insert(30, 40, 0);
    Addr cur = 10;
    std::vector<Addr> chain;
    for (int d = 0; d < 3; ++d) {
        auto n = t.lookup(cur);
        ASSERT_TRUE(n.has_value());
        chain.push_back(*n);
        cur = *n;
    }
    EXPECT_EQ(chain, (std::vector<Addr>{20, 30, 40}));
}

/** @p n distinct line addresses that share @p key's fingerprint. */
std::vector<Addr>
keysSharingFingerprint(Addr key, std::size_t n)
{
    const std::uint8_t fp = MarkovTable::fingerprint(key);
    std::vector<Addr> keys;
    for (Addr k = key; keys.size() < n; ++k)
        if (MarkovTable::fingerprint(k) == fp)
            keys.push_back(k);
    return keys;
}

TEST(MarkovTable, ColludingFingerprintsResolveOnFullKeys)
{
    // One 96-way set whose keys all share one fingerprint: every
    // probe matches every slot's fingerprint, so only the full-key
    // check tells them apart.
    std::vector<Addr> keys = keysSharingFingerprint(0x12345, 200);
    MarkovTable t(1, 8, std::make_unique<mem::LruPolicy>());
    ASSERT_EQ(t.capacityEntries(), 96u);
    for (std::size_t i = 0; i < 96; ++i)
        t.insert(keys[i], 1000 + i, static_cast<std::uint8_t>(i % 4));
    EXPECT_EQ(t.size(), 96u);
    EXPECT_EQ(t.stats().replacements, 0u);
    for (std::size_t i = 0; i < 96; ++i) {
        EXPECT_EQ(t.peek(keys[i]), std::optional<Addr>(1000 + i));
        EXPECT_EQ(t.priorityOf(keys[i]),
                  std::optional<std::uint8_t>(i % 4));
    }
    // Absent keys with the same fingerprint miss.
    for (std::size_t i = 96; i < 200; ++i) {
        EXPECT_FALSE(t.lookup(keys[i]).has_value());
        EXPECT_FALSE(t.priorityOf(keys[i]).has_value());
    }

    // A hit overwrites only its own target.
    t.insert(keys[50], 7, 3);
    EXPECT_EQ(t.stats().updates, 1u);
    EXPECT_EQ(t.peek(keys[50]), std::optional<Addr>(7));
    EXPECT_EQ(t.peek(keys[49]), std::optional<Addr>(1049));
    EXPECT_EQ(t.peek(keys[51]), std::optional<Addr>(1051));

    // Refresh all but keys[10..19]; each new key then replaces the
    // least recently used of those, in insertion order.
    for (std::size_t i = 0; i < 96; ++i)
        if (i < 10 || i >= 20)
            t.lookup(keys[i]);
    std::vector<Addr> evicted;
    t.setEvictionCallback([&](const MarkovTable::Entry &e) {
        evicted.push_back(e.key);
    });
    for (std::size_t i = 96; i < 106; ++i)
        t.insert(keys[i], 1000 + i, 0);
    ASSERT_EQ(evicted.size(), 10u);
    for (std::size_t i = 0; i < 10; ++i)
        EXPECT_EQ(evicted[i], keys[10 + i]);
    for (std::size_t i = 0; i < 106; ++i) {
        const bool gone = i >= 10 && i < 20;
        EXPECT_EQ(t.peek(keys[i]).has_value(), !gone) << i;
        if (!gone && i != 50)
            EXPECT_EQ(*t.peek(keys[i]), 1000 + i) << i;
    }
}

TEST(MarkovTable, LastSetScanStaysInsideTheTable)
{
    // Sets of 12 and 24 ways end off a 16-byte scan boundary, so the
    // last set's final scan load reaches past its fingerprints (the
    // sanitizer build checks it stays inside the allocation). Fill
    // every set, including the last, and read every key back.
    for (unsigned ways : {1u, 2u}) {
        MarkovTable t(4, ways, std::make_unique<mem::SrripPolicy>());
        std::vector<Addr> keys;
        for (Addr k = 0x4000; t.size() < t.capacityEntries(); k += 64) {
            t.insert(k, k + 1, 0);
            keys.push_back(k);
        }
        std::size_t present = 0;
        for (Addr k : keys) {
            if (auto target = t.lookup(k)) {
                EXPECT_EQ(*target, k + 1);
                ++present;
            }
        }
        EXPECT_EQ(present, t.capacityEntries());
        EXPECT_FALSE(t.lookup(0x3fc0).has_value());
    }
}

} // anonymous namespace
} // namespace prophet::pf
