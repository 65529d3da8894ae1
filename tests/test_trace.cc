/**
 * @file
 * Unit tests for the trace substrate: record accounting, the
 * instruction-count bookkeeping IPC depends on, and the PC table the
 * packed meta word indexes.
 */

#include <gtest/gtest.h>

#include "common/error.hh"
#include "trace/trace.hh"

namespace prophet::trace
{
namespace
{

TEST(Trace, EmptyOnConstruction)
{
    Trace t;
    EXPECT_TRUE(t.empty());
    EXPECT_EQ(t.size(), 0u);
    EXPECT_EQ(t.totalInstructions(), 0u);
}

TEST(Trace, AppendCountsInstructions)
{
    Trace t;
    t.append(0x400, 0x1000, 4);
    // One memory instruction + 4 gap instructions.
    EXPECT_EQ(t.totalInstructions(), 5u);
    t.append(0x404, 0x2000, 0);
    EXPECT_EQ(t.totalInstructions(), 6u);
    EXPECT_EQ(t.size(), 2u);
}

TEST(Trace, RecordFieldsPreserved)
{
    Trace t;
    t.append(0x400, 0x1040, 7, true, true);
    const TraceRecord &r = t[0];
    EXPECT_EQ(r.pc, 0x400u);
    EXPECT_EQ(r.addr, 0x1040u);
    EXPECT_EQ(r.instGap, 7u);
    EXPECT_TRUE(r.dependsOnPrev);
    EXPECT_TRUE(r.isWrite);
}

TEST(Trace, DefaultsAreIndependentLoads)
{
    Trace t;
    t.append(1, 2);
    EXPECT_FALSE(t[0].dependsOnPrev);
    EXPECT_FALSE(t[0].isWrite);
}

TEST(Trace, IterationVisitsAllRecords)
{
    Trace t;
    for (int i = 0; i < 10; ++i)
        t.append(i, i * 64);
    int n = 0;
    for (const auto &rec : t) {
        EXPECT_EQ(rec.pc, static_cast<PC>(n));
        ++n;
    }
    EXPECT_EQ(n, 10);
}

TEST(Trace, RepeatedPcsShareOneTableEntry)
{
    Trace t;
    for (int i = 0; i < 100; ++i)
        t.append(0x400 + 4 * (i % 3), 64 * i);
    ASSERT_EQ(t.pcCount(), 3u);
    EXPECT_EQ(t.pcTable()[0], 0x400u);
    EXPECT_EQ(t.pcTable()[2], 0x408u);
    EXPECT_EQ(Trace::pcIndexOf(t.metaData()[4]), 1u);
    EXPECT_EQ(t.residentBytes(), 100u * 12 + 3u * 8);
}

TEST(Trace, PcTableOverflowThrows)
{
    Trace t;
    for (std::size_t i = 0; i < Trace::kMaxPcs; ++i)
        t.append(0x400000 + 4 * i, 64 * i);
    ASSERT_EQ(t.pcCount(), Trace::kMaxPcs);
    EXPECT_EQ(t[Trace::kMaxPcs - 1].pc,
              0x400000 + 4 * (Trace::kMaxPcs - 1));
    // The 16385th distinct PC is an explicit error, not a wrapped
    // index; a PC already in the table still appends.
    EXPECT_THROW(t.append(0x10, 0x40), Error);
    EXPECT_EQ(t.size(), Trace::kMaxPcs);
    t.append(0x400000, 0x40);
    EXPECT_EQ(t.size(), Trace::kMaxPcs + 1);
    EXPECT_EQ(t[Trace::kMaxPcs].pc, 0x400000u);
}

TEST(Trace, IndexAndIteratorRoundTrip)
{
    Trace t;
    for (unsigned i = 0; i < 50; ++i)
        t.append(0x500 + 8 * (i % 6), 0x10000 + 72 * i,
                 static_cast<std::uint16_t>(1000 * i), i % 3 == 0,
                 i % 5 == 0);
    // Rebuilding from operator[] and from the iterator gives back
    // every field, the PC table and the instruction count.
    Trace by_index, by_iter;
    for (std::size_t i = 0; i < t.size(); ++i)
        by_index.append(t[i]);
    for (const TraceRecord &rec : t)
        by_iter.append(rec);
    for (const Trace *copy : {&by_index, &by_iter}) {
        ASSERT_EQ(copy->size(), t.size());
        EXPECT_EQ(copy->totalInstructions(), t.totalInstructions());
        ASSERT_EQ(copy->pcCount(), t.pcCount());
        for (std::size_t i = 0; i < t.pcCount(); ++i)
            EXPECT_EQ(copy->pcTable()[i], t.pcTable()[i]);
        for (std::size_t i = 0; i < t.size(); ++i) {
            EXPECT_EQ(copy->metaData()[i], t.metaData()[i]);
            EXPECT_EQ(copy->addrData()[i], t.addrData()[i]);
        }
    }
    EXPECT_EQ(t[7].pc, 0x508u);
    EXPECT_EQ(t[7].addr, 0x10000u + 72 * 7);
    EXPECT_EQ(t[7].instGap, 7000u);
    EXPECT_FALSE(t[7].dependsOnPrev);
    EXPECT_FALSE(t[7].isWrite);
}

TEST(Trace, AdoptChecksEveryPcIndex)
{
    auto metas = [](std::uint32_t index) {
        return Trace::BulkVector<std::uint32_t>{
            Trace::packMeta(3, false, false, 0),
            Trace::packMeta(5, true, true, index)};
    };
    Trace t;
    EXPECT_FALSE(t.adopt({0x40, 0x80}, metas(2), {0x400, 0x404}));
    EXPECT_TRUE(t.empty());
    EXPECT_FALSE(t.adopt({0x40}, metas(1), {0x400, 0x404}));
    ASSERT_TRUE(t.adopt({0x40, 0x80}, metas(1), {0x400, 0x404}));
    EXPECT_EQ(t.totalInstructions(), 3u + 5u + 2u);
    EXPECT_EQ(t[1].pc, 0x404u);
    EXPECT_TRUE(t[1].dependsOnPrev);
    // Appending after a load reuses the adopted table.
    t.append(0x404, 0xc0);
    EXPECT_EQ(t.pcCount(), 2u);
    EXPECT_EQ(Trace::pcIndexOf(t.metaData()[2]), 1u);
}

} // anonymous namespace
} // namespace prophet::trace
