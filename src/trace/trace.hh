/**
 * @file
 * In-memory access trace: the interface between workload generators
 * and the simulator. Traces also expose an instruction count so the
 * timing model can compute IPC.
 *
 * Storage is structure-of-arrays at 12 bytes per record: the byte
 * address, and a packed meta word that holds the instruction gap,
 * the two flags and an index into the trace's PC table. A workload
 * has a handful of distinct memory-instruction PCs, so an 8-byte PC
 * per record would be almost all repeats; the line address is
 * `addr >> kLineShift`, one shift wherever it is needed. The record
 * loop streams these arrays directly, and trace (de)serialization
 * moves each of them with one bulk I/O call. `operator[]`
 * materializes a TraceRecord by value so record-at-a-time call sites
 * keep working unchanged.
 */

#ifndef PROPHET_TRACE_TRACE_HH
#define PROPHET_TRACE_TRACE_HH

#include <cstdint>
#include <cstddef>
#include <iterator>
#include <vector>

#include "common/flat_map.hh"
#include "common/no_init_allocator.hh"
#include "trace/record.hh"

namespace prophet::trace
{

/**
 * A whole-workload memory access trace. Appending maintains the total
 * retired-instruction count (memory instructions + instruction gaps)
 * and the PC table.
 */
class Trace
{
  public:
    /**
     * Packed per-record metadata word: instGap in bits 0-15,
     * dependsOnPrev in bit 16, isWrite in bit 17, and the index of
     * the record's PC in the trace's PC table in bits 18-31. Every
     * bit is defined, so this is also the on-disk encoding of the
     * trace-cache meta array and bulk-written files are
     * deterministic.
     */
    static constexpr std::uint32_t kGapMask = 0xffffu;
    static constexpr std::uint32_t kDependsBit = 1u << 16;
    static constexpr std::uint32_t kWriteBit = 1u << 17;
    static constexpr unsigned kPcIndexShift = 18;

    /** Distinct PCs one trace can hold: the 14-bit index's range. */
    static constexpr std::size_t kMaxPcs = std::size_t{1}
        << (32 - kPcIndexShift);

    /**
     * Array type of the SoA columns. The no-init allocator matters
     * only to the bulk loader: `BulkVector<T> v(n)` sizes without
     * the value-init memset, so fread is the first touch of every
     * page. append() paths behave exactly like std::vector.
     */
    template <typename T>
    using BulkVector = std::vector<T, NoInitAllocator<T>>;

    /** Decode the instruction gap from a packed meta word. */
    static std::uint16_t
    gapOf(std::uint32_t meta)
    {
        return static_cast<std::uint16_t>(meta & kGapMask);
    }

    /** Decode dependsOnPrev from a packed meta word. */
    static bool
    dependsOf(std::uint32_t meta)
    {
        return (meta & kDependsBit) != 0;
    }

    /** Decode isWrite from a packed meta word. */
    static bool
    writeOf(std::uint32_t meta)
    {
        return (meta & kWriteBit) != 0;
    }

    /** Decode the PC-table index from a packed meta word. */
    static std::uint32_t
    pcIndexOf(std::uint32_t meta)
    {
        return meta >> kPcIndexShift;
    }

    /** Encode (gap, depends, write, PC index) into a meta word. */
    static std::uint32_t
    packMeta(std::uint16_t inst_gap, bool depends_on_prev,
             bool is_write, std::uint32_t pc_index)
    {
        return static_cast<std::uint32_t>(inst_gap)
            | (depends_on_prev ? kDependsBit : 0u)
            | (is_write ? kWriteBit : 0u)
            | (pc_index << kPcIndexShift);
    }

    Trace() = default;

    /** Reserve space for n records. */
    void
    reserve(std::size_t n)
    {
        addrs.reserve(n);
        metas.reserve(n);
    }

    /**
     * Append one record (primary form: no TraceRecord materialized).
     * Throws prophet::Error when @p pc would be the trace's
     * (kMaxPcs + 1)th distinct PC.
     */
    void
    append(PC pc, Addr addr, std::uint16_t inst_gap = 1,
           bool depends_on_prev = false, bool is_write = false)
    {
        auto it = pcIndex.find(pc);
        const std::uint32_t index =
            it != pcIndex.end() ? it->second : addPc(pc);
        totalInsts += inst_gap + 1;
        addrs.push_back(addr);
        metas.push_back(
            packMeta(inst_gap, depends_on_prev, is_write, index));
    }

    /** Append one record. */
    void
    append(const TraceRecord &rec)
    {
        append(rec.pc, rec.addr, rec.instGap, rec.dependsOnPrev,
               rec.isWrite);
    }

    /**
     * Adopt bulk-loaded arrays (trace-cache loads). One pass over
     * @p metas_in sums the instruction gaps and checks every PC
     * index against @p pc_table. Returns false, leaving this trace
     * unchanged, when the arrays differ in length, the table holds
     * more than kMaxPcs PCs, or a record's index is past the table.
     */
    bool adopt(BulkVector<Addr> addrs_in,
               BulkVector<std::uint32_t> metas_in,
               std::vector<PC> pc_table);

    /** Number of memory accesses. */
    std::size_t size() const { return addrs.size(); }

    /** True if the trace has no records. */
    bool empty() const { return addrs.empty(); }

    /** Materialize record i (by value; the storage is SoA). */
    TraceRecord
    operator[](std::size_t i) const
    {
        const std::uint32_t m = metas[i];
        return TraceRecord{pcs[pcIndexOf(m)], addrs[i], gapOf(m),
                           dependsOf(m), writeOf(m)};
    }

    /** Total retired instructions represented by the trace. */
    std::uint64_t totalInstructions() const { return totalInsts; }

    // ---- SoA views (hot-loop consumers read these directly) ----

    /** Byte address of every record. */
    const Addr *addrData() const { return addrs.data(); }

    /** Packed gap/flags/PC-index word of every record (packMeta). */
    const std::uint32_t *metaData() const { return metas.data(); }

    /** The PC table, in order of first appearance. */
    const PC *pcTable() const { return pcs.data(); }

    /** Distinct PCs in the trace (the PC table's length). */
    std::size_t pcCount() const { return pcs.size(); }

    /**
     * Resident bytes of the record arrays and the PC table: what a
     * trace costs in memory, 12 bytes per record plus 8 per PC.
     */
    std::size_t
    residentBytes() const
    {
        return size() * (sizeof(Addr) + sizeof(std::uint32_t))
            + pcCount() * sizeof(PC);
    }

    /**
     * Iteration support: a proxy iterator materializing TraceRecords
     * on demand, so range-for call sites survived the SoA change.
     */
    class const_iterator
    {
      public:
        using iterator_category = std::forward_iterator_tag;
        using value_type = TraceRecord;
        using difference_type = std::ptrdiff_t;
        using pointer = const TraceRecord *;
        using reference = TraceRecord;

        const_iterator(const Trace *t, std::size_t i)
            : trace(t), index(i)
        {}

        TraceRecord operator*() const { return (*trace)[index]; }

        const_iterator &
        operator++()
        {
            ++index;
            return *this;
        }

        const_iterator
        operator++(int)
        {
            const_iterator prev = *this;
            ++index;
            return prev;
        }

        bool
        operator==(const const_iterator &o) const
        {
            return index == o.index;
        }

        bool
        operator!=(const const_iterator &o) const
        {
            return index != o.index;
        }

      private:
        const Trace *trace;
        std::size_t index;
    };

    const_iterator begin() const { return {this, 0}; }
    const_iterator end() const { return {this, size()}; }

  private:
    BulkVector<Addr> addrs;
    BulkVector<std::uint32_t> metas; ///< packed gap/flags/PC index
    std::vector<PC> pcs;             ///< the PC table
    FlatMap<PC, std::uint32_t> pcIndex; ///< PC -> index into pcs
    std::uint64_t totalInsts = 0;

    /** Add @p pc to the table; throws past kMaxPcs distinct PCs. */
    std::uint32_t addPc(PC pc);
};

} // namespace prophet::trace

#endif // PROPHET_TRACE_TRACE_HH
