#include "trace/trace.hh"

#include <algorithm>
#include <string>

#include "common/error.hh"

namespace prophet::trace
{

std::uint32_t
Trace::addPc(PC pc)
{
    if (pcs.size() == kMaxPcs)
        throw Error(ErrorCode::Internal,
                    "trace: more than " + std::to_string(kMaxPcs)
                        + " distinct PCs; the record meta word holds "
                          "a 14-bit PC-table index");
    const auto index = static_cast<std::uint32_t>(pcs.size());
    pcs.push_back(pc);
    pcIndex.emplace(pc, index);
    return index;
}

bool
Trace::adopt(BulkVector<Addr> addrs_in,
             BulkVector<std::uint32_t> metas_in,
             std::vector<PC> pc_table)
{
    const std::size_t n = metas_in.size();
    if (addrs_in.size() != n || pc_table.size() > kMaxPcs)
        return false;
    // One pass the compiler can vectorize: the gap sum accumulates
    // into a 32-bit partial per chunk (32768 gaps of <= 0xffff
    // cannot overflow), so the reduction stays in vector width, and
    // the largest PC index rides along.
    constexpr std::size_t kSumChunk = 32768;
    std::uint64_t gaps = 0;
    std::uint32_t max_index = 0;
    for (std::size_t base = 0; base < n; base += kSumChunk) {
        const std::size_t end = std::min(n, base + kSumChunk);
        std::uint32_t part = 0;
        for (std::size_t i = base; i < end; ++i) {
            part += metas_in[i] & kGapMask;
            max_index = std::max(max_index, pcIndexOf(metas_in[i]));
        }
        gaps += part;
    }
    if (n > 0 && max_index >= pc_table.size())
        return false;

    addrs = std::move(addrs_in);
    metas = std::move(metas_in);
    pcs = std::move(pc_table);
    pcIndex.clear();
    for (std::size_t i = 0; i < pcs.size(); ++i)
        pcIndex.emplace(pcs[i], static_cast<std::uint32_t>(i));
    totalInsts = gaps + n;
    return true;
}

} // namespace prophet::trace
