#include "mem/replacement.hh"

#include <limits>

#include "common/intmath.hh"
#include "common/log.hh"

namespace prophet::mem
{

// ---------------------------------------------------------------- LRU

namespace
{

/** One set bit at the bottom of every nibble / byte. */
constexpr std::uint64_t kNibbleOnes = 0x1111111111111111ULL;
constexpr std::uint64_t kByteOnes = 0x0101010101010101ULL;
constexpr std::uint64_t kByteLow = 0x0f0f0f0f0f0f0f0fULL;
constexpr std::uint64_t kByteBit4 = 0x1010101010101010ULL;

/**
 * Bit 4r of the result is set iff nibble r of @p order lies in
 * [lo, hi]. Each half of the nibbles is spread into byte lanes, where
 * x + 16 - lo and 16 + hi - x stay within [1, 31] (no carry or
 * borrow crosses a lane) and reach bit 4 exactly when x >= lo and
 * x <= hi.
 */
std::uint64_t
nibblesInRange(std::uint64_t order, unsigned lo, unsigned hi)
{
    auto lanes = [&](std::uint64_t x) {
        const std::uint64_t ge = x + (16 - lo) * kByteOnes;
        const std::uint64_t le = (16 + hi) * kByteOnes - x;
        return ge & le & kByteBit4;
    };
    return (lanes(order & kByteLow) >> 4)
        | lanes((order >> 4) & kByteLow);
}

} // anonymous namespace

void
LruPolicy::reset(unsigned num_sets, unsigned assoc)
{
    numWays = assoc;
    if (assoc <= kMaxPackedWays) {
        // Ranks 0..assoc-1 hold ways 0..assoc-1; higher nibbles stay
        // zero.
        const std::uint64_t used = assoc == kMaxPackedWays
            ? ~std::uint64_t{0}
            : (std::uint64_t{1} << (4 * assoc)) - 1;
        rankBits = kNibbleOnes & used;
        order.assign(num_sets, 0xfedcba9876543210ULL & used);
        stamps.clear();
    } else {
        clock = 0;
        stamps.assign(static_cast<std::size_t>(num_sets) * assoc, 0);
        order.clear();
    }
}

void
LruPolicy::touch(unsigned set, unsigned way)
{
    if (!stamps.empty()) {
        stamps[static_cast<std::size_t>(set) * numWays + way] = ++clock;
        return;
    }
    // Find the rank holding `way` (the one zero nibble of the XOR),
    // close the gap above it, and put the way on top.
    std::uint64_t &o = order[set];
    const std::uint64_t x = o ^ (way * kNibbleOnes);
    const std::uint64_t nonzero =
        (x | (x >> 1) | (x >> 2) | (x >> 3)) & kNibbleOnes;
    const unsigned shift = static_cast<unsigned>(
        __builtin_ctzll(~nonzero & rankBits));
    const std::uint64_t below = o & ((std::uint64_t{1} << shift) - 1);
    const std::uint64_t above = (o >> shift) >> 4;
    o = below | (above << shift)
        | (static_cast<std::uint64_t>(way) << (4 * (numWays - 1)));
}

void
LruPolicy::insert(unsigned set, unsigned way)
{
    touch(set, way);
}

unsigned
LruPolicy::victim(unsigned set, const unsigned *cands, unsigned n)
{
    prophet_assert(n > 0);
    if (!stamps.empty()) {
        unsigned best = cands[0];
        std::uint64_t best_stamp =
            std::numeric_limits<std::uint64_t>::max();
        for (unsigned i = 0; i < n; ++i) {
            unsigned way = cands[i];
            std::uint64_t s =
                stamps[static_cast<std::size_t>(set) * numWays + way];
            if (s < best_stamp) {
                best_stamp = s;
                best = way;
            }
        }
        return best;
    }

    const std::uint64_t o = order[set];
    const unsigned lo = cands[0];
    const unsigned hi = cands[n - 1];
    if (hi - lo + 1 == n) {
        // Ascending and distinct, so the span is the contiguous run
        // [lo, hi] — the cache's demand-way suffix, or all ways.
        const std::uint64_t member =
            nibblesInRange(o, lo, hi) & rankBits;
        return static_cast<unsigned>(
            (o >> __builtin_ctzll(member)) & 0xf);
    }
    // A sparse candidate list: walk up from the LRU rank.
    unsigned ways = 0;
    for (unsigned i = 0; i < n; ++i)
        ways |= 1u << cands[i];
    for (unsigned r = 0;; ++r) {
        const unsigned way =
            static_cast<unsigned>((o >> (4 * r)) & 0xf);
        if (ways & (1u << way))
            return way;
    }
}

// ----------------------------------------------------------- TreePLRU

void
TreePlruPolicy::reset(unsigned num_sets, unsigned assoc)
{
    prophet_assert(isPowerOf2(assoc));
    numWays = assoc;
    bits.assign(static_cast<std::size_t>(num_sets) * (assoc - 1), 0);
    fallback.reset(num_sets, assoc);
}

void
TreePlruPolicy::touchPath(unsigned set, unsigned way)
{
    // Walk from the root; at each node flip the bit to point away
    // from the touched way.
    std::size_t base = static_cast<std::size_t>(set) * (numWays - 1);
    unsigned node = 0;
    unsigned lo = 0, hi = numWays;
    while (hi - lo > 1) {
        unsigned mid = (lo + hi) / 2;
        bool right = way >= mid;
        bits[base + node] = right ? 0 : 1; // point to the other half
        node = 2 * node + (right ? 2 : 1);
        if (right)
            lo = mid;
        else
            hi = mid;
    }
}

unsigned
TreePlruPolicy::followTree(unsigned set) const
{
    std::size_t base = static_cast<std::size_t>(set) * (numWays - 1);
    unsigned node = 0;
    unsigned lo = 0, hi = numWays;
    while (hi - lo > 1) {
        unsigned mid = (lo + hi) / 2;
        bool right = bits[base + node] != 0;
        node = 2 * node + (right ? 2 : 1);
        if (right)
            lo = mid;
        else
            hi = mid;
    }
    return lo;
}

void
TreePlruPolicy::touch(unsigned set, unsigned way)
{
    touchPath(set, way);
    fallback.touch(set, way);
}

void
TreePlruPolicy::insert(unsigned set, unsigned way)
{
    touch(set, way);
}

unsigned
TreePlruPolicy::victim(unsigned set, const unsigned *cands, unsigned n)
{
    prophet_assert(n > 0);
    unsigned preferred = followTree(set);
    for (unsigned i = 0; i < n; ++i)
        if (cands[i] == preferred)
            return preferred;
    // The tree's preference is outside the candidate restriction;
    // fall back to timestamp LRU among candidates.
    return fallback.victim(set, cands, n);
}

// -------------------------------------------------------------- SRRIP

namespace
{

/**
 * The RRIP victim over one set's RRPVs: the first candidate at
 * max_rrpv, after aging every candidate until one gets there. Rounds
 * of "+1 to all" end when the candidate with the highest RRPV reaches
 * max_rrpv, so two passes do the same: find the first candidate with
 * the highest RRPV, then add the rounds it needs to every candidate.
 * No candidate passes max_rrpv, since none was above that highest.
 */
unsigned
rripVictim(std::uint8_t *rrpv, std::uint8_t max_rrpv,
           const unsigned *cands, unsigned n)
{
    prophet_assert(n > 0);
    unsigned best = 0;
    for (unsigned i = 1; i < n && rrpv[cands[best]] < max_rrpv; ++i)
        if (rrpv[cands[i]] > rrpv[cands[best]])
            best = i;
    const std::uint8_t age =
        static_cast<std::uint8_t>(max_rrpv - rrpv[cands[best]]);
    if (age > 0) {
        for (unsigned i = 0; i < n; ++i)
            rrpv[cands[i]] =
                static_cast<std::uint8_t>(rrpv[cands[i]] + age);
    }
    return cands[best];
}

} // anonymous namespace

SrripPolicy::SrripPolicy(unsigned rrpv_bits)
    : maxRrpv(static_cast<std::uint8_t>((1u << rrpv_bits) - 1))
{
    prophet_assert(rrpv_bits >= 1 && rrpv_bits <= 8);
}

void
SrripPolicy::reset(unsigned num_sets, unsigned assoc)
{
    numWays = assoc;
    rrpvs.assign(static_cast<std::size_t>(num_sets) * assoc, maxRrpv);
}

void
SrripPolicy::touch(unsigned set, unsigned way)
{
    rrpvs[static_cast<std::size_t>(set) * numWays + way] = 0;
}

void
SrripPolicy::insert(unsigned set, unsigned way)
{
    rrpvs[static_cast<std::size_t>(set) * numWays + way] =
        static_cast<std::uint8_t>(maxRrpv - 1);
}

unsigned
SrripPolicy::victim(unsigned set, const unsigned *cands, unsigned n)
{
    return rripVictim(
        rrpvs.data() + static_cast<std::size_t>(set) * numWays, maxRrpv,
        cands, n);
}

std::uint8_t
SrripPolicy::rrpv(unsigned set, unsigned way) const
{
    return rrpvs[static_cast<std::size_t>(set) * numWays + way];
}

// -------------------------------------------------------------- BRRIP

BrripPolicy::BrripPolicy(double long_insert_prob)
    : longProb(long_insert_prob), rng(0xb1e55edULL)
{}

void
BrripPolicy::reset(unsigned num_sets, unsigned assoc)
{
    numWays = assoc;
    rrpvs.assign(static_cast<std::size_t>(num_sets) * assoc, maxRrpv);
}

void
BrripPolicy::touch(unsigned set, unsigned way)
{
    rrpvs[static_cast<std::size_t>(set) * numWays + way] = 0;
}

void
BrripPolicy::insert(unsigned set, unsigned way)
{
    bool long_rrpv = !rng.chance(longProb);
    rrpvs[static_cast<std::size_t>(set) * numWays + way] =
        static_cast<std::uint8_t>(long_rrpv ? maxRrpv : maxRrpv - 1);
}

unsigned
BrripPolicy::victim(unsigned set, const unsigned *cands, unsigned n)
{
    return rripVictim(
        rrpvs.data() + static_cast<std::size_t>(set) * numWays, maxRrpv,
        cands, n);
}

// ------------------------------------------------------------- Random

RandomPolicy::RandomPolicy(std::uint64_t seed)
    : rng(seed)
{}

void
RandomPolicy::reset(unsigned, unsigned)
{}

void
RandomPolicy::touch(unsigned, unsigned)
{}

void
RandomPolicy::insert(unsigned, unsigned)
{}

unsigned
RandomPolicy::victim(unsigned, const unsigned *cands, unsigned n)
{
    prophet_assert(n > 0);
    return cands[rng.below(n)];
}

// ------------------------------------------------------------ factory

std::unique_ptr<ReplacementPolicy>
makePolicy(const std::string &name)
{
    if (name == "lru")
        return std::make_unique<LruPolicy>();
    if (name == "plru")
        return std::make_unique<TreePlruPolicy>();
    if (name == "srrip")
        return std::make_unique<SrripPolicy>();
    if (name == "brrip")
        return std::make_unique<BrripPolicy>();
    if (name == "random")
        return std::make_unique<RandomPolicy>();
    prophet_fatal("unknown replacement policy name");
}

} // namespace prophet::mem
