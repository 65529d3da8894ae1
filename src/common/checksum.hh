/**
 * @file
 * FNV-1a 64-bit checksums. One implementation shared by the spec
 * hasher (content-addressed experiment identity) and the trace-cache
 * file format (per-array integrity verification): dependency-free, a
 * few instructions per byte, and byte-order independent because it
 * hashes the serialized bytes themselves.
 *
 * FNV-1a is an integrity check against torn writes and bit rot, not
 * a cryptographic MAC — a deliberate corruption could forge it, but
 * the threat model here is a crashed writer or a flaky disk.
 */

#ifndef PROPHET_COMMON_CHECKSUM_HH
#define PROPHET_COMMON_CHECKSUM_HH

#include <cstddef>
#include <cstdint>

namespace prophet
{

constexpr std::uint64_t kFnv1a64Offset = 1469598103934665603ull;
constexpr std::uint64_t kFnv1a64Prime = 1099511628211ull;

/** FNV-1a 64 over a byte range, continuing from @p seed. */
inline std::uint64_t
fnv1a64(const void *data, std::size_t bytes,
        std::uint64_t seed = kFnv1a64Offset)
{
    const unsigned char *p = static_cast<const unsigned char *>(data);
    std::uint64_t h = seed;
    for (std::size_t i = 0; i < bytes; ++i) {
        h ^= p[i];
        h *= kFnv1a64Prime;
    }
    return h;
}

} // namespace prophet

#endif // PROPHET_COMMON_CHECKSUM_HH
