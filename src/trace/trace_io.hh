/**
 * @file
 * Trace serialization: the binary format the trace cache stores
 * traces in, so a trace is generated once and reloaded by later
 * invocations.
 *
 * Binary format v4 mirrors the in-memory layout (trace/trace.hh) and
 * adds per-array integrity: after the header, one FNV-1a 64 checksum
 * per array, then the PC table, the addr array and the packed-meta
 * array written whole — three bulk fwrite calls. Loads read the
 * arrays back the same way and verify every checksum, so a
 * bit-flipped or torn entry is detected deterministically instead of
 * only when the header happens to be implausible; every PC index is
 * then checked against the table. v4 is the only format: any other
 * version's header (the retired v1-v3 included) loads as BadHeader,
 * which the trace cache treats like any other damaged entry and
 * regenerates.
 *
 * | v4 layout | bytes        | content                              |
 * |-----------|--------------|--------------------------------------|
 * | magic     | 4            | "PTRC"                               |
 * | version   | 4            | 4 (little-endian u32)                |
 * | count     | 8            | record count N (u64)                 |
 * | pcs       | 8            | PC-table length T <= 16384 (u64)     |
 * | cksum[3]  | 8 x 3        | FNV-1a 64 of pc[], addr[], meta[]    |
 * | pc[]      | 8 x T        | the PC table, first-appearance order |
 * | addr[]    | 8 x N        | byte address per record              |
 * | meta[]    | 4 x N        | instGap (bits 0-15), depends (16),   |
 * |           |              | write (17), PC index < T (18-31)     |
 *
 * Fault points (common/fault_injection.hh): "trace_io.fread" fails a
 * payload read, "trace_io.fwrite" fails a payload write (the
 * simulated-ENOSPC path) — both exercised by the recovery tests.
 */

#ifndef PROPHET_TRACE_TRACE_IO_HH
#define PROPHET_TRACE_TRACE_IO_HH

#include <cstdint>
#include <string>

#include "trace/trace.hh"

namespace prophet::trace
{

/** The binary-format version saveBinary writes and loadBinary reads. */
constexpr std::uint32_t kTraceFormatVersion = 4;

/** Why a binary load failed (or that it didn't). */
enum class LoadStatus
{
    Ok = 0,
    OpenFail,         ///< file missing or unreadable — not corruption
    BadHeader,        ///< magic/version/table size implausible
    Truncated,        ///< payload shorter than the header promises
    ReadFail,         ///< a read failed mid-payload (I/O error)
    ChecksumMismatch, ///< an array checksum did not verify
    BadPcIndex,       ///< a record's PC index is past the table
};

/** Human-readable name of a LoadStatus ("checksum-mismatch", ...). */
const char *loadStatusName(LoadStatus status);

/** Everything a binary load can report beyond success. */
struct LoadReport
{
    LoadStatus status = LoadStatus::OpenFail;
    std::uint32_t version = 0; ///< format version (0 = unknown)
    /** Byte offset of the failing structure (kNoOffset = n/a). */
    std::uint64_t offset = ~std::uint64_t{0};

    bool ok() const { return status == LoadStatus::Ok; }

    /**
     * The file exists but its contents are damaged — the states the
     * trace cache quarantines rather than silently regenerates over.
     */
    bool
    corrupt() const
    {
        return status == LoadStatus::BadHeader
            || status == LoadStatus::Truncated
            || status == LoadStatus::ChecksumMismatch
            || status == LoadStatus::BadPcIndex;
    }
};

/**
 * Write a trace in the current (v4, checksummed) binary format.
 * Returns false on I/O failure.
 */
bool saveBinary(const Trace &t, const std::string &path);

/**
 * Read a binary trace written by saveBinary. Returns an empty trace
 * and false on failure or format mismatch.
 */
bool loadBinary(Trace &out, const std::string &path);

/**
 * As loadBinary, but reports *why* a load failed: the trace cache
 * uses the distinction between "file absent" (a plain miss) and
 * "file damaged" (quarantine the entry) to pick its recovery path.
 */
bool loadBinary(Trace &out, const std::string &path,
                LoadReport &report);

} // namespace prophet::trace

#endif // PROPHET_TRACE_TRACE_IO_HH
