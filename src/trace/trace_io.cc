#include "trace/trace_io.hh"

#include <cstdio>
#include <cstring>
#include <memory>

#include "common/checksum.hh"
#include "common/fault_injection.hh"

namespace prophet::trace
{

namespace
{

constexpr char kMagic[4] = {'P', 'T', 'R', 'C'};

/**
 * Bytes of the v4 header: magic and version, then five u64 fields —
 * record count, PC-table length and the three array checksums.
 */
constexpr std::size_t kHeaderFields = 5;
constexpr long kHeaderBytes =
    8 + static_cast<long>(kHeaderFields * sizeof(std::uint64_t));

/** Per-record payload bytes: addr[] and meta[]. */
constexpr std::uint64_t kRecordBytes =
    sizeof(Addr) + sizeof(std::uint32_t);

struct FileCloser
{
    void operator()(std::FILE *f) const
    {
        if (f)
            std::fclose(f);
    }
};

using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

/**
 * The named fault points: injectedFread/injectedFwrite behave
 * exactly like a short read/write at the call site, so the recovery
 * paths under test are the real ones, not simulated copies.
 */
std::size_t
injectedFread(void *dst, std::size_t size, std::size_t n,
              std::FILE *f)
{
    if (fault::shouldFail("trace_io.fread"))
        return 0;
    return std::fread(dst, size, n, f);
}

std::size_t
injectedFwrite(const void *src, std::size_t size, std::size_t n,
               std::FILE *f)
{
    if (fault::shouldFail("trace_io.fwrite"))
        return 0; // simulated ENOSPC: nothing written
    return std::fwrite(src, size, n, f);
}

/**
 * The v4 payload reader. @p checksums holds the three header
 * checksums and each array is verified after its bulk read; a
 * mismatch reports ChecksumMismatch at the offending array's offset.
 * The untrusted header lengths are checked against the file size
 * before any allocation, so a corrupted header fails cleanly instead
 * of throwing std::length_error.
 */
void
loadPayload(Trace &out, std::FILE *f, std::uint64_t count,
            std::uint64_t pc_count, const std::uint64_t *checksums,
            LoadReport &report)
{
    report.status = LoadStatus::Truncated;
    report.offset = static_cast<std::uint64_t>(kHeaderBytes);
    if (std::fseek(f, 0, SEEK_END) != 0)
        return;
    const long file_size = std::ftell(f);
    if (file_size < kHeaderBytes
        || std::fseek(f, kHeaderBytes, SEEK_SET) != 0)
        return;
    const auto payload =
        static_cast<std::uint64_t>(file_size - kHeaderBytes);
    const std::uint64_t table_bytes = pc_count * sizeof(PC);
    if (payload < table_bytes
        || (payload - table_bytes) / kRecordBytes < count)
        return;

    // BulkVector sizing leaves the elements uninitialized: fread is
    // the first touch of every page, not a value-init memset.
    std::vector<PC> pcs(pc_count);
    Trace::BulkVector<Addr> addrs(count);
    Trace::BulkVector<std::uint32_t> metas(count);
    struct ArrayDesc
    {
        void *data;
        std::size_t elemSize;
        std::uint64_t elems;
    };
    const ArrayDesc arrays[3] = {
        {pcs.data(), sizeof(PC), pc_count},
        {addrs.data(), sizeof(Addr), count},
        {metas.data(), sizeof(std::uint32_t), count},
    };
    std::uint64_t offset = static_cast<std::uint64_t>(kHeaderBytes);
    for (int a = 0; a < 3; ++a) {
        const ArrayDesc &arr = arrays[a];
        report.offset = offset;
        if (arr.elems > 0
            && injectedFread(arr.data, arr.elemSize, arr.elems, f)
                != arr.elems) {
            report.status = LoadStatus::ReadFail;
            return;
        }
        if (fnv1a64(arr.data, arr.elemSize * arr.elems)
            != checksums[a]) {
            report.status = LoadStatus::ChecksumMismatch;
            return;
        }
        offset += arr.elemSize * arr.elems;
    }
    // report.offset is now the meta array's: adopt() rejects a
    // record whose PC index is past the table.
    if (!out.adopt(std::move(addrs), std::move(metas),
                   std::move(pcs))) {
        report.status = LoadStatus::BadPcIndex;
        return;
    }
    report.status = LoadStatus::Ok;
    report.offset = LoadReport{}.offset;
}

} // anonymous namespace

const char *
loadStatusName(LoadStatus status)
{
    switch (status) {
      case LoadStatus::Ok:
        return "ok";
      case LoadStatus::OpenFail:
        return "open-fail";
      case LoadStatus::BadHeader:
        return "bad-header";
      case LoadStatus::Truncated:
        return "truncated";
      case LoadStatus::ReadFail:
        return "read-fail";
      case LoadStatus::ChecksumMismatch:
        return "checksum-mismatch";
      case LoadStatus::BadPcIndex:
        return "bad-pc-index";
    }
    return "unknown";
}

bool
saveBinary(const Trace &t, const std::string &path)
{
    FilePtr f(std::fopen(path.c_str(), "wb"));
    if (!f)
        return false;
    const std::uint32_t version = kTraceFormatVersion;
    const std::uint64_t count = t.size();
    const std::uint64_t pc_count = t.pcCount();
    const std::uint64_t fields[kHeaderFields] = {
        count,
        pc_count,
        fnv1a64(t.pcTable(), sizeof(PC) * pc_count),
        fnv1a64(t.addrData(), sizeof(Addr) * count),
        fnv1a64(t.metaData(), sizeof(std::uint32_t) * count),
    };
    if (injectedFwrite(kMagic, 1, 4, f.get()) != 4
        || injectedFwrite(&version, sizeof(version), 1, f.get()) != 1
        || injectedFwrite(fields, sizeof(std::uint64_t), kHeaderFields,
                          f.get())
            != kHeaderFields)
        return false;
    return (pc_count == 0
            || injectedFwrite(t.pcTable(), sizeof(PC), pc_count,
                              f.get())
                == pc_count)
        && (count == 0
            || (injectedFwrite(t.addrData(), sizeof(Addr), count,
                               f.get())
                    == count
                && injectedFwrite(t.metaData(), sizeof(std::uint32_t),
                                  count, f.get())
                    == count));
}

bool
loadBinary(Trace &out, const std::string &path, LoadReport &report)
{
    out = Trace{};
    report = LoadReport{};
    FilePtr f(std::fopen(path.c_str(), "rb"));
    if (!f) {
        report.status = LoadStatus::OpenFail;
        return false;
    }
    // Header reads stay on plain fread: the "trace_io.fread" fault
    // point covers *payload* reads (a short header is BadHeader
    // territory, and must not be conflated with a transient I/O
    // error the caller might retry).
    char magic[4];
    std::uint32_t version = 0;
    std::uint64_t fields[kHeaderFields];
    report.status = LoadStatus::BadHeader;
    report.offset = 0;
    if (std::fread(magic, 1, 4, f.get()) == 4
        && std::memcmp(magic, kMagic, 4) == 0
        && std::fread(&version, sizeof(version), 1, f.get()) == 1) {
        report.version = version;
        // Any other version — including the retired v1-v3 — is a
        // bad header: the caller (the trace cache) treats it like
        // any other unreadable entry and regenerates.
        report.offset = 4;
        if (version == kTraceFormatVersion) {
            report.offset = 8;
            if (std::fread(fields, sizeof(std::uint64_t), kHeaderFields,
                           f.get())
                == kHeaderFields) {
                report.offset = 16; // the PC-table length
                if (fields[1] <= Trace::kMaxPcs)
                    loadPayload(out, f.get(), fields[0], fields[1],
                                fields + 2, report);
            }
        }
    }
    if (!report.ok()) {
        out = Trace{};
        return false;
    }
    return true;
}

bool
loadBinary(Trace &out, const std::string &path)
{
    LoadReport report;
    return loadBinary(out, path, report);
}

} // namespace prophet::trace
