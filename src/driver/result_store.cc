#include "driver/result_store.hh"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>

#include <unistd.h>

#include "common/checksum.hh"
#include "common/fault_injection.hh"
#include "common/log.hh"
#include "common/metrics.hh"
#include "core/profile.hh"
#include "driver/json.hh"

namespace fs = std::filesystem;

namespace prophet::driver
{

namespace
{

constexpr std::uint32_t kEntryMagic = 0x31535250; // "PRS1"
constexpr std::uint32_t kFormatVersion = 1;
constexpr const char *kSubdir = "/results";
constexpr const char *kExtension = ".prs";

// magic, version, key length, checksum: the smallest well-formed
// prefix a reader needs before it can trust anything else.
constexpr std::size_t kMinEntryBytes = 4 + 4 + 4 + 8;

// Largest entry get() will read. Generous: the dominant cost is the
// per-PC miss map at 16 bytes/PC, so this covers ~4M distinct miss
// PCs — far beyond any workload here — while still bounding a
// corrupt or foreign file.
constexpr std::uintmax_t kMaxEntryBytes = 64u << 20;

/** Append-only byte buffer with fixed-width little helpers. */
struct ByteWriter
{
    std::string buf;

    void
    raw(const void *p, std::size_t n)
    {
        buf.append(static_cast<const char *>(p), n);
    }

    void put8(std::uint8_t v) { raw(&v, 1); }
    void put32(std::uint32_t v) { raw(&v, 4); }
    void put64(std::uint64_t v) { raw(&v, 8); }

    /** Doubles as raw bit patterns: bit-exact round-trip. */
    void
    putDouble(double v)
    {
        static_assert(sizeof(double) == 8, "64-bit doubles required");
        raw(&v, 8);
    }

    void
    putString(const std::string &s)
    {
        put32(static_cast<std::uint32_t>(s.size()));
        raw(s.data(), s.size());
    }
};

/** Bounds-checked reader over one entry. */
struct ByteReader
{
    const char *p;
    std::size_t left;

    void
    raw(void *out, std::size_t n)
    {
        if (n > left)
            throw std::runtime_error("entry payload truncated");
        std::memcpy(out, p, n);
        p += n;
        left -= n;
    }

    std::uint8_t
    get8()
    {
        std::uint8_t v;
        raw(&v, 1);
        return v;
    }

    std::uint32_t
    get32()
    {
        std::uint32_t v;
        raw(&v, 4);
        return v;
    }

    std::uint64_t
    get64()
    {
        std::uint64_t v;
        raw(&v, 8);
        return v;
    }

    double
    getDouble()
    {
        double v;
        raw(&v, 8);
        return v;
    }

    std::string
    getString()
    {
        std::uint32_t n = get32();
        if (n > left)
            throw std::runtime_error("entry string truncated");
        std::string s(p, n);
        p += n;
        left -= n;
        return s;
    }
};

// A new RunStats field that encode/decode do not carry would be
// silently zero on every store hit. The size pins the struct (x86-64
// LP64 layout): when it changes, update the serializer, then this.
static_assert(sizeof(sim::RunStats) == 272,
              "sim::RunStats changed: update the serializer "
              "(encode/decode of RunStats) and this size");

/**
 * The full RunStats, field by field. Every statistic a sink or a
 * downstream pipeline can consume must round-trip bit-exactly — the
 * per-PC miss map included, because RPG2 kernel identification reads
 * the *baseline's* pcMisses — or a served result would diverge from
 * a simulated one.
 */
void
encode(ByteWriter &w, const sim::RunStats &s)
{
    w.putDouble(s.ipc);
    w.put64(s.cycles);
    w.put64(s.instructions);
    w.put64(s.records);
    w.put64(s.l1Misses);
    w.put64(s.l2DemandAccesses);
    w.put64(s.l2DemandMisses);
    w.put64(s.llcMisses);
    w.put64(s.l2PrefetchesIssued);
    w.put64(s.l2PrefetchesUseful);
    w.put64(s.latePrefetches);
    w.put64(s.dramReads);
    w.put64(s.dramWrites);
    w.put64(s.dramPrefetchReads);
    w.put64(s.markov.lookups);
    w.put64(s.markov.hits);
    w.put64(s.markov.inserts);
    w.put64(s.markov.updates);
    w.put64(s.markov.replacements);
    w.put64(s.markov.resizeDrops);
    w.put32(s.finalMetadataWays);
    w.put8(s.sampled ? 1 : 0);
    w.put64(s.sampledRecords);
    w.putDouble(s.sampleScale);
    w.put64(s.offchipMeta.metadataReads);
    w.put64(s.offchipMeta.metadataWrites);
    w.put64(s.l1Accesses);
    w.put64(s.l2Accesses);
    w.put64(s.llcAccesses);
    // Insertion order is FlatMap's iteration order, so the served
    // map iterates identically to the original.
    w.put64(s.pcMisses.size());
    for (const auto &[pc, count] : s.pcMisses) {
        w.put64(static_cast<std::uint64_t>(pc));
        w.put64(count);
    }
}

void
decode(ByteReader &r, sim::RunStats &s)
{
    s.ipc = r.getDouble();
    s.cycles = r.get64();
    s.instructions = r.get64();
    s.records = r.get64();
    s.l1Misses = r.get64();
    s.l2DemandAccesses = r.get64();
    s.l2DemandMisses = r.get64();
    s.llcMisses = r.get64();
    s.l2PrefetchesIssued = r.get64();
    s.l2PrefetchesUseful = r.get64();
    s.latePrefetches = r.get64();
    s.dramReads = r.get64();
    s.dramWrites = r.get64();
    s.dramPrefetchReads = r.get64();
    s.markov.lookups = r.get64();
    s.markov.hits = r.get64();
    s.markov.inserts = r.get64();
    s.markov.updates = r.get64();
    s.markov.replacements = r.get64();
    s.markov.resizeDrops = r.get64();
    s.finalMetadataWays = r.get32();
    s.sampled = r.get8() != 0;
    s.sampledRecords = r.get64();
    s.sampleScale = r.getDouble();
    s.offchipMeta.metadataReads = r.get64();
    s.offchipMeta.metadataWrites = r.get64();
    s.l1Accesses = r.get64();
    s.l2Accesses = r.get64();
    s.llcAccesses = r.get64();
    std::uint64_t n = r.get64();
    // 16 bytes per pair: a corrupt count cannot out-allocate the
    // payload it must fit inside.
    if (n > r.left / 16)
        throw std::runtime_error("pc-miss map count exceeds payload");
    s.pcMisses.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) {
        std::uint64_t pc = r.get64();
        s.pcMisses.emplace(static_cast<PC>(pc), r.get64());
    }
}

// Same guard for the profile payload's per-PC record.
static_assert(sizeof(core::PcProfile) == 24,
              "core::PcProfile changed: update the serializer "
              "(encode/decode of ProfileSnapshot) and this size");

/**
 * A Prophet profile: allocatedEntries, then perPc in insertion
 * order, so the analyzer and learner iterate a served profile in
 * the order they would iterate the simulated one.
 */
void
encode(ByteWriter &w, const core::ProfileSnapshot &p)
{
    w.put64(p.allocatedEntries);
    w.put64(p.perPc.size());
    for (const auto &[pc, prof] : p.perPc) {
        w.put64(static_cast<std::uint64_t>(pc));
        w.putDouble(prof.accuracy);
        w.put64(prof.issuedPrefetches);
        w.put64(prof.l2Misses);
    }
}

void
decode(ByteReader &r, core::ProfileSnapshot &p)
{
    p.allocatedEntries = r.get64();
    std::uint64_t n = r.get64();
    if (n > r.left / 32)
        throw std::runtime_error("per-PC profile count exceeds payload");
    p.perPc.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) {
        const PC pc = static_cast<PC>(r.get64());
        core::PcProfile prof;
        prof.accuracy = r.getDouble();
        prof.issuedPrefetches = r.get64();
        prof.l2Misses = r.get64();
        p.perPc.emplace(pc, prof);
    }
}

bool
isEntry(const fs::path &p)
{
    return p.extension() == kExtension;
}

} // anonymous namespace

ResultStore::ResultStore(const std::string &cache_dir,
                         std::uint64_t model_fingerprint)
    : dirPath(cache_dir + kSubdir), model(model_fingerprint)
{
    // Registered up front so a --metrics-out report shows all four,
    // zeros included.
    for (const char *name : {"store.hits", "store.misses",
                             "store.writes", "store.corrupt"})
        metrics::counter(name);
}

std::uint64_t
ResultStore::executableFingerprint()
{
    static const std::uint64_t fingerprint = [] {
        std::FILE *in = std::fopen("/proc/self/exe", "rb");
        if (!in)
            return std::uint64_t{0};
        std::uint64_t h = kFnv1a64Offset;
        char chunk[1 << 16];
        std::size_t n;
        while ((n = std::fread(chunk, 1, sizeof(chunk), in)) > 0)
            h = fnv1a64(chunk, n, h);
        bool ok = !std::ferror(in);
        std::fclose(in);
        return ok ? h : std::uint64_t{0};
    }();
    return fingerprint;
}

std::string
ResultStore::keyText(const json::Value &identity) const
{
    json::Value key = identity;
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(model));
    key.set("model", json::Value(std::string(hex)));
    return json::dump(key);
}

std::string
ResultStore::path(const std::string &key_text) const
{
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(
                      fnv1a64(key_text.data(), key_text.size())));
    return dirPath + "/" + hex + kExtension;
}

std::optional<sim::RunStats>
ResultStore::get(const json::Value &identity)
{
    return load<sim::RunStats>(identity);
}

std::optional<core::ProfileSnapshot>
ResultStore::getProfile(const json::Value &identity)
{
    return load<core::ProfileSnapshot>(identity);
}

bool
ResultStore::put(const json::Value &identity,
                 const sim::RunStats &stats)
{
    return save(identity, stats);
}

bool
ResultStore::put(const json::Value &identity,
                 const core::ProfileSnapshot &profile)
{
    return save(identity, profile);
}

template <class T>
std::optional<T>
ResultStore::load(const json::Value &identity)
{
    const std::string key = keyText(identity);
    const std::string file = path(key);
    std::error_code ec;
    const std::uintmax_t size = fs::file_size(file, ec);
    if (ec) {
        metrics::counter("store.misses").inc();
        return std::nullopt;
    }
    std::string bytes;
    if (size <= kMaxEntryBytes) {
        std::ifstream in(file, std::ios::binary);
        bytes.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
    }
    try {
        if (bytes.size() < kMinEntryBytes)
            throw std::runtime_error("entry truncated");
        const std::size_t body = bytes.size() - 8;
        std::uint64_t stored_sum;
        std::memcpy(&stored_sum, bytes.data() + body, 8);
        if (fnv1a64(bytes.data(), body) != stored_sum)
            throw std::runtime_error("checksum mismatch");
        ByteReader r{bytes.data(), body};
        if (r.get32() != kEntryMagic || r.get32() != kFormatVersion)
            throw std::runtime_error("not a v1 result entry");
        // A hash collision (or a renamed file) is a miss, never
        // another result.
        if (r.getString() != key)
            throw std::runtime_error("entry holds a different key");
        T value;
        decode(r, value);
        if (r.left != 0)
            throw std::runtime_error("trailing bytes");
        metrics::counter("store.hits").inc();
        return value;
    } catch (const std::exception &e) {
        metrics::counter("store.corrupt").inc();
        metrics::counter("store.misses").inc();
        prophet_warnf("store: %s: %s; recomputing", file.c_str(),
                      e.what());
        return std::nullopt;
    }
}

template <class T>
bool
ResultStore::save(const json::Value &identity, const T &value)
{
    const std::string key = keyText(identity);
    const std::string final_path = path(key);

    ByteWriter w;
    w.put32(kEntryMagic);
    w.put32(kFormatVersion);
    w.putString(key);
    encode(w, value);
    w.put64(fnv1a64(w.buf.data(), w.buf.size()));

    auto failed = [&](const char *why) {
        if (!writeFailedOnce.exchange(true))
            prophet_warnf("store: cannot write %s (%s); results of "
                          "this run will be recomputed next time",
                          final_path.c_str(), why);
        return false;
    };
    if (fault::shouldFail("store.write"))
        return failed("injected");
    std::error_code ec;
    fs::create_directories(dirPath, ec);
    if (ec)
        return failed(ec.message().c_str());

    // Unique temp name per write (pid + sequence): concurrent writers
    // — threads here, or processes sharing the directory — never
    // interleave, and rename is atomic within the directory.
    static std::atomic<unsigned long> seq{0};
    const std::string tmp = final_path + ".tmp"
        + std::to_string(static_cast<unsigned long>(::getpid())) + "."
        + std::to_string(seq.fetch_add(1));
    std::FILE *out = std::fopen(tmp.c_str(), "wb");
    if (!out)
        return failed("open failed");
    bool ok = std::fwrite(w.buf.data(), 1, w.buf.size(), out)
        == w.buf.size();
    ok = std::fclose(out) == 0 && ok;
    if (ok)
        fs::rename(tmp, final_path, ec);
    if (!ok || ec) {
        fs::remove(tmp, ec);
        return failed("write failed");
    }
    metrics::counter("store.writes").inc();
    return true;
}

ResultStore::Usage
ResultStore::usage(const std::string &cache_dir)
{
    Usage u;
    std::error_code ec;
    for (const auto &de :
         fs::directory_iterator(cache_dir + kSubdir, ec)) {
        if (!isEntry(de.path()))
            continue;
        ++u.entries;
        u.bytes += static_cast<std::uint64_t>(
            fs::file_size(de.path(), ec));
    }
    return u;
}

std::size_t
ResultStore::clear(const std::string &cache_dir)
{
    std::size_t removed = 0;
    std::error_code ec;
    const std::string dir = cache_dir + kSubdir;
    // Temp files of crashed writers go too; only entries count.
    for (const auto &de : fs::directory_iterator(dir, ec))
        if (fs::remove(de.path(), ec) && isEntry(de.path()))
            ++removed;
    fs::remove(dir, ec);
    return removed;
}

} // namespace prophet::driver
