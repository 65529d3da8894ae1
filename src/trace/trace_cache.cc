#include "trace/trace_cache.hh"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>
#include <sys/file.h>
#include <unistd.h>

#include "common/fault_injection.hh"
#include "common/log.hh"
#include "common/metrics.hh"
#include "trace/trace_io.hh"

namespace fs = std::filesystem;

namespace prophet::trace
{

namespace
{

/**
 * Registry adoption of the per-instance Stats counters: the same
 * increments also land in process-wide "trace_cache.*" metrics, so
 * `prophet run --metrics-out` reports cache behaviour without
 * plumbing TraceCache pointers through the driver. Looked up once.
 */
struct CacheMetrics
{
    metrics::Counter &hits = metrics::counter("trace_cache.hits");
    metrics::Counter &misses = metrics::counter("trace_cache.misses");
    metrics::Counter &stores = metrics::counter("trace_cache.stores");
    metrics::Counter &checksumFailures =
        metrics::counter("trace_cache.checksum_failures");
    metrics::Counter &quarantines =
        metrics::counter("trace_cache.quarantines");
    metrics::Counter &lockContention =
        metrics::counter("trace_cache.lock_contention");
    metrics::Counter &storeFailures =
        metrics::counter("trace_cache.store_failures");

    static CacheMetrics &
    get()
    {
        static CacheMetrics m;
        return m;
    }
};

constexpr const char *kLockName = ".lock";
constexpr const char *kCountersName = "cache-counters.txt";

/**
 * Workload labels become file names; anything outside the portable
 * set maps to '_' ("soplex_pds-50" is fine as-is).
 */
std::string
sanitize(const std::string &name)
{
    std::string out = name;
    for (char &c : out) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
            || (c >= '0' && c <= '9') || c == '_' || c == '-'
            || c == '.';
        if (!ok)
            c = '_';
    }
    return out;
}

/** Binary-format version from a .ptrc header (0 when unreadable). */
std::uint32_t
fileVersion(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return 0;
    char magic[4];
    std::uint32_t version = 0;
    bool ok = std::fread(magic, 1, 4, f) == 4
        && std::memcmp(magic, "PTRC", 4) == 0
        && std::fread(&version, sizeof(version), 1, f) == 1;
    std::fclose(f);
    return ok ? version : 0;
}

/**
 * The cross-process writer lock: flock(2) on "<dir>/.lock".
 * Advisory and automatically released when the holding process
 * dies, so there is no stale-lock state to recover from. Best
 * effort: if the lock file cannot even be opened (read-only
 * directory), writers proceed unlocked — the temp+rename store is
 * still atomic, the lock only serializes the writers.
 */
class DirLock
{
  public:
    explicit DirLock(const std::string &dir)
    {
        std::string path = dir + "/" + kLockName;
        fd = ::open(path.c_str(), O_CREAT | O_RDWR, 0644);
        if (fd < 0)
            return;
        if (::flock(fd, LOCK_EX | LOCK_NB) == 0) {
            held = true;
            return;
        }
        if (errno == EWOULDBLOCK) {
            contendedFlag = true;
            held = ::flock(fd, LOCK_EX) == 0; // block for our turn
        }
    }

    ~DirLock()
    {
        if (fd >= 0) {
            if (held)
                ::flock(fd, LOCK_UN);
            ::close(fd);
        }
    }

    DirLock(const DirLock &) = delete;
    DirLock &operator=(const DirLock &) = delete;

    /** Someone else held the lock when we arrived. */
    bool contended() const { return contendedFlag; }

  private:
    int fd = -1;
    bool held = false;
    bool contendedFlag = false;
};

TraceCache::PersistentCounters
readCountersFile(const std::string &dir)
{
    TraceCache::PersistentCounters out;
    std::ifstream in(dir + "/" + kCountersName);
    std::string line;
    while (std::getline(in, line)) {
        auto eq = line.find('=');
        if (eq == std::string::npos)
            continue;
        std::string key = line.substr(0, eq);
        std::uint64_t value =
            std::strtoull(line.c_str() + eq + 1, nullptr, 10);
        if (key == "checksum_failures")
            out.checksumFailures = value;
        else if (key == "quarantines")
            out.quarantines = value;
        else if (key == "lock_contention")
            out.lockContention = value;
        else if (key == "store_failures")
            out.storeFailures = value;
    }
    return out;
}

void
writeCountersFile(const std::string &dir,
                  const TraceCache::PersistentCounters &c)
{
    // Atomic like the entries themselves: a reader never sees a
    // half-written counter file.
    std::string final_path = dir + "/" + kCountersName;
    std::string tmp = final_path + ".tmp"
        + std::to_string(static_cast<unsigned long>(::getpid()));
    {
        std::ofstream out(tmp, std::ios::trunc);
        if (!out)
            return;
        out << "checksum_failures=" << c.checksumFailures << "\n"
            << "quarantines=" << c.quarantines << "\n"
            << "lock_contention=" << c.lockContention << "\n"
            << "store_failures=" << c.storeFailures << "\n";
        if (!out)
            return;
    }
    std::error_code ec;
    fs::rename(tmp, final_path, ec);
    if (ec)
        fs::remove(tmp, ec);
}

std::vector<TraceCache::Entry>
listDir(const std::string &dir, bool corrupt)
{
    std::vector<TraceCache::Entry> out;
    std::error_code ec;
    if (!fs::is_directory(dir, ec))
        return out;
    for (const auto &de : fs::directory_iterator(dir, ec)) {
        bool is_corrupt = de.path().extension() == ".corrupt";
        if (corrupt != is_corrupt)
            continue;
        if (!corrupt && de.path().extension() != ".ptrc")
            continue;
        if (corrupt
            && de.path().stem().extension() != ".ptrc")
            continue;
        TraceCache::Entry e;
        e.file = de.path().filename().string();
        e.bytes = static_cast<std::uint64_t>(
            fs::file_size(de.path(), ec));
        e.version = fileVersion(de.path().string());
        out.push_back(std::move(e));
    }
    std::sort(out.begin(), out.end(),
              [](const TraceCache::Entry &a,
                 const TraceCache::Entry &b) {
                  return a.file < b.file;
              });
    return out;
}

/**
 * Read-modify-write one counter WITHOUT taking the writer lock: the
 * caller either holds it already (store()'s failure paths — flock
 * does not recurse across file descriptions within a process, so
 * re-locking would self-deadlock) or is bumpPersistent, which takes
 * it first.
 */
void
bumpCountersInDir(const std::string &dir,
                  std::uint64_t
                      TraceCache::PersistentCounters::*field,
                  std::uint64_t delta)
{
    TraceCache::PersistentCounters c = readCountersFile(dir);
    c.*field += delta;
    writeCountersFile(dir, c);
}

} // anonymous namespace

TraceCache::TraceCache(std::string dir)
    : dirPath(dir.empty() ? defaultDir() : std::move(dir))
{}

std::string
TraceCache::defaultDir()
{
    if (const char *env = std::getenv("PROPHET_TRACE_CACHE"))
        if (*env)
            return env;
    return ".prophet-trace-cache";
}

std::string
TraceCache::path(const std::string &workload,
                 std::size_t records) const
{
    return dirPath + "/" + sanitize(workload) + "-r"
        + std::to_string(records) + ".g"
        + std::to_string(kGeneratorSchemaVersion) + ".ptrc";
}

void
TraceCache::bumpPersistent(std::uint64_t PersistentCounters::*field,
                           std::uint64_t delta)
{
    // Read-modify-write under the writer lock so concurrent
    // processes never lose increments. Best effort by design.
    DirLock lock(dirPath);
    bumpCountersInDir(dirPath, field, delta);
}

void
TraceCache::quarantineEntry(const std::string &file, bool checksum)
{
    std::error_code ec;
    fs::rename(file, file + ".corrupt", ec);
    bool renamed = !ec;
    prophet_warnf("trace-cache: quarantined damaged entry %s%s",
                  file.c_str(),
                  renamed ? " -> .corrupt" : " (rename failed)");
    {
        std::lock_guard<std::mutex> lock(mu);
        if (renamed)
            ++counters.quarantines;
        if (checksum)
            ++counters.checksumFailures;
    }
    if (renamed)
        CacheMetrics::get().quarantines.inc();
    if (checksum)
        CacheMetrics::get().checksumFailures.inc();
    if (checksum)
        bumpPersistent(&PersistentCounters::checksumFailures);
    if (renamed)
        bumpPersistent(&PersistentCounters::quarantines);
}

bool
TraceCache::load(const std::string &workload, std::size_t records,
                 Trace &out)
{
    std::string file = path(workload, records);
    LoadReport report;
    if (!loadBinary(out, file, report)) {
        if (report.status == LoadStatus::OpenFail) {
            // A plain miss: the entry does not exist (or cannot be
            // opened, which regeneration will surface anyway).
            CacheMetrics::get().misses.inc();
            std::lock_guard<std::mutex> lock(mu);
            ++counters.misses;
            return false;
        }
        prophet_warnf(
            "trace-cache: damaged entry %s (%s at offset %llu), "
            "regenerating",
            file.c_str(), loadStatusName(report.status),
            static_cast<unsigned long long>(report.offset));
        if (report.corrupt()) {
            // Structural damage: move the evidence aside so the
            // regenerated entry starts from a clean name.
            quarantineEntry(
                file, report.status == LoadStatus::ChecksumMismatch);
        }
        CacheMetrics::get().misses.inc();
        std::lock_guard<std::mutex> lock(mu);
        ++counters.misses;
        return false;
    }
    prophet_infof("trace-cache: hit %s (%zu records) <- %s",
                  workload.c_str(), out.size(), file.c_str());
    CacheMetrics::get().hits.inc();
    std::lock_guard<std::mutex> lock(mu);
    ++counters.hits;
    return true;
}

bool
TraceCache::store(const std::string &workload, std::size_t records,
                  const Trace &t)
{
    std::error_code ec;
    fs::create_directories(dirPath, ec);
    if (ec)
        return false;
    std::string final_path = path(workload, records);

    // Serialize writers across processes (and threads) sharing this
    // directory. The temp+rename protocol below is atomic on its
    // own; the lock keeps concurrent writers of the *same* entry
    // from doing redundant 100 MB writes and protects the
    // counter-file read-modify-writes.
    DirLock lock(dirPath);
    if (lock.contended()) {
        CacheMetrics::get().lockContention.inc();
        {
            std::lock_guard<std::mutex> guard(mu);
            ++counters.lockContention;
        }
        // The DirLock is held here: bump without re-locking.
        bumpCountersInDir(dirPath,
                          &PersistentCounters::lockContention, 1);
    }

    auto storeFailed = [this]() {
        CacheMetrics::get().storeFailures.inc();
        {
            std::lock_guard<std::mutex> guard(mu);
            ++counters.storeFailures;
        }
        bumpCountersInDir(dirPath,
                          &PersistentCounters::storeFailures, 1);
        return false;
    };

    // Fault point: a whole-store failure (e.g. the filesystem is
    // full before the first byte).
    if (fault::shouldFail("cache.store"))
        return storeFailed();

    // Unique temp name per store: the pid separates processes
    // sharing a cache directory (which the README allows) and the
    // counter separates concurrent stores within this process, so
    // two writers can never interleave into one temp file; rename
    // is atomic within the directory.
    static std::atomic<unsigned long> storeSeq{0};
    std::string tmp = final_path + ".tmp"
        + std::to_string(static_cast<unsigned long>(::getpid())) + "."
        + std::to_string(storeSeq.fetch_add(1));
    if (!saveBinary(t, tmp)) {
        // A failed write (ENOSPC, injected fault) must leave no
        // partial entry behind — remove the temp file; the final
        // name was never touched.
        fs::remove(tmp, ec);
        return storeFailed();
    }
    fs::rename(tmp, final_path, ec);
    if (ec) {
        fs::remove(tmp, ec);
        return storeFailed();
    }
    CacheMetrics::get().stores.inc();
    std::lock_guard<std::mutex> guard(mu);
    ++counters.stores;
    return true;
}

std::size_t
TraceCache::clear()
{
    std::size_t removed = 0;
    std::error_code ec;
    if (!fs::is_directory(dirPath, ec))
        return 0;
    for (const auto &de : fs::directory_iterator(dirPath, ec)) {
        // Also sweep ".ptrc.tmp<pid>.<tid>" leftovers from crashed
        // writers and ".ptrc.corrupt" quarantined entries; only
        // completed entries count toward the total.
        std::string name = de.path().filename().string();
        if (name.find(".ptrc") == std::string::npos)
            continue;
        bool completed = de.path().extension() == ".ptrc";
        if (fs::remove(de.path(), ec) && completed)
            ++removed;
    }
    return removed;
}

std::vector<TraceCache::Entry>
TraceCache::entries() const
{
    return listDir(dirPath, false);
}

std::vector<TraceCache::Entry>
TraceCache::quarantined() const
{
    return listDir(dirPath, true);
}

TraceCache::Stats
TraceCache::stats() const
{
    std::lock_guard<std::mutex> lock(mu);
    return counters;
}

TraceCache::PersistentCounters
TraceCache::persistentCounters() const
{
    return readCountersFile(dirPath);
}

} // namespace prophet::trace
