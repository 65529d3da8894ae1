/**
 * @file
 * Seeded bit-flip corpora for the input parsers that read untrusted
 * bytes: the JSON reader, the experiment-spec parser, and the binary
 * trace loader. Each mutated input must end in a structured error or
 * a valid result — never a crash, a foreign exception type, or a
 * hang. The corpora are deterministic (fixed seeds), so a failure
 * reproduces exactly.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <unistd.h>

#include "common/checksum.hh"
#include "driver/json.hh"
#include "driver/spec.hh"
#include "trace/trace_cache.hh"
#include "trace/trace_io.hh"

namespace fs = std::filesystem;

namespace prophet
{
namespace
{

/**
 * Two specs that between them exercise every top-level key the
 * parser knows (a sweep parameter must be accepted by every
 * pipeline, so the sweep gets its own spec).
 */
const std::string kSpecText = R"({
  // comment, trailing commas and every value kind
  "name": "corpus",
  "workloads": ["mcf", "@gcc", "sssp_100000_5"],
  "pipelines": ["rpg2", "triangel",
                {"name": "triage", "degree": 4, "label": "t4",},
                {"name": "prophet", "learn": ["gcc_166"],
                 "features": ["replacement", "mvb"]}],
  "metrics": ["speedup", "traffic", "coverage", "ipc"],
  "records": 60000,
  "threads": 2,
  "l1": "ipcp",
  "dram_channels": 2,
  "warmup_records": 1000,
  "sampling": {"warmup_records": 500, "window_records": 500,
               "interval_records": 5000},
  "trace_cache": false,
  "keep_going": true,
  "deadline_s": 2.5,
  "sinks": [{"type": "table"}, {"type": "csv", "path": "x.csv"}],
})";

const std::string kSweepSpecText = R"({
  "name": "corpus-sweep",
  "workloads": ["@spec"],
  "pipelines": ["triage",
                {"name": "triage", "meta_replacement": "srrip",
                 "label": "srrip"}],
  "sweep": {"param": "degree", "values": [1, 4]},
  "metrics": ["speedup"]
})";

std::string
flipBit(std::string s, std::size_t bit)
{
    s[bit / 8] = static_cast<char>(
        static_cast<unsigned char>(s[bit / 8]) ^ (1u << (bit % 8)));
    return s;
}

/**
 * One to three random bit flips per iteration: single flips probe
 * every byte's decoding, multi-flips reach states one flip cannot.
 */
template <typename Fn>
void
forEachMutant(const std::string &base, std::uint64_t seed, int iters,
              Fn &&fn)
{
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<std::size_t> pick_bit(
        0, base.size() * 8 - 1);
    std::uniform_int_distribution<int> pick_count(1, 3);
    for (int iter = 0; iter < iters; ++iter) {
        std::string buf = base;
        for (int n = pick_count(rng); n > 0; --n)
            buf = flipBit(buf, pick_bit(rng));
        fn(buf);
    }
}

/** Whole-corpus wall-time bound: a hang fails the test, not CI. */
class Deadline
{
  public:
    ~Deadline()
    {
        EXPECT_LT(std::chrono::steady_clock::now() - start,
                  std::chrono::seconds(20));
    }

  private:
    std::chrono::steady_clock::time_point start =
        std::chrono::steady_clock::now();
};

TEST(ParserCorpus, BaseInputsAreValid)
{
    for (const std::string *text : {&kSpecText, &kSweepSpecText}) {
        driver::json::Value doc;
        std::string err;
        ASSERT_TRUE(driver::json::parse(*text, doc, &err)) << err;
        EXPECT_NO_THROW(driver::ExperimentSpec::fromJson(doc));
    }
}

TEST(ParserCorpus, JsonBitFlipsParseOrFailWithAMessage)
{
    Deadline deadline;
    int parsed = 0;
    forEachMutant(kSpecText, 0x5EED0001, 4000,
                  [&](const std::string &text) {
        driver::json::Value doc;
        std::string err;
        if (driver::json::parse(text, doc, &err)) {
            ++parsed;
            // A parsed value re-serializes and re-parses to itself.
            driver::json::Value again;
            ASSERT_TRUE(driver::json::parse(driver::json::dump(doc),
                                            again, &err))
                << err;
            EXPECT_EQ(driver::json::dump(again),
                      driver::json::dump(doc));
        } else {
            EXPECT_FALSE(err.empty());
        }
    });
    // Flips inside strings and digits keep the document well-formed:
    // the corpus must reach the success path, not only errors.
    EXPECT_GT(parsed, 0);
}

TEST(ParserCorpus, SpecBitFlipsYieldASpecOrASpecError)
{
    Deadline deadline;
    int valid = 0, rejected = 0;
    auto check = [&](const std::string &text) {
        driver::json::Value doc;
        if (!driver::json::parse(text, doc, nullptr))
            return;
        try {
            auto spec = driver::ExperimentSpec::fromJson(doc);
            ++valid;
            // A valid spec round-trips through its canonical form.
            auto again =
                driver::ExperimentSpec::fromJson(spec.toJson());
            EXPECT_EQ(again.hash(), spec.hash());
        } catch (const driver::SpecError &e) {
            ++rejected;
            EXPECT_NE(std::string(e.what()), "");
        } catch (const std::exception &e) {
            ADD_FAILURE() << "foreign exception: " << e.what()
                          << "\ninput:\n" << text;
        }
    };
    forEachMutant(kSpecText, 0x5EED0002, 3000, check);
    forEachMutant(kSweepSpecText, 0x5EED0005, 2000, check);
    EXPECT_GT(valid, 0);
    EXPECT_GT(rejected, 0);
}

TEST(ParserCorpus, SpecFileBitFlipsYieldASpecOrASpecError)
{
    Deadline deadline;
    const std::string path =
        (fs::temp_directory_path()
         / ("prophet_corpus_spec_" + std::to_string(::getpid())
            + ".json"))
            .string();
    forEachMutant(kSpecText, 0x5EED0003, 500,
                  [&](const std::string &text) {
        {
            std::ofstream out(path, std::ios::binary);
            out << text;
        }
        try {
            driver::ExperimentSpec::fromFile(path);
        } catch (const driver::SpecError &) {
        } catch (const std::exception &e) {
            ADD_FAILURE() << "foreign exception: " << e.what();
        }
    });
    std::remove(path.c_str());
}

/** Byte offsets in a v4 trace file (trace/trace_io.hh). */
constexpr std::size_t kPcCountOffset = 16;
constexpr std::size_t kChecksumOffset = 24;
constexpr std::size_t kHeaderBytes = 48;

class TraceCorpus : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        const std::string stem =
            "prophet_corpus_trace_" + std::to_string(::getpid());
        path = (fs::temp_directory_path() / (stem + ".ptrc")).string();
        cacheDir = (fs::temp_directory_path() / (stem + "_cache"))
                       .string();
        for (unsigned i = 0; i < 64; ++i)
            original.append(0x400000 + 4 * (i % 7), 0x10000 + 64 * i,
                            static_cast<std::uint16_t>(i % 5), i & 1,
                            (i & 2) != 0);
        ASSERT_TRUE(trace::saveBinary(original, path));
        std::ifstream in(path, std::ios::binary);
        base.assign(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>());
        ASSERT_EQ(original.pcCount(), 7u);
        ASSERT_EQ(base.size(), kHeaderBytes + 8u * 7
                                   + 12u * original.size());
        metaOffset = kHeaderBytes + 8 * 7 + 8 * original.size();
    }

    void
    TearDown() override
    {
        std::remove(path.c_str());
        fs::remove_all(cacheDir);
    }

    /** Write @p bytes to the file and load it back. */
    trace::LoadReport
    load(const std::string &bytes, trace::Trace &out)
    {
        {
            std::ofstream f(path, std::ios::binary | std::ios::trunc);
            f << bytes;
        }
        trace::LoadReport report;
        trace::loadBinary(out, path, report);
        return report;
    }

    /**
     * Plant @p bytes as a trace-cache entry: the load must miss and
     * quarantine it, and a regenerated store must load back whole.
     */
    void
    expectCacheRegenerates(const std::string &bytes)
    {
        fs::remove_all(cacheDir);
        fs::create_directories(cacheDir);
        trace::TraceCache cache(cacheDir);
        const std::size_t n = original.size();
        {
            std::ofstream f(cache.path("corpus", n), std::ios::binary);
            f << bytes;
        }
        trace::Trace out;
        EXPECT_FALSE(cache.load("corpus", n, out));
        EXPECT_TRUE(out.empty());
        EXPECT_EQ(cache.stats().quarantines, 1u);
        ASSERT_TRUE(cache.store("corpus", n, original));
        ASSERT_TRUE(cache.load("corpus", n, out));
        ASSERT_EQ(out.size(), n);
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(out[i].pc, original[i].pc);
    }

    std::string path;
    std::string cacheDir;
    std::string base;
    std::size_t metaOffset = 0;
    trace::Trace original;
};

/** @p bytes with the u64 at @p offset replaced by @p value. */
std::string
withU64(std::string bytes, std::size_t offset, std::uint64_t value)
{
    bytes.replace(offset, 8, reinterpret_cast<const char *>(&value), 8);
    return bytes;
}

TEST_F(TraceCorpus, BitFlipsAreDetectedAsCorruption)
{
    Deadline deadline;
    forEachMutant(base, 0x5EED0004, 2000, [&](const std::string &bytes) {
        trace::Trace out;
        auto report = load(bytes, out);
        if (report.ok()) {
            // Only an unchanged payload may load (flips that cancel).
            ASSERT_EQ(out.size(), original.size());
            for (std::size_t i = 0; i < out.size(); ++i)
                ASSERT_EQ(out[i].addr, original[i].addr);
            return;
        }
        EXPECT_TRUE(report.corrupt())
            << trace::loadStatusName(report.status);
        EXPECT_TRUE(out.empty());
    });
}

TEST_F(TraceCorpus, EveryVersionButV4IsABadHeader)
{
    // Includes the retired v1-v3: their headers are well formed and
    // followed by a plausible payload, yet no longer load.
    auto withVersion = [&](std::uint32_t version) {
        std::string bytes = base;
        bytes.replace(4, 4, reinterpret_cast<const char *>(&version), 4);
        return bytes;
    };
    for (std::uint32_t version : {0u, 1u, 2u, 3u, 5u, 0x04000000u}) {
        SCOPED_TRACE(version);
        const std::string bytes = withVersion(version);
        trace::Trace out;
        auto report = load(bytes, out);
        EXPECT_EQ(report.status, trace::LoadStatus::BadHeader);
        EXPECT_EQ(report.offset, 4u);
        EXPECT_EQ(report.version, version);
        EXPECT_TRUE(report.corrupt());
        EXPECT_TRUE(out.empty());
    }
    expectCacheRegenerates(withVersion(3));
}

TEST_F(TraceCorpus, TruncatedPcTableIsDetected)
{
    for (std::size_t len = kHeaderBytes;
         len < kHeaderBytes + 8 * original.pcCount(); ++len) {
        SCOPED_TRACE(len);
        trace::Trace out;
        auto report = load(base.substr(0, len), out);
        EXPECT_EQ(report.status, trace::LoadStatus::Truncated);
        EXPECT_EQ(report.offset, kHeaderBytes);
        EXPECT_TRUE(out.empty());
    }
    expectCacheRegenerates(base.substr(0, kHeaderBytes + 12));
}

TEST_F(TraceCorpus, PcTableLongerThanTheIndexIsABadHeader)
{
    // 16384 is the largest table the 14-bit index can address: it
    // passes the header check (then fails on the short payload);
    // one more is a bad header however long the file.
    for (std::uint64_t pcs : {std::uint64_t{16385},
                              std::uint64_t{1} << 40,
                              ~std::uint64_t{0}}) {
        SCOPED_TRACE(pcs);
        trace::Trace out;
        auto report = load(withU64(base, kPcCountOffset, pcs), out);
        EXPECT_EQ(report.status, trace::LoadStatus::BadHeader);
        EXPECT_EQ(report.offset, kPcCountOffset);
        EXPECT_TRUE(out.empty());
    }
    trace::Trace out;
    auto report = load(withU64(base, kPcCountOffset, 16384), out);
    EXPECT_EQ(report.status, trace::LoadStatus::Truncated);
    expectCacheRegenerates(withU64(base, kPcCountOffset, 16385));
}

TEST_F(TraceCorpus, PcIndexPastTheTableIsRejected)
{
    // Rewrite one record's PC index and re-checksum meta[], so only
    // the index check stands between the file and an out-of-bounds
    // table read.
    auto withIndex = [&](std::uint32_t index) {
        std::string bytes = base;
        const std::size_t at = metaOffset + 4 * 37;
        std::uint32_t meta;
        std::memcpy(&meta, bytes.data() + at, 4);
        meta = (meta & 0x3ffffu) | (index << 18);
        std::memcpy(bytes.data() + at, &meta, 4);
        const std::uint64_t sum = fnv1a64(bytes.data() + metaOffset,
                                          4 * original.size());
        return withU64(bytes, kChecksumOffset + 16, sum);
    };
    for (std::uint32_t index : {7u, 8u, 16383u}) {
        SCOPED_TRACE(index);
        trace::Trace out;
        auto report = load(withIndex(index), out);
        EXPECT_EQ(report.status, trace::LoadStatus::BadPcIndex);
        EXPECT_EQ(report.offset, metaOffset);
        EXPECT_TRUE(report.corrupt());
        EXPECT_TRUE(out.empty());
    }
    // The last table entry is in bounds: the check is exact.
    trace::Trace out;
    ASSERT_TRUE(load(withIndex(6), out).ok());
    EXPECT_EQ(out[37].pc, original.pcTable()[6]);
    expectCacheRegenerates(withIndex(7));
}

TEST_F(TraceCorpus, EachArrayChecksumIsVerified)
{
    // A flipped checksum byte fails its own array, at that array's
    // offset: pc[], addr[], meta[] in file order.
    const std::size_t offsets[3] = {
        kHeaderBytes, kHeaderBytes + 8 * original.pcCount(),
        metaOffset};
    for (int a = 0; a < 3; ++a) {
        SCOPED_TRACE(a);
        std::string bytes = base;
        bytes[kChecksumOffset + 8 * a + 3] ^= 0x20;
        trace::Trace out;
        auto report = load(bytes, out);
        EXPECT_EQ(report.status, trace::LoadStatus::ChecksumMismatch);
        EXPECT_EQ(report.offset, offsets[a]);
        EXPECT_TRUE(out.empty());
        expectCacheRegenerates(bytes);
    }
}

TEST_F(TraceCorpus, EveryTruncationIsDetected)
{
    Deadline deadline;
    for (std::size_t len = 0; len < base.size(); ++len) {
        trace::Trace out;
        auto report = load(base.substr(0, len), out);
        EXPECT_TRUE(report.corrupt())
            << "length " << len << ": "
            << trace::loadStatusName(report.status);
        EXPECT_TRUE(out.empty());
    }
}

} // anonymous namespace
} // namespace prophet
