/**
 * @file
 * Tests for the `prophet` CLI's flag scoping, run against the built
 * binary: every flag is accepted only by the subcommands that read
 * it, so a flag is never silently ignored, while the flag sets that
 * scripts and CI pass keep working.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <sys/wait.h>
#include <unistd.h>

namespace fs = std::filesystem;

namespace
{

struct Outcome
{
    int exitCode = -1;
    std::string output; ///< stdout and stderr, interleaved
};

/** Run `prophet <args>` in @p cwd through the shell. */
Outcome
prophet(const std::string &args, const std::string &cwd = ".")
{
    const std::string cmd = "cd '" + cwd + "' && '" PROPHET_CLI "' "
        + args + " 2>&1";
    Outcome out;
    std::FILE *p = ::popen(cmd.c_str(), "r");
    if (!p)
        return out;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), p)) > 0)
        out.output.append(buf, n);
    int status = ::pclose(p);
    if (WIFEXITED(status))
        out.exitCode = WEXITSTATUS(status);
    return out;
}

class CliTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir = (fs::temp_directory_path()
               / ("prophet_cli_test_" + std::to_string(::getpid())))
                  .string();
        fs::remove_all(dir);
        fs::create_directories(dir);
        std::ofstream(dir + "/tiny.json")
            << R"({"name": "tiny", "workloads": ["mcf"],
                   "pipelines": ["baseline"], "metrics": ["ipc"],
                   "records": 5000, "sinks": [{"type": "table"}]})";
    }

    void TearDown() override { fs::remove_all(dir); }

    std::string dir;
};

TEST_F(CliTest, FlagOfAnotherSubcommandIsAUsageError)
{
    struct Case
    {
        const char *args;
        const char *flag;    ///< or the unknown command
        const char *command; ///< or why it is refused
    };
    const Case cases[] = {
        {"run tiny.json --socket s", "--socket", "prophet run"},
        {"trace-cache stats --records 5", "--records",
         "prophet trace-cache stats"},
        {"trace-cache warm mcf --metrics-out m.json", "--metrics-out",
         "prophet trace-cache warm"},
        {"trace-cache warm mcf --no-trace-cache", "--no-trace-cache",
         "prophet trace-cache warm"},
        // The resident daemon and its client are gone; the result
        // store serves what they kept in memory.
        {"serve --socket s", "\"serve\"", "unknown command"},
        {"client run tiny.json --socket s", "\"client\"",
         "unknown command"},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(c.args);
        Outcome o = prophet(c.args, dir);
        EXPECT_EQ(o.exitCode, 2) << o.output;
        EXPECT_NE(o.output.find(c.flag), std::string::npos) << o.output;
        EXPECT_NE(o.output.find(c.command), std::string::npos)
            << o.output;
    }
    Outcome help = prophet("--help", dir);
    EXPECT_EQ(help.exitCode, 0) << help.output;
    EXPECT_NE(help.output.find("\n  run "), std::string::npos);
    EXPECT_EQ(help.output.find("\n  serve "), std::string::npos);
    EXPECT_EQ(help.output.find("\n  client "), std::string::npos);
}

TEST_F(CliTest, MalformedFlagsAreUsageErrors)
{
    for (const char *args :
         {"run tiny.json --bogus", "run tiny.json --threads",
          "run tiny.json --threads=abc", "run tiny.json --threads -1",
          "run tiny.json --records 99999999999999999999",
          "run tiny.json --job-timeout nan", "run tiny.json --progress=1",
          "trace-cache stats extra", "trace-cache clear extra"}) {
        SCOPED_TRACE(args);
        Outcome o = prophet(args, dir);
        EXPECT_EQ(o.exitCode, 2) << o.output;
    }
}

TEST_F(CliTest, RemovedJournalFlagsAreUsageErrors)
{
    // Rerunning resumes now; the journal's flags are gone, and
    // scripts still passing them fail loudly instead of being
    // ignored.
    for (const char *args :
         {"run tiny.json --resume", "run tiny.json --journal j",
          "run tiny.json --no-journal-fsync"}) {
        SCOPED_TRACE(args);
        Outcome o = prophet(args, dir);
        EXPECT_EQ(o.exitCode, 2) << o.output;
        EXPECT_NE(o.output.find("unknown flag"), std::string::npos)
            << o.output;
    }
}

TEST_F(CliTest, CacheAdminCoversStoredResults)
{
    const std::string cache = "--trace-cache-dir cache";
    // warm makes traces only.
    Outcome warm = prophet("trace-cache warm tiny.json " + cache, dir);
    ASSERT_EQ(warm.exitCode, 0) << warm.output;
    Outcome stats = prophet("trace-cache stats " + cache, dir);
    EXPECT_NE(stats.output.find("1 cached trace(s)"), std::string::npos)
        << stats.output;
    EXPECT_NE(stats.output.find("0 stored result(s), 0 bytes"),
              std::string::npos)
        << stats.output;

    // A run stores its one job and the workload's baseline; a
    // second run is served from them.
    Outcome run = prophet("run tiny.json " + cache, dir);
    ASSERT_EQ(run.exitCode, 0) << run.output;
    EXPECT_NE(run.output.find("mcf/baseline done"), std::string::npos)
        << run.output;
    stats = prophet("trace-cache stats " + cache, dir);
    EXPECT_NE(stats.output.find("2 stored result(s)"),
              std::string::npos)
        << stats.output;
    Outcome rerun = prophet("run tiny.json " + cache, dir);
    ASSERT_EQ(rerun.exitCode, 0) << rerun.output;
    EXPECT_NE(rerun.output.find("mcf/baseline cached"),
              std::string::npos)
        << rerun.output;

    // clear removes traces and results alike.
    Outcome clear = prophet("trace-cache clear " + cache, dir);
    ASSERT_EQ(clear.exitCode, 0) << clear.output;
    EXPECT_NE(clear.output.find("removed 1 cached trace(s) and 2 "
                                "stored result(s)"),
              std::string::npos)
        << clear.output;
    stats = prophet("trace-cache stats " + cache, dir);
    EXPECT_NE(stats.output.find("0 cached trace(s)"), std::string::npos)
        << stats.output;
    EXPECT_NE(stats.output.find("0 stored result(s), 0 bytes"),
              std::string::npos)
        << stats.output;
}

TEST_F(CliTest, ScriptedFlagSetsStillRun)
{
    // The flag sets the benchmark harness and CI pass.
    Outcome warm = prophet("trace-cache warm tiny.json mcf --threads 1 "
                           "--records 5000 --trace-cache-dir cache",
                           dir);
    EXPECT_EQ(warm.exitCode, 0) << warm.output;

    Outcome run = prophet("run tiny.json --threads 2 --records 5000 "
                          "--trace-cache-dir cache "
                          "--metrics-out=metrics.json",
                          dir);
    EXPECT_EQ(run.exitCode, 0) << run.output;
    EXPECT_NE(run.output.find("== tiny:"), std::string::npos);
    EXPECT_TRUE(fs::exists(dir + "/metrics.json"));

    Outcome stats =
        prophet("trace-cache stats --trace-cache-dir cache", dir);
    EXPECT_EQ(stats.exitCode, 0) << stats.output;
    EXPECT_NE(stats.output.find("format v4: 1 entry"),
              std::string::npos)
        << stats.output;
}

} // anonymous namespace
