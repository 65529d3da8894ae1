/**
 * @file
 * Tests for the parallel sweep engine and thread pool: fan-out
 * coverage, exception propagation and per-job fault isolation. The
 * serial-vs-parallel bit-identity of whole pipelines is tested
 * through the experiment driver (test_driver).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "sim/sweep.hh"
#include "sim/thread_pool.hh"

namespace prophet::sim
{
namespace
{

/** Short traces keep the sweep tests fast. */
constexpr std::size_t kRecords = 60'000;

TEST(ThreadPool, RunsEverySubmittedJob)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.threadCount(), 4u);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 100);

    // The pool is reusable across batches.
    for (int i = 0; i < 50; ++i)
        pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 150);
}

TEST(ThreadPool, ResolveThreadsDefaultsToHardware)
{
    EXPECT_GE(ThreadPool::resolveThreads(0), 1u);
    EXPECT_EQ(ThreadPool::resolveThreads(3), 3u);
}

TEST(Sweep, ForEachCoversAllIndicesOnce)
{
    Runner r(SystemConfig::table1(), kRecords);
    SweepEngine engine(r, 4);
    std::vector<std::atomic<int>> hits(64);
    engine.forEach(64, [&](std::size_t i) { ++hits[i]; });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(Sweep, ForEachPropagatesJobException)
{
    Runner r(SystemConfig::table1(), kRecords);
    SweepEngine engine(r, 4);
    EXPECT_THROW(engine.forEach(8,
                                [](std::size_t i) {
                                    if (i == 5)
                                        throw std::runtime_error("boom");
                                }),
                 std::runtime_error);
}

TEST(SweepEngine, TryForEachKeepGoingIsolatesTheFailingJob)
{
    Runner runner(SystemConfig::table1(), kRecords);
    SweepEngine engine(runner, 4);
    std::atomic<int> ran{0};
    auto failures = engine.tryForEach(
        8,
        [&](std::size_t i) {
            if (i == 3)
                throw std::runtime_error("job 3 boom");
            ++ran;
        },
        SweepEngine::FailurePolicy::KeepGoing);
    // Every sibling of the failing job still ran.
    EXPECT_EQ(ran.load(), 7);
    ASSERT_EQ(failures.size(), 8u);
    for (std::size_t i = 0; i < failures.size(); ++i) {
        if (i == 3)
            continue;
        EXPECT_TRUE(failures[i].ok()) << "job " << i;
    }
    ASSERT_TRUE(failures[3].error);
    EXPECT_FALSE(failures[3].skipped);
    try {
        std::rethrow_exception(failures[3].error);
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "job 3 boom");
    }
}

TEST(SweepEngine, TryForEachFailFastSkipsTheRestAndFiresTheToken)
{
    // Serial engine: job order is deterministic, so the failure at
    // index 1 must leave 0 complete and 2..3 skipped-not-run.
    Runner runner(SystemConfig::table1(), kRecords);
    SweepEngine engine(runner, 1);
    CancellationToken token;
    std::atomic<int> ran{0};
    auto failures = engine.tryForEach(
        4,
        [&](std::size_t i) {
            if (i == 1)
                throw std::runtime_error("first failure");
            ++ran;
        },
        SweepEngine::FailurePolicy::FailFast, &token);
    EXPECT_EQ(ran.load(), 1);
    ASSERT_EQ(failures.size(), 4u);
    EXPECT_TRUE(failures[0].ok());
    EXPECT_TRUE(failures[1].error);
    EXPECT_TRUE(failures[2].skipped);
    EXPECT_TRUE(failures[3].skipped);
    EXPECT_FALSE(failures[2].error);
    EXPECT_TRUE(token.cancelled());
}

TEST(ThreadPool, EscapedExceptionIsCountedNotFatal)
{
    // forEach/tryForEach capture failures inside the closure; a job
    // that leaks an exception anyway (a caller bug) must not kill
    // the worker — it is logged, counted, and dropped.
    ThreadPool pool(2);
    pool.submit([] { throw std::runtime_error("leaked"); });
    pool.submit([] {});
    pool.wait();
    EXPECT_EQ(pool.swallowedExceptions(), 1u);

    // The pool still works afterwards.
    std::atomic<int> ran{0};
    for (int i = 0; i < 8; ++i)
        pool.submit([&] { ++ran; });
    pool.wait();
    EXPECT_EQ(ran.load(), 8);
    EXPECT_EQ(pool.swallowedExceptions(), 1u);
}

} // anonymous namespace
} // namespace prophet::sim
