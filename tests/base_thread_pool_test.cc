/**
 * @file
 * Tests for the host-side worker pool: completion semantics, worker
 * clamping and draining.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "base/thread_pool.hh"

namespace {

using namespace jscale;

TEST(ThreadPool, RunsEveryTask)
{
    ThreadPool pool(4);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ZeroWorkersClampedToOne)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.size(), 1u);
    std::atomic<int> count{0};
    pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, WaitBlocksUntilSlowTasksFinish)
{
    ThreadPool pool(2);
    std::atomic<int> done{0};
    for (int i = 0; i < 8; ++i) {
        pool.submit([&done] {
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
            ++done;
        });
    }
    pool.wait();
    EXPECT_EQ(done.load(), 8);
}

TEST(ThreadPool, ReusableAfterWait)
{
    ThreadPool pool(2);
    std::atomic<int> count{0};
    pool.submit([&count] { ++count; });
    pool.wait();
    pool.submit([&count] { ++count; });
    pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 3);
}

TEST(ThreadPool, DestructorDrainsBacklog)
{
    std::atomic<int> count{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 32; ++i)
            pool.submit([&count] { ++count; });
        // No wait(): the destructor must drain before joining.
    }
    EXPECT_EQ(count.load(), 32);
}

TEST(ThreadPool, HardwareConcurrencyAtLeastOne)
{
    EXPECT_GE(ThreadPool::hardwareConcurrency(), 1u);
}

} // namespace
