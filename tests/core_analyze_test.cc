/**
 * @file
 * Tests for the ScalabilityAnalyzer on synthetic RunResults.
 */

#include <gtest/gtest.h>

#include "core/analyze.hh"

namespace {

using namespace jscale;
using core::ScalabilityAnalyzer;

jvm::RunResult
makeResult(std::uint32_t threads, Ticks wall, Ticks gc,
           std::vector<std::uint64_t> tasks_per_thread)
{
    jvm::RunResult r;
    r.threads = threads;
    r.cores = threads;
    r.wall_time = wall;
    r.gc_time = gc;
    for (std::size_t i = 0; i < tasks_per_thread.size(); ++i) {
        jvm::ThreadSummary ts;
        ts.name = "t";
        ts.name += std::to_string(i); // not "t" + ...: GCC 12 -Wrestrict
        ts.kind = os::ThreadKind::Mutator;
        ts.tasks_completed = tasks_per_thread[i];
        r.thread_summaries.push_back(ts);
        r.total_tasks += tasks_per_thread[i];
    }
    return r;
}

TEST(Analyzer, SpeedupAgainstBase)
{
    const auto base = makeResult(1, 1000, 0, {100});
    const auto fast = makeResult(4, 250, 0, {25, 25, 25, 25});
    EXPECT_DOUBLE_EQ(ScalabilityAnalyzer::speedup(base, fast), 4.0);
    EXPECT_DOUBLE_EQ(ScalabilityAnalyzer::speedup(base, base), 1.0);
}

TEST(Analyzer, MutatorSpeedupExcludesGc)
{
    const auto base = makeResult(1, 1000, 200, {100});
    const auto fast = makeResult(4, 600, 400, {25, 25, 25, 25});
    // Mutator: 800 -> 200.
    EXPECT_DOUBLE_EQ(ScalabilityAnalyzer::mutatorSpeedup(base, fast),
                     4.0);
}

TEST(Analyzer, IsScalableThreshold)
{
    std::vector<jvm::RunResult> good = {makeResult(1, 1000, 0, {10}),
                                        makeResult(8, 200, 0, {10})};
    std::vector<jvm::RunResult> bad = {makeResult(1, 1000, 0, {10}),
                                       makeResult(8, 800, 0, {10})};
    EXPECT_TRUE(ScalabilityAnalyzer::isScalable(good));
    EXPECT_FALSE(ScalabilityAnalyzer::isScalable(bad));
}

TEST(Analyzer, EffectiveWorkersUniform)
{
    const auto r = makeResult(4, 100, 0, {25, 25, 25, 25});
    EXPECT_EQ(ScalabilityAnalyzer::effectiveWorkers(r, 0.90), 4u);
}

TEST(Analyzer, EffectiveWorkersConcentrated)
{
    // jython-like: 16 threads requested, 4 do all the work.
    std::vector<std::uint64_t> tasks(16, 0);
    tasks[0] = 30;
    tasks[1] = 28;
    tasks[2] = 26;
    tasks[3] = 24;
    const auto r = makeResult(16, 100, 0, tasks);
    EXPECT_EQ(ScalabilityAnalyzer::effectiveWorkers(r, 0.90), 4u);
    EXPECT_NEAR(ScalabilityAnalyzer::topThreadShare(r), 30.0 / 108.0,
                1e-9);
}

TEST(Analyzer, EffectiveWorkersZeroTasks)
{
    const auto r = makeResult(4, 100, 0, {0, 0, 0, 0});
    EXPECT_EQ(ScalabilityAnalyzer::effectiveWorkers(r), 0u);
    EXPECT_DOUBLE_EQ(ScalabilityAnalyzer::topThreadShare(r), 0.0);
}

TEST(Analyzer, TaskCvZeroWhenUniform)
{
    const auto r = makeResult(4, 100, 0, {10, 10, 10, 10});
    EXPECT_DOUBLE_EQ(ScalabilityAnalyzer::taskDistributionCv(r), 0.0);
}

TEST(Analyzer, TaskCvGrowsWithSkew)
{
    const auto uniform = makeResult(4, 100, 0, {10, 10, 10, 10});
    const auto skewed = makeResult(4, 100, 0, {40, 0, 0, 0});
    EXPECT_GT(ScalabilityAnalyzer::taskDistributionCv(skewed),
              ScalabilityAnalyzer::taskDistributionCv(uniform));
}

TEST(Analyzer, GcShare)
{
    const auto r = makeResult(4, 1000, 250, {1});
    EXPECT_DOUBLE_EQ(ScalabilityAnalyzer::gcShare(r), 0.25);
}

} // namespace
