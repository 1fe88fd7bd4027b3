/**
 * @file
 * Tests for the ExperimentRunner: methodology fidelity (threads ==
 * cores, 3x min-heap sizing), caching, determinism and configuration.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "core/analyze.hh"
#include "core/experiment.hh"
#include "core/run_record.hh"
#include "workload/task_queue_app.hh"

namespace {

using namespace jscale;
using core::ExperimentConfig;
using core::ExperimentRunner;

ExperimentConfig
fastConfig()
{
    ExperimentConfig cfg;
    cfg.workload_scale = 0.05;
    return cfg;
}

TEST(ExperimentRunner, PaperThreadCountsClippedToMachine)
{
    ExperimentConfig cfg = fastConfig();
    ExperimentRunner full(cfg);
    EXPECT_EQ(full.paperThreadCounts(),
              (std::vector<std::uint32_t>{1, 2, 4, 8, 16, 24, 32, 48}));

    cfg.machine = machine::Machine::testMachine_2p8c();
    ExperimentRunner small(cfg);
    EXPECT_EQ(small.paperThreadCounts(),
              (std::vector<std::uint32_t>{1, 2, 4, 8}));
}

TEST(ExperimentRunner, ThreadsEqualEnabledCores)
{
    ExperimentRunner runner(fastConfig());
    const auto r = runner.runApp("sunflow", 8);
    EXPECT_EQ(r.threads, 8u);
    EXPECT_EQ(r.cores, 8u);
}

TEST(ExperimentRunner, MinHeapPositiveAndCached)
{
    ExperimentRunner runner(fastConfig());
    const Bytes m1 = runner.minHeapRequirement("xalan");
    const Bytes m2 = runner.minHeapRequirement("xalan");
    EXPECT_GT(m1, 0u);
    EXPECT_EQ(m1, m2);
}

TEST(ExperimentRunner, HeapIsFactorTimesMinimum)
{
    ExperimentConfig cfg = fastConfig();
    cfg.heap_factor = 3.0;
    ExperimentRunner runner(cfg);
    const Bytes min_heap = runner.minHeapRequirement("lusearch");
    const auto r = runner.runApp("lusearch", 4);
    EXPECT_NEAR(static_cast<double>(r.heap_capacity),
                3.0 * static_cast<double>(min_heap),
                static_cast<double>(min_heap) * 0.01);
}

TEST(ExperimentRunner, HeapOverrideRespected)
{
    ExperimentConfig cfg = fastConfig();
    cfg.heap_override = 16 * units::MiB;
    ExperimentRunner runner(cfg);
    const auto r = runner.runApp("sunflow", 2);
    EXPECT_EQ(r.heap_capacity, 16 * units::MiB);
}

TEST(ExperimentRunner, DeterministicAcrossRuns)
{
    ExperimentRunner a(fastConfig());
    ExperimentRunner b(fastConfig());
    const auto ra = a.runApp("xalan", 8);
    const auto rb = b.runApp("xalan", 8);
    EXPECT_EQ(ra.wall_time, rb.wall_time);
    EXPECT_EQ(ra.gc_time, rb.gc_time);
    EXPECT_EQ(ra.heap.objects_allocated, rb.heap.objects_allocated);
    EXPECT_EQ(ra.locks.acquisitions, rb.locks.acquisitions);
    EXPECT_EQ(ra.locks.contentions, rb.locks.contentions);
    EXPECT_EQ(ra.sim_events, rb.sim_events);
}

TEST(ExperimentRunner, SeedChangesOutcome)
{
    ExperimentConfig cfg_a = fastConfig();
    ExperimentConfig cfg_b = fastConfig();
    cfg_b.seed = 777;
    ExperimentRunner a(cfg_a);
    ExperimentRunner b(cfg_b);
    const auto ra = a.runApp("xalan", 8);
    const auto rb = b.runApp("xalan", 8);
    EXPECT_NE(ra.wall_time, rb.wall_time);
}

TEST(ExperimentRunner, SweepOrdersResultsByThreads)
{
    ExperimentRunner runner(fastConfig());
    const auto sweep = runner.sweep("sunflow", {1, 4, 8});
    ASSERT_EQ(sweep.size(), 3u);
    EXPECT_EQ(sweep[0].threads, 1u);
    EXPECT_EQ(sweep[2].threads, 8u);
}

TEST(ExperimentRunner, RunCustomUsesFactory)
{
    ExperimentRunner runner(fastConfig());
    workload::TaskQueueParams p;
    p.name = "custom-x";
    p.total_tasks = 50;
    const auto r = runner.runCustom(
        [&p] { return std::make_unique<workload::TaskQueueApp>(p); },
        "custom-x", 4);
    EXPECT_EQ(r.app_name, "custom-x");
    EXPECT_EQ(r.total_tasks, 50u);
}

TEST(ExperimentRunner, BiasedSchedulingConfigApplies)
{
    ExperimentConfig cfg = fastConfig();
    cfg.biased_scheduling = true;
    cfg.bias_groups = 2;
    ExperimentRunner runner(cfg);
    const auto r = runner.runApp("xalan", 8);
    EXPECT_GT(r.wall_time, 0u);
    EXPECT_EQ(r.total_tasks,
              ExperimentRunner(fastConfig())
                  .runApp("xalan", 8)
                  .total_tasks);
}

TEST(ExperimentRunner, ReplicatedRunsVaryBySeedOnly)
{
    ExperimentRunner runner(fastConfig());
    const auto reps = runner.runReplicated("sunflow", 4, 3);
    ASSERT_EQ(reps.size(), 3u);
    // Same work everywhere, different stochastic outcomes.
    EXPECT_EQ(reps[0].total_tasks, reps[1].total_tasks);
    EXPECT_EQ(reps[1].total_tasks, reps[2].total_tasks);
    EXPECT_NE(reps[0].wall_time, reps[1].wall_time);
    // Replicas carry their own seeds; the campaign's stays untouched,
    // so a fresh run matches the original configuration exactly.
    ExperimentRunner fresh(fastConfig());
    EXPECT_EQ(runner.runApp("sunflow", 4).wall_time,
              fresh.runApp("sunflow", 4).wall_time);
}

/** A run's full record (every field, histograms included) as bytes. */
std::string
recordBytes(const jvm::RunResult &r)
{
    std::ostringstream os;
    core::writeRunRecord(os, "point", "arm", r);
    return os.str();
}

TEST(ExperimentRunner, MixedArmBatchMatchesPerArmRunners)
{
    // One batch whose points alternate between a governed and an
    // ungoverned arm must give each point exactly what that arm's own
    // runner gives it: config, heap and seed come from the point's arm.
    ExperimentConfig plain = fastConfig();
    plain.jobs = 4;
    ExperimentConfig governed = plain;
    governed.governor.mode = control::GovernorMode::HillClimb;
    const core::ArmConfig plain_arm =
        std::make_shared<const ExperimentConfig>(plain);
    const core::ArmConfig gov_arm =
        std::make_shared<const ExperimentConfig>(governed);

    ExperimentRunner mixed(plain);
    const auto batch = mixed.runPoints({{"h2", 4, gov_arm},
                                        {"h2", 4, plain_arm},
                                        {"jython", 2, plain_arm},
                                        {"h2", 8, gov_arm}});
    ASSERT_EQ(batch.size(), 4u);

    ExperimentRunner plain_runner(plain);
    ExperimentRunner gov_runner(governed);
    const auto gov_h2 = gov_runner.sweep("h2", {4, 8});
    const auto plain_h2 = plain_runner.sweep("h2", {4});
    const auto plain_jython = plain_runner.sweep("jython", {2});
    EXPECT_TRUE(batch[0].governor.enabled);
    EXPECT_FALSE(batch[1].governor.enabled);
    EXPECT_EQ(recordBytes(batch[0]), recordBytes(gov_h2[0]));
    EXPECT_EQ(recordBytes(batch[1]), recordBytes(plain_h2[0]));
    EXPECT_EQ(recordBytes(batch[2]), recordBytes(plain_jython[0]));
    EXPECT_EQ(recordBytes(batch[3]), recordBytes(gov_h2[1]));
}

TEST(ExperimentRunner, ScatterPlacementRuns)
{
    ExperimentConfig cfg = fastConfig();
    cfg.placement = machine::Machine::EnablePolicy::Scatter;
    ExperimentRunner runner(cfg);
    const auto r = runner.runApp("sunflow", 4);
    EXPECT_EQ(r.cores, 4u);
    EXPECT_GT(r.wall_time, 0u);
}

TEST(Analyzer, ConfidenceInterval)
{
    using core::ScalabilityAnalyzer;
    const auto c =
        ScalabilityAnalyzer::confidence({10.0, 12.0, 11.0, 13.0, 9.0});
    EXPECT_DOUBLE_EQ(c.mean, 11.0);
    EXPECT_EQ(c.n, 5u);
    EXPECT_GT(c.ci95, 0.0);
    EXPECT_NEAR(c.stddev, 1.5811, 1e-3);

    const auto empty = ScalabilityAnalyzer::confidence({});
    EXPECT_EQ(empty.n, 0u);
    const auto single = ScalabilityAnalyzer::confidence({5.0});
    EXPECT_DOUBLE_EQ(single.mean, 5.0);
    EXPECT_DOUBLE_EQ(single.ci95, 0.0);
}

TEST(Analyzer, WallTimeConfidenceOverReplicas)
{
    ExperimentRunner runner(fastConfig());
    const auto reps = runner.runReplicated("jython", 4, 4);
    const auto c = core::ScalabilityAnalyzer::wallTimeConfidence(reps);
    EXPECT_EQ(c.n, 4u);
    EXPECT_GT(c.mean, 0.0);
    // The simulator's run-to-run spread is small relative to the mean.
    EXPECT_LT(c.ci95, 0.2 * c.mean);
}

TEST(ExperimentRunner, InvalidHeapFactorDies)
{
    ExperimentConfig cfg = fastConfig();
    cfg.heap_factor = 0.5;
    EXPECT_DEATH(ExperimentRunner runner(cfg), "heap factor");
}

} // namespace
