/**
 * @file
 * The campaign batch (ExperimentRunner::runPoints): every point resolves
 * into its own result slot, a point that throws becomes that slot's
 * failed() marker while its siblings complete, results come back in
 * point order, and any jobs setting gives the same rows. Also pins the
 * point keys and cache record names a campaign writes.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <system_error>
#include <vector>

#include "base/error.hh"
#include "core/experiment.hh"
#include "core/fuzz.hh"
#include "core/run_record.hh"
#include "core/shard.hh"
#include "test_tempdir.hh"
#include "workload/task_queue_app.hh"

namespace {

using namespace jscale;
using core::CampaignPoint;
using core::ExperimentConfig;
using core::ExperimentRunner;

/** A small machine and a fixed heap, so no point calibrates. */
core::ArmConfig
smallArm()
{
    ExperimentConfig cfg;
    cfg.machine = machine::Machine::testMachine_2p8c();
    cfg.heap_override = 32 * units::MiB;
    cfg.error_path.clear();
    return std::make_shared<const ExperimentConfig>(std::move(cfg));
}

/** Point @p i: a task-queue app of @p tasks tasks on two threads. */
CampaignPoint
queuePoint(const core::ArmConfig &arm, int i, std::uint64_t tasks)
{
    CampaignPoint p;
    p.factory = [tasks] {
        workload::TaskQueueParams params;
        params.name = "queue";
        params.total_tasks = tasks;
        return std::make_unique<workload::TaskQueueApp>(params);
    };
    p.threads = 2;
    p.arm = arm;
    p.seed = static_cast<std::uint64_t>(i) + 1;
    p.key = "queue-" + std::to_string(i);
    return p;
}

/** A probe that throws @p error as soon as the run builds it. */
template <typename Error>
core::RunProbe
throwingProbe(Error error)
{
    return [error](core::RunRig &) -> std::unique_ptr<jvm::RuntimeListener> {
        throw error;
    };
}

ExperimentConfig
withJobs(std::uint32_t jobs)
{
    ExperimentConfig exec;
    exec.jobs = jobs;
    return exec;
}

/** A result row as its full record bytes. */
std::string
recordBytes(const jvm::RunResult &r)
{
    std::ostringstream os;
    core::writeRunRecord(os, "point", "arm", r);
    return os.str();
}

TEST(CampaignBatch, AbortedPointBecomesItsSlotsFailedMarker)
{
    const core::ArmConfig arm = smallArm();
    std::vector<CampaignPoint> points;
    for (int i = 0; i < 6; ++i) {
        points.push_back(queuePoint(arm, i, 20 + i));
        if (i % 2 == 1) {
            points.back().probe = throwingProbe(
                AbortError("task " + std::to_string(i) + " aborted"));
        }
    }
    core::resetCampaignPointStats();
    const auto results = ExperimentRunner(withJobs(3)).runPoints(points);
    ASSERT_EQ(results.size(), 6u);
    for (int i = 0; i < 6; ++i) {
        const jvm::RunResult &r = results[i];
        EXPECT_EQ(r.app_name, "queue") << i;
        EXPECT_EQ(r.threads, 2u) << i;
        if (i % 2 == 1) {
            EXPECT_TRUE(r.failed()) << i;
            EXPECT_EQ(r.run_error, "task " + std::to_string(i) + " aborted");
            EXPECT_EQ(r.total_tasks, 0u) << i;
        } else {
            EXPECT_FALSE(r.failed()) << i << ": " << r.run_error;
            EXPECT_EQ(r.total_tasks, static_cast<std::uint64_t>(20 + i));
        }
    }
    const core::CampaignPointStats &stats = core::campaignPointStats();
    EXPECT_EQ(stats.executed.load(), 3u);
    EXPECT_EQ(stats.failed.load(), 3u);
}

TEST(CampaignBatch, NonStdThrowReadsUnknownError)
{
    std::vector<CampaignPoint> points = {queuePoint(smallArm(), 0, 10)};
    points[0].probe = throwingProbe(42);
    const auto results = ExperimentRunner(withJobs(1)).runPoints(points);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].run_error, "unknown error");
}

TEST(CampaignBatch, ResultsComeBackInPointOrder)
{
    // Earlier points carry more work, so on four workers they finish
    // after later ones; each must still land in its own slot.
    const core::ArmConfig arm = smallArm();
    std::vector<CampaignPoint> points;
    for (int i = 0; i < 12; ++i)
        points.push_back(queuePoint(arm, i, 400 - 30 * i));
    const auto results = ExperimentRunner(withJobs(4)).runPoints(points);
    ASSERT_EQ(results.size(), 12u);
    for (int i = 0; i < 12; ++i) {
        EXPECT_EQ(results[i].total_tasks,
                  static_cast<std::uint64_t>(400 - 30 * i))
            << i;
    }
}

TEST(CampaignBatch, OneAndFourJobsGiveIdenticalRows)
{
    const core::ArmConfig arm = smallArm();
    std::vector<CampaignPoint> points;
    for (int i = 0; i < 5; ++i)
        points.push_back(queuePoint(arm, i, 30 + 7 * i));
    points.back().probe = throwingProbe(std::runtime_error("tail failure"));
    const auto seq = ExperimentRunner(withJobs(1)).runPoints(points);
    const auto par = ExperimentRunner(withJobs(4)).runPoints(points);
    ASSERT_EQ(seq.size(), 5u);
    ASSERT_EQ(par.size(), 5u);
    for (std::size_t i = 0; i < seq.size(); ++i)
        EXPECT_EQ(recordBytes(seq[i]), recordBytes(par[i])) << i;
    EXPECT_EQ(seq.back().run_error, "tail failure");
    EXPECT_FALSE(seq.front().failed());
}

TEST(CampaignBatch, OneJobCompletesEveryPoint)
{
    const core::ArmConfig arm = smallArm();
    std::vector<CampaignPoint> points;
    for (int i = 0; i < 4; ++i)
        points.push_back(queuePoint(arm, i, 10 + i));
    core::resetCampaignPointStats();
    const auto results = ExperimentRunner(withJobs(1)).runPoints(points);
    ASSERT_EQ(results.size(), 4u);
    for (int i = 0; i < 4; ++i) {
        EXPECT_FALSE(results[i].failed()) << i << ": " << results[i].run_error;
        EXPECT_EQ(results[i].total_tasks, static_cast<std::uint64_t>(10 + i))
            << i;
    }
    EXPECT_EQ(core::campaignPointStats().executed.load(), 4u);
}

TEST(CampaignBatch, EmptyBatchIsANoOp)
{
    EXPECT_TRUE(ExperimentRunner(withJobs(1)).runPoints({}).empty());
    EXPECT_TRUE(ExperimentRunner(withJobs(4)).runPoints({}).empty());
}

TEST(CampaignBatch, EmptyBatchRunsNoPoint)
{
    // An empty batch over a cache counts no point of any kind and
    // leaves no record behind.
    jscale::testing::TempDir tmp;
    ExperimentConfig exec = withJobs(4);
    exec.run_cache_dir = tmp.file("cache");
    core::resetCampaignPointStats();
    EXPECT_TRUE(ExperimentRunner(exec).runPoints({}).empty());
    const core::CampaignPointStats &stats = core::campaignPointStats();
    EXPECT_EQ(stats.salvaged.load(), 0u);
    EXPECT_EQ(stats.executed.load(), 0u);
    EXPECT_EQ(stats.failed.load(), 0u);
    EXPECT_EQ(stats.missing.load(), 0u);
    EXPECT_EQ(stats.skipped.load(), 0u);
    std::error_code ec;
    EXPECT_TRUE(std::filesystem::directory_iterator(exec.run_cache_dir, ec) ==
                std::filesystem::directory_iterator());
}

/** The one record file in @p dir and the key its record names. */
std::pair<std::string, std::string>
onlyRecord(const std::filesystem::path &dir)
{
    std::vector<std::filesystem::path> files;
    for (const auto &entry : std::filesystem::directory_iterator(dir))
        files.push_back(entry.path());
    EXPECT_EQ(files.size(), 1u);
    if (files.empty())
        return {};
    std::ifstream in(files.front());
    std::string header;
    std::string key;
    std::getline(in, header);
    std::getline(in, key);
    return {files.front().filename().string(), key};
}

TEST(CampaignBatch, PointKeysAndRecordNamesArePinned)
{
    // Seeds, point keys and arm fingerprints name every cache record; a
    // change to any of them orphans every cache a campaign has written.
    jscale::testing::TempDir tmp;
    ExperimentConfig cfg;
    cfg.workload_scale = 0.02;
    cfg.heap_override = 64 * units::MiB;
    cfg.run_cache_dir = tmp.file("dacapo");
    ExperimentRunner runner(cfg);
    const CampaignPoint xalan = core::dacapoPoint(
        std::make_shared<const ExperimentConfig>(cfg), "xalan", 2);
    runner.runPoints({xalan});
    const auto [dacapo_file, dacapo_key] = onlyRecord(cfg.run_cache_dir);
    EXPECT_EQ(dacapo_file, core::RunCache::recordFileName(
                               xalan.key, runner.campaignFingerprint()));
    EXPECT_EQ(dacapo_key, "key xalan|t2|sa213fdfc9d327778");
    EXPECT_EQ(dacapo_file, "xalan_t2_sa213fdfc9d327778-dae1e39024f9fb8b-"
                           "89ab78bfdc85dba.run");

    ExperimentConfig exec;
    exec.run_cache_dir = tmp.file("fuzz");
    core::runFuzzCampaign({7}, core::Sabotage::None, 0, nullptr, exec);
    const auto [fuzz_file, fuzz_key] = onlyRecord(exec.run_cache_dir);
    EXPECT_EQ(fuzz_key, "key seed=7 threads=4 tasks=101 monitors=5 "
                        "heap=5242880 tlab=0 intensity=0 governed=1 "
                        "policy=barging sabotage=none");
    EXPECT_EQ(fuzz_file,
              "seed_7_threads_4_tasks_101_monitors_5_heap_5242880_tlab_0_"
              "intensity_0_governed_1_policy_barging_sabotage_none-"
              "57722e0300959f86-a35d211368944a70.run");
}

} // namespace
