/**
 * @file
 * Watchdog and error-isolation tests: the sim-time watchdog converts a
 * livelocked run into a diagnosed WatchdogError, the sim-time guard
 * throws AbortError instead of killing the process, and the experiment
 * harness isolates both as per-run failures (error artifact + failed()
 * marker) while the rest of the batch completes.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "base/error.hh"
#include "base/units.hh"
#include "core/experiment.hh"
#include "core/parallel.hh"
#include "jvm/runtime/app.hh"
#include "test_tempdir.hh"

namespace {

using namespace jscale;

/**
 * A deliberately livelocked application: every thread does a little
 * setup work, then blocks forever on a channel nobody posts to.
 */
class LivelockApp : public jvm::ApplicationModel
{
  public:
    std::string appName() const override { return "livelock"; }

    void
    setup(jvm::AppContext &ctx) override
    {
        starved_ = ctx.createChannel("livelock.starved", 0);
    }

    std::unique_ptr<jvm::ActionSource>
    threadSource(std::uint32_t, jvm::AppContext &) override
    {
        class Source : public jvm::ActionSource
        {
          public:
            explicit Source(jvm::ChannelId ch) : ch_(ch) {}

            jvm::Action
            next() override
            {
                switch (step_++) {
                  case 0:
                    return jvm::Action::compute(10 * units::US);
                  case 1:
                    return jvm::Action::channelAcquire(ch_);
                  default:
                    return jvm::Action::end();
                }
            }

          private:
            jvm::ChannelId ch_;
            int step_ = 0;
        };
        return std::make_unique<Source>(starved_);
    }

  private:
    jvm::ChannelId starved_ = 0;
};

core::ExperimentConfig
watchdogCfg()
{
    core::ExperimentConfig cfg;
    cfg.workload_scale = 0.05;
    cfg.heap_override = 32 * units::MiB; // skip calibration runs
    cfg.watchdog = true;
    cfg.watchdog_config.interval = 5 * units::MS;
    cfg.watchdog_config.stalled_limit = 3;
    return cfg;
}

TEST(Watchdog, LivelockedRunThrowsDiagnosedWatchdogError)
{
    core::ExperimentRunner runner(watchdogCfg());
    try {
        runner.runCustom([] { return std::make_unique<LivelockApp>(); },
                         "livelock", 4);
        FAIL() << "livelocked run should not complete";
    } catch (const WatchdogError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("no forward progress"), std::string::npos)
            << what;
        // The diagnostic names the stuck threads and their states.
        EXPECT_NE(what.find("thread states"), std::string::npos) << what;
    }
}

TEST(Watchdog, HealthyRunIsUntouchedByTheWatchdog)
{
    core::ExperimentConfig with = watchdogCfg();
    core::ExperimentConfig without = watchdogCfg();
    without.watchdog = false;
    core::ExperimentRunner a(with);
    core::ExperimentRunner b(without);
    const jvm::RunResult ra = a.runApp("xalan", 4);
    const jvm::RunResult rb = b.runApp("xalan", 4);
    // The watchdog is an observer: arming it must not change simulated
    // behaviour (its own check events do add to the sim-event count).
    EXPECT_EQ(ra.wall_time, rb.wall_time);
    EXPECT_EQ(ra.total_tasks, rb.total_tasks);
    EXPECT_EQ(ra.gc_time, rb.gc_time);
}

TEST(Watchdog, RunIsolationCapturesWatchdogErrorPerTask)
{
    // The batch executor turns a livelocked run into a per-task error
    // while healthy tasks in the same batch complete.
    core::ExperimentRunner runner(watchdogCfg());
    std::vector<std::function<jvm::RunResult()>> tasks;
    tasks.push_back([&runner]() -> jvm::RunResult {
        return runner.runCustom(
            [] { return std::make_unique<LivelockApp>(); }, "livelock",
            4);
    });
    tasks.push_back(
        [&runner] { return runner.runApp("sunflow", 4); });

    const auto outcomes =
        core::ParallelExecutor(1).runIsolated(std::move(tasks));
    ASSERT_EQ(outcomes.size(), 2u);
    EXPECT_FALSE(outcomes[0].ok);
    EXPECT_NE(outcomes[0].error.find("no forward progress"),
              std::string::npos)
        << outcomes[0].error;
    EXPECT_TRUE(outcomes[1].ok);
    EXPECT_GT(outcomes[1].result.total_tasks, 0u);
}

TEST(Watchdog, SimTimeGuardAbortsInsteadOfKillingTheProcess)
{
    core::ExperimentConfig cfg;
    cfg.workload_scale = 0.05;
    cfg.heap_override = 32 * units::MiB;
    cfg.vm.max_run_time = 1 * units::MS; // far below any real run
    core::ExperimentRunner runner(cfg);
    EXPECT_THROW(runner.runApp("xalan", 4), AbortError);
}

TEST(Watchdog, SweepIsolatesAbortedRunsAsFailedMarkers)
{
    const jscale::testing::TempDir tmp;
    const std::string error_dir = tmp.path.string();

    core::ExperimentConfig cfg;
    cfg.workload_scale = 0.05;
    cfg.heap_override = 32 * units::MiB;
    cfg.vm.max_run_time = 1 * units::MS;
    cfg.error_path = error_dir + "/{app}-t{threads}.error.txt";
    core::ExperimentRunner runner(cfg);

    // No throw: both points come back as failed() markers.
    const auto results = runner.sweep("xalan", {2, 4});
    ASSERT_EQ(results.size(), 2u);
    for (const auto &r : results) {
        EXPECT_TRUE(r.failed());
        EXPECT_NE(r.run_error.find("did not finish"), std::string::npos)
            << r.run_error;
        EXPECT_EQ(r.app_name, "xalan");
    }
    EXPECT_EQ(results[0].threads, 2u);
    EXPECT_EQ(results[1].threads, 4u);

    // Each failure left a per-run error artifact.
    EXPECT_TRUE(std::filesystem::exists(error_dir + "/xalan-t2.error.txt"));
    EXPECT_TRUE(std::filesystem::exists(error_dir + "/xalan-t4.error.txt"));
    std::ifstream in(error_dir + "/xalan-t2.error.txt");
    std::string contents((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
    EXPECT_NE(contents.find("did not finish"), std::string::npos)
        << contents;
}

} // namespace
