/**
 * @file
 * Shard supervisor tests: exit classification, the exponential backoff
 * schedule, and end-to-end fork/monitor/retry behavior against small
 * /bin/sh stand-in workers — crash-then-succeed recovery, deterministic
 * failures not retried, and honest degradation when the retry budget
 * runs out — and the removal of the temp files reaped workers left.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "core/supervisor.hh"
#include "test_tempdir.hh"

namespace {

using namespace jscale;
using core::FailureClass;

TEST(ClassifyWorkerExit, CoversEveryClass)
{
    EXPECT_EQ(core::classifyWorkerExit(true, 0, false, false),
              FailureClass::None);
    EXPECT_EQ(core::classifyWorkerExit(true, 1, false, false),
              FailureClass::Deterministic);
    EXPECT_EQ(core::classifyWorkerExit(true, 127, false, false),
              FailureClass::Deterministic);
    EXPECT_EQ(core::classifyWorkerExit(false, 0, true, false),
              FailureClass::Transient);
    // A worker the supervisor killed for blowing its deadline reads as
    // signaled too; the timed_out flag must win.
    EXPECT_EQ(core::classifyWorkerExit(false, 0, true, true),
              FailureClass::Timeout);
}

TEST(ClassifyWorkerExit, NamesAreStable)
{
    EXPECT_STREQ(core::failureClassName(FailureClass::None), "none");
    EXPECT_STREQ(core::failureClassName(FailureClass::Deterministic),
                 "deterministic");
    EXPECT_STREQ(core::failureClassName(FailureClass::Transient),
                 "transient");
    EXPECT_STREQ(core::failureClassName(FailureClass::Timeout), "timeout");
}

TEST(BackoffDelay, DoublesPerRetryAndCaps)
{
    EXPECT_EQ(core::backoffDelayMs(250, 1), 250u);
    EXPECT_EQ(core::backoffDelayMs(250, 2), 500u);
    EXPECT_EQ(core::backoffDelayMs(250, 3), 1000u);
    EXPECT_EQ(core::backoffDelayMs(250, 8), 30'000u); // 32000 capped
    EXPECT_EQ(core::backoffDelayMs(250, 60), 30'000u); // shift clamped
    EXPECT_EQ(core::backoffDelayMs(0, 5), 0u);
    EXPECT_EQ(core::backoffDelayMs(250, 0), 0u);
    // A base near the --backoff-ms bound must cap, not shift past 64 bits.
    EXPECT_EQ(core::backoffDelayMs(1ULL << 44, 21), 30'000u);
}

class SuperviseTest : public ::testing::Test
{
  protected:
    core::SupervisorConfig fastConfig()
    {
        core::SupervisorConfig cfg;
        cfg.retries = 2;
        cfg.backoff_ms = 1; // keep test wall-clock tiny
        cfg.log_dir = dir_;
        return cfg;
    }

    static core::ArgvBuilder shell(const std::string &script)
    {
        return [script](std::uint32_t) {
            return std::vector<std::string>{"/bin/sh", "-c", script};
        };
    }

    jscale::testing::TempDir tmp_;
    const std::string dir_ = tmp_.path.string();
};

TEST_F(SuperviseTest, CleanWorkersSucceedFirstAttempt)
{
    std::ostringstream log;
    const auto report =
        core::superviseWorkers(3, fastConfig(), shell("exit 0"), log);
    EXPECT_TRUE(report.allSucceeded());
    EXPECT_EQ(report.totalAttempts(), 3u);
    for (const auto &w : report.workers) {
        ASSERT_EQ(w.attempts.size(), 1u);
        EXPECT_EQ(w.attempts[0].failure, FailureClass::None);
    }
}

TEST_F(SuperviseTest, CrashedWorkerIsRetriedAndRecovers)
{
    // First attempt leaves a marker and dies by SIGKILL — exactly the
    // chaos failure mode; the retry finds the marker and succeeds.
    const std::string marker = dir_ + "/once";
    const std::string script = "if [ -f " + marker +
                               " ]; then exit 0; else touch " + marker +
                               " && kill -9 $$; fi";
    std::ostringstream log;
    const auto report =
        core::superviseWorkers(1, fastConfig(), shell(script), log);
    EXPECT_TRUE(report.allSucceeded());
    ASSERT_EQ(report.workers[0].attempts.size(), 2u);
    EXPECT_EQ(report.workers[0].attempts[0].failure,
              FailureClass::Transient);
    EXPECT_EQ(report.workers[0].attempts[0].term_signal, 9);
    EXPECT_EQ(report.workers[0].attempts[1].failure, FailureClass::None);
    EXPECT_NE(log.str().find("retrying"), std::string::npos);
}

TEST_F(SuperviseTest, DeterministicFailureIsNotRetried)
{
    // A normal nonzero exit repeats identically in a deterministic
    // simulator; retrying would burn budget for nothing.
    std::ostringstream log;
    const auto report =
        core::superviseWorkers(1, fastConfig(), shell("exit 3"), log);
    EXPECT_FALSE(report.allSucceeded());
    ASSERT_EQ(report.workers[0].attempts.size(), 1u);
    EXPECT_EQ(report.workers[0].attempts[0].failure,
              FailureClass::Deterministic);
    EXPECT_EQ(report.workers[0].attempts[0].exit_code, 3);
    EXPECT_NE(log.str().find("not retrying"), std::string::npos);
}

TEST_F(SuperviseTest, RetryBudgetExhaustionDegradesHonestly)
{
    core::SupervisorConfig cfg = fastConfig();
    cfg.retries = 1;
    std::ostringstream log;
    const auto report =
        core::superviseWorkers(1, cfg, shell("kill -9 $$"), log);
    EXPECT_FALSE(report.allSucceeded());
    // First attempt + exactly one retry, then give up.
    ASSERT_EQ(report.workers[0].attempts.size(), 2u);
    for (const auto &a : report.workers[0].attempts)
        EXPECT_EQ(a.failure, FailureClass::Transient);
    EXPECT_NE(log.str().find("retry budget exhausted"),
              std::string::npos);

    std::ostringstream printed;
    report.print(printed);
    EXPECT_NE(printed.str().find("FAILED"), std::string::npos);
}

TEST_F(SuperviseTest, MixedFleetReportsPerWorker)
{
    core::SupervisorConfig cfg = fastConfig();
    cfg.retries = 0;
    const core::ArgvBuilder argv_for = [](std::uint32_t shard) {
        return std::vector<std::string>{
            "/bin/sh", "-c", shard == 0 ? "exit 0" : "exit 7"};
    };
    std::ostringstream log;
    const auto report = core::superviseWorkers(2, cfg, argv_for, log);
    EXPECT_FALSE(report.allSucceeded());
    EXPECT_TRUE(report.workers[0].succeeded);
    EXPECT_FALSE(report.workers[1].succeeded);
    EXPECT_EQ(report.workers[1].last()->exit_code, 7);
}

TEST_F(SuperviseTest, WallClockTimeoutKillsAndClassifies)
{
    core::SupervisorConfig cfg = fastConfig();
    cfg.retries = 0;
    cfg.timeout_s = 1;
    std::ostringstream log;
    // The in-process sim-time watchdog cannot fire in a wedged worker;
    // the supervisor's wall clock is the backstop.
    const auto report =
        core::superviseWorkers(1, cfg, shell("sleep 30"), log);
    EXPECT_FALSE(report.allSucceeded());
    ASSERT_EQ(report.workers[0].attempts.size(), 1u);
    EXPECT_EQ(report.workers[0].attempts[0].failure,
              FailureClass::Timeout);
    EXPECT_NE(log.str().find("wall clock"), std::string::npos);
}

TEST_F(SuperviseTest, WorkerLogsAreCapturedPerAttempt)
{
    std::ostringstream log;
    const auto report = core::superviseWorkers(
        1, fastConfig(), shell("echo worker-was-here"), log);
    ASSERT_TRUE(report.allSucceeded());
    const std::string &path = report.workers[0].attempts[0].log_path;
    ASSERT_FALSE(path.empty());
    std::ifstream in(path);
    std::string contents((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
    EXPECT_NE(contents.find("worker-was-here"), std::string::npos);
}

TEST_F(SuperviseTest, TempsOfReapedWorkersAreRemovedAndNoOthers)
{
    // The first attempt publishes one record, leaves a second one
    // half-written under its own pid and dies by SIGKILL, like a shard
    // killed mid-batch; the retry succeeds.
    const std::string cache = dir_ + "/cache";
    std::filesystem::create_directories(cache);
    const std::string script =
        "if [ -f " + cache + "/a.run ]; then exit 0; fi; touch " + cache +
        "/a.run " + cache + "/b.run.tmp.$$ && kill -9 $$";
    // A live writer's temp (this process) and one whose pid merely
    // starts like a worker's stay.
    const std::string live =
        cache + "/c.run.tmp." + std::to_string(::getpid());
    std::ofstream(live).put('x');
    std::ostringstream log;
    const auto report =
        core::superviseWorkers(1, fastConfig(), shell(script), log);
    ASSERT_TRUE(report.allSucceeded());
    ASSERT_EQ(report.workers[0].attempts.size(), 2u);
    const long dead = report.workers[0].attempts[0].pid;
    ASSERT_GT(dead, 0);
    const std::string prefix =
        cache + "/d.run.tmp." + std::to_string(dead) + "0";
    std::ofstream(prefix).put('x');

    EXPECT_EQ(core::removeWorkerTemps(cache, report), 1u);
    EXPECT_FALSE(std::filesystem::exists(
        cache + "/b.run.tmp." + std::to_string(dead)));
    EXPECT_TRUE(std::filesystem::exists(cache + "/a.run"));
    EXPECT_TRUE(std::filesystem::exists(live));
    EXPECT_TRUE(std::filesystem::exists(prefix));
}

} // namespace
