/**
 * @file
 * Tests for Java Object.wait()/notify() semantics on monitors and for
 * the wait-for-graph deadlock detector.
 */

#include <gtest/gtest.h>

#include <vector>

#include "test_apps.hh"

namespace {

using namespace jscale;
using test::ScriptApp;
using test::VmHarness;

TEST(WaitNotify, WaiterResumesAfterNotify)
{
    using jvm::Action;
    // Thread 0 waits on m0; thread 1 computes, then notifies.
    ScriptApp app(1, [](std::uint32_t idx, const auto &m) {
        std::vector<Action> s;
        if (idx == 0) {
            s.push_back(Action::monitorEnter(m[0]));
            s.push_back(Action::monitorWait(m[0]));
            // Resumes holding the monitor again:
            s.push_back(Action::compute(1 * units::US));
            s.push_back(Action::monitorExit(m[0]));
            s.push_back(Action::taskDone());
        } else {
            s.push_back(Action::compute(200 * units::US));
            s.push_back(Action::monitorEnter(m[0]));
            s.push_back(Action::monitorNotify(m[0]));
            s.push_back(Action::monitorExit(m[0]));
            s.push_back(Action::taskDone());
        }
        return s;
    });
    VmHarness h(2);
    const jvm::RunResult r = h.vm.run(app, 2);
    EXPECT_EQ(r.total_tasks, 2u);
    EXPECT_EQ(r.locks.waits, 1u);
    EXPECT_EQ(r.locks.notifies, 1u);
    // The waiter's wait counts as one re-acquisition contention.
    EXPECT_GE(r.locks.contentions, 1u);
}

TEST(WaitNotify, NotifyAllWakesEveryWaiter)
{
    using jvm::Action;
    constexpr std::uint32_t kWaiters = 5;
    ScriptApp app(1, [](std::uint32_t idx, const auto &m) {
        std::vector<Action> s;
        if (idx < kWaiters) {
            s.push_back(Action::monitorEnter(m[0]));
            s.push_back(Action::monitorWait(m[0]));
            s.push_back(Action::monitorExit(m[0]));
            s.push_back(Action::taskDone());
        } else {
            s.push_back(Action::compute(500 * units::US));
            s.push_back(Action::monitorEnter(m[0]));
            s.push_back(Action::monitorNotify(m[0], 0)); // notifyAll
            s.push_back(Action::monitorExit(m[0]));
            s.push_back(Action::taskDone());
        }
        return s;
    });
    VmHarness h(8);
    const jvm::RunResult r = h.vm.run(app, kWaiters + 1);
    EXPECT_EQ(r.total_tasks, kWaiters + 1u);
    EXPECT_EQ(r.locks.waits, kWaiters);
}

TEST(WaitNotify, NotifyWithoutWaitersIsANoOp)
{
    using jvm::Action;
    ScriptApp app(1, [](std::uint32_t, const auto &m) {
        std::vector<Action> s;
        s.push_back(Action::monitorEnter(m[0]));
        s.push_back(Action::monitorNotify(m[0]));
        s.push_back(Action::monitorExit(m[0]));
        s.push_back(Action::taskDone());
        return s;
    });
    VmHarness h(2);
    const jvm::RunResult r = h.vm.run(app, 1);
    EXPECT_EQ(r.total_tasks, 1u);
    EXPECT_EQ(r.locks.notifies, 1u);
}

TEST(WaitNotify, WaitRequiresOwnership)
{
    using jvm::Action;
    ScriptApp app(1, [](std::uint32_t, const auto &m) {
        std::vector<Action> s;
        s.push_back(Action::monitorWait(m[0])); // never acquired!
        return s;
    });
    EXPECT_DEATH({
        VmHarness h(2);
        h.vm.run(app, 1);
    }, "wait");
}

TEST(WaitNotify, ProducerConsumerViaWaitNotify)
{
    // Classic guarded handoff: consumer waits until the producer
    // notifies, N rounds, strictly alternating through the monitor.
    using jvm::Action;
    constexpr int kRounds = 10;
    ScriptApp app(1, [](std::uint32_t idx, const auto &m) {
        std::vector<Action> s;
        if (idx == 0) { // consumer
            for (int i = 0; i < kRounds; ++i) {
                s.push_back(Action::monitorEnter(m[0]));
                s.push_back(Action::monitorWait(m[0]));
                s.push_back(Action::compute(2 * units::US));
                s.push_back(Action::monitorExit(m[0]));
                s.push_back(Action::taskDone());
            }
        } else { // producer
            for (int i = 0; i < kRounds; ++i) {
                s.push_back(Action::compute(100 * units::US));
                s.push_back(Action::monitorEnter(m[0]));
                s.push_back(Action::monitorNotify(m[0]));
                s.push_back(Action::monitorExit(m[0]));
                s.push_back(Action::taskDone());
            }
        }
        return s;
    });
    VmHarness h(2);
    const jvm::RunResult r = h.vm.run(app, 2);
    EXPECT_EQ(r.total_tasks, 2u * kRounds);
    EXPECT_EQ(r.locks.waits, static_cast<std::uint64_t>(kRounds));
    EXPECT_EQ(r.locks.notifies, static_cast<std::uint64_t>(kRounds));
}

TEST(DeadlockDetector, AbBaDeadlockIsReportedWithCycle)
{
    using jvm::Action;
    // Thread 0: lock m0, then m1. Thread 1: lock m1, then m0, with
    // compute placed so both grab their first lock before the second.
    ScriptApp app(2, [](std::uint32_t idx, const auto &m) {
        std::vector<Action> s;
        const jvm::MonitorId first = idx == 0 ? m[0] : m[1];
        const jvm::MonitorId second = idx == 0 ? m[1] : m[0];
        s.push_back(Action::monitorEnter(first));
        s.push_back(Action::compute(500 * units::US));
        s.push_back(Action::monitorEnter(second));
        s.push_back(Action::monitorExit(second));
        s.push_back(Action::monitorExit(first));
        s.push_back(Action::taskDone());
        return s;
    });
    EXPECT_DEATH({
        VmHarness h(2);
        ScriptApp bad(2, [](std::uint32_t idx, const auto &m) {
            std::vector<jvm::Action> s;
            const jvm::MonitorId first = idx == 0 ? m[0] : m[1];
            const jvm::MonitorId second = idx == 0 ? m[1] : m[0];
            s.push_back(jvm::Action::monitorEnter(first));
            s.push_back(jvm::Action::compute(500 * units::US));
            s.push_back(jvm::Action::monitorEnter(second));
            s.push_back(jvm::Action::monitorExit(second));
            s.push_back(jvm::Action::monitorExit(first));
            return s;
        });
        h.vm.run(bad, 2);
    }, "monitor deadlock detected: thread 1 -> \\[m0\\] -> thread 0 -> "
       "\\[m1\\] -> thread 1\n");
    (void)app;
}

TEST(DeadlockDetector, OrderedLockingNeverTriggers)
{
    using jvm::Action;
    ScriptApp app(2, [](std::uint32_t, const auto &m) {
        std::vector<Action> s;
        for (int i = 0; i < 20; ++i) {
            s.push_back(Action::monitorEnter(m[0]));
            s.push_back(Action::monitorEnter(m[1]));
            s.push_back(Action::compute(2 * units::US));
            s.push_back(Action::monitorExit(m[1]));
            s.push_back(Action::monitorExit(m[0]));
            s.push_back(Action::taskDone());
        }
        return s;
    });
    VmHarness h(4);
    const jvm::RunResult r = h.vm.run(app, 4);
    EXPECT_EQ(r.total_tasks, 4u * 20u);
}

} // namespace
