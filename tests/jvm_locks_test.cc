/**
 * @file
 * Tests for monitors and channels: mutual exclusion, FIFO handoff,
 * contention accounting and semaphore semantics — verified through
 * full VM runs with probe listeners (the monitors' wake path needs a
 * live scheduler).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "test_apps.hh"

namespace {

using namespace jscale;
using test::TinyApp;
using test::TinyAppParams;
using test::VmHarness;

/** Listener asserting monitor mutual exclusion as events stream by. */
struct MutexProbe : jvm::RuntimeListener
{
    std::map<jvm::MonitorId, std::int64_t> holders;
    std::map<jvm::MonitorId, std::uint64_t> acquires;
    std::map<jvm::MonitorId, std::uint64_t> releases;
    std::map<jvm::MonitorId, std::uint64_t> contentions;
    bool violated = false;

    void
    onMonitorAcquire(jvm::MutatorIndex, jvm::MonitorId m, bool,
                     Ticks) override
    {
        if (++holders[m] > 1)
            violated = true;
        ++acquires[m];
    }

    void
    onMonitorRelease(jvm::MutatorIndex, jvm::MonitorId m, Ticks) override
    {
        if (--holders[m] < 0)
            violated = true;
        ++releases[m];
    }

    void
    onMonitorContended(jvm::MutatorIndex, jvm::MonitorId m,
                       Ticks) override
    {
        ++contentions[m];
    }
};

TEST(Monitor, MutualExclusionHoldsUnderContention)
{
    VmHarness h(8);
    MutexProbe probe;
    h.vm.listeners().add(&probe);
    TinyAppParams p;
    p.tasks_per_thread = 50;
    p.compute_per_task = 2 * units::US;
    p.use_shared_lock = 3000; // hot lock
    TinyApp app(p);
    const jvm::RunResult r = h.vm.run(app, 8);
    EXPECT_FALSE(probe.violated);
    // Every acquisition is eventually released.
    for (const auto &[m, acq] : probe.acquires)
        EXPECT_EQ(acq, probe.releases[m]);
    // Eight threads on one hot lock must contend.
    EXPECT_GT(r.locks.contentions, 0u);
    EXPECT_EQ(r.locks.acquisitions, 8u * 50u);
}

TEST(Monitor, UncontendedSingleThreadNeverContends)
{
    VmHarness h(2);
    TinyAppParams p;
    p.tasks_per_thread = 30;
    p.use_shared_lock = 1000;
    TinyApp app(p);
    const jvm::RunResult r = h.vm.run(app, 1);
    EXPECT_EQ(r.locks.acquisitions, 30u);
    EXPECT_EQ(r.locks.contentions, 0u);
    EXPECT_EQ(r.locks.block_time, 0u);
}

TEST(Monitor, ContentionCountsAndBlockTimeConsistent)
{
    VmHarness h(8);
    MutexProbe probe;
    h.vm.listeners().add(&probe);
    TinyAppParams p;
    p.tasks_per_thread = 40;
    p.compute_per_task = 1 * units::US;
    p.use_shared_lock = 5000;
    TinyApp app(p);
    const jvm::RunResult r = h.vm.run(app, 8);
    std::uint64_t probed = 0;
    for (const auto &[m, c] : probe.contentions)
        probed += c;
    EXPECT_EQ(probed, r.locks.contentions);
    EXPECT_GT(r.locks.block_time, 0u);
    EXPECT_LT(r.locks.contentions, r.locks.acquisitions);
}

TEST(Monitor, MoreThreadsMoreContention)
{
    auto contentions = [](std::uint32_t threads) {
        VmHarness h(8);
        TinyAppParams p;
        p.tasks_per_thread = 400 / threads; // fixed total lock traffic
        p.compute_per_task = 2 * units::US;
        p.use_shared_lock = 4000;
        TinyApp app(p);
        return h.vm.run(app, threads).locks.contentions;
    };
    const auto c2 = contentions(2);
    const auto c8 = contentions(8);
    EXPECT_GT(c8, c2);
}

/** Pipeline app exercising channel (semaphore) semantics. */
class ChannelApp : public jvm::ApplicationModel
{
  public:
    std::string appName() const override { return "channel-app"; }

    void
    setup(jvm::AppContext &ctx) override
    {
        chan_ = ctx.createChannel("units", 0);
    }

    std::unique_ptr<jvm::ActionSource>
    threadSource(std::uint32_t idx, jvm::AppContext &) override
    {
        using jvm::Action;
        std::vector<Action> script;
        if (idx == 0) { // producer
            for (int i = 0; i < kUnits; ++i) {
                script.push_back(Action::compute(5 * units::US));
                script.push_back(Action::channelPost(chan_));
            }
        } else { // consumer (single)
            for (int i = 0; i < kUnits; ++i) {
                script.push_back(Action::channelAcquire(chan_));
                script.push_back(Action::compute(2 * units::US));
                script.push_back(Action::taskDone());
            }
        }
        return std::make_unique<jvm::ScriptSource>(std::move(script));
    }

    static constexpr int kUnits = 25;

  private:
    jvm::ChannelId chan_ = 0;
};

TEST(WaitChannel, ProducerConsumerCompletes)
{
    VmHarness h(2);
    ChannelApp app;
    const jvm::RunResult r = h.vm.run(app, 2);
    EXPECT_EQ(r.total_tasks,
              static_cast<std::uint64_t>(ChannelApp::kUnits));
    // The consumer blocked at least once waiting for the producer.
    Ticks consumer_blocked = 0;
    for (const auto &ts : r.thread_summaries) {
        if (ts.kind == os::ThreadKind::Mutator &&
            ts.tasks_completed > 0) {
            consumer_blocked = ts.blocked_time;
        }
    }
    EXPECT_GT(consumer_blocked, 0u);
}

TEST(WaitChannel, PermitsCarryAcrossWhenPostedFirst)
{
    // If the producer runs far ahead, permits accumulate and the
    // consumer never blocks at the end; totals still match.
    VmHarness h(1); // single core: producer (thread 0) runs first
    ChannelApp app;
    const jvm::RunResult r = h.vm.run(app, 2);
    EXPECT_EQ(r.total_tasks,
              static_cast<std::uint64_t>(ChannelApp::kUnits));
}

TEST(LockStates, SingleThreadStaysBiased)
{
    VmHarness h(2);
    TinyAppParams p;
    p.tasks_per_thread = 25;
    p.use_shared_lock = 1000;
    TinyApp app(p);
    const jvm::RunResult r = h.vm.run(app, 1);
    EXPECT_EQ(r.locks.biased_acquisitions, 25u);
    EXPECT_EQ(r.locks.thin_acquisitions, 0u);
    EXPECT_EQ(r.locks.fat_acquisitions, 0u);
    EXPECT_EQ(r.locks.bias_revocations, 0u);
    EXPECT_EQ(r.locks.inflations, 0u);
}

/** Inert waiter for driving a Monitor directly (no blocking paths). */
struct DummyWaiter : jvm::MonitorWaiter
{
    explicit DummyWaiter(jvm::MutatorIndex idx) : idx(idx) {}

    void monitorGranted(jvm::MonitorId) override {}
    void channelGranted(jvm::ChannelId) override {}
    os::OsThread *osThread() const override { return nullptr; }
    jvm::MutatorIndex mutatorIndex() const override { return idx; }

    jvm::MutatorIndex idx;
};

TEST(LockStates, UncontendedSecondThreadRevokesBias)
{
    VmHarness h(2); // provides the scheduler the monitor ctor needs
    jvm::MonitorTable table(h.sched, nullptr);
    jvm::Monitor &m = table.monitor(table.createMonitor("m"));
    DummyWaiter a(0);
    DummyWaiter b(1);

    ASSERT_TRUE(m.acquire(&a, 0)); // biases toward a
    EXPECT_EQ(m.state(), jvm::LockState::Biased);
    m.release(&a, 10);
    ASSERT_TRUE(m.acquire(&a, 20)); // re-acquire under bias
    m.release(&a, 30);
    EXPECT_EQ(m.monStats().biased_acquisitions, 2u);

    ASSERT_TRUE(m.acquire(&b, 40)); // uncontended foreign acquire
    EXPECT_EQ(m.state(), jvm::LockState::Thin);
    EXPECT_EQ(m.monStats().bias_revocations, 1u);
    EXPECT_EQ(m.monStats().thin_acquisitions, 1u);
    m.release(&b, 50);

    ASSERT_TRUE(m.acquire(&a, 60)); // stays thin, no re-bias
    EXPECT_EQ(m.state(), jvm::LockState::Thin);
    EXPECT_EQ(m.monStats().thin_acquisitions, 2u);
    m.release(&a, 70);
    EXPECT_EQ(m.monStats().inflations, 0u);
}

/** Runs a one-tick burst per dispatch, then parks until woken. */
struct ParkingClient : os::SchedClient
{
    Ticks planBurst(Ticks, Ticks) override { return 1; }
    os::BurstOutcome
    finishBurst(Ticks, Ticks) override
    {
        return os::BurstOutcome::Blocked;
    }
};

/** Waiter backed by a parked OS thread; records the handoff penalty. */
struct ParkedWaiter : jvm::MonitorWaiter
{
    void monitorGranted(jvm::MonitorId) override {}
    void channelGranted(jvm::ChannelId) override {}
    os::OsThread *osThread() const override { return thread; }
    jvm::MutatorIndex mutatorIndex() const override { return idx; }
    void chargeHandoffPenalty(Ticks penalty) override { charged = penalty; }

    jvm::MutatorIndex idx = 0;
    os::OsThread *thread = nullptr;
    Ticks charged = 0;
};

TEST(CirculationWindow, MatchesRecountedReference)
{
    constexpr std::uint32_t kThreads = 40;
    constexpr Ticks kBase = 250;
    constexpr Ticks kCost = 500;
    for (const std::uint32_t window : {0u, 1u, 32u}) {
        SCOPED_TRACE(window);
        sim::Simulation sim(1);
        machine::Machine mach(machine::Machine::testMachine_2p8c());
        mach.enableCores(8);
        os::Scheduler sched(sim, mach);
        jvm::LockPolicyConfig cfg;
        cfg.handoff_base = kBase;
        cfg.coherence_cost = kCost;
        cfg.circulation_window = window;
        jvm::MonitorTable table(sched, nullptr, cfg);
        jvm::Monitor &m = table.monitor(table.createMonitor("m"));
        ParkingClient client;
        std::vector<ParkedWaiter> waiters(kThreads);
        for (std::uint32_t i = 0; i < kThreads; ++i) {
            waiters[i].idx = i;
            waiters[i].thread =
                sched.registerThread(&client, os::ThreadKind::Mutator);
            sched.start(waiters[i].thread);
        }
        sim.run(); // every thread parks after its first burst

        Rng rng(window + 5);
        std::vector<jvm::MutatorIndex> history;
        Ticks penalty_sum = 0;
        std::uint64_t circulation_sum = 0;
        std::uint32_t owner = 0;
        ASSERT_TRUE(m.acquire(&waiters[owner], sim.now()));
        for (int grant = 0; grant < 3000; ++grant) {
            // A skewed mix: a hot set of 6 threads and a cold tail.
            std::uint32_t next;
            do {
                next = static_cast<std::uint32_t>(
                    rng.chance(0.6) ? rng.below(6) : rng.below(kThreads));
            } while (next == owner);
            ASSERT_FALSE(m.acquire(&waiters[next], sim.now()));
            waiters[next].charged = 0;
            m.release(&waiters[owner], sim.now());
            ASSERT_EQ(m.owner(), &waiters[next]);

            // Reference: recount the last `window` grantees from scratch.
            const auto distinct = [&](std::size_t end) {
                std::vector<bool> seen(kThreads, false);
                std::size_t n = 0;
                for (std::size_t i = end - std::min<std::size_t>(end, window);
                     i < end; ++i) {
                    n += seen[history[i]] ? 0 : 1;
                    seen[history[i]] = true;
                }
                return n;
            };
            std::size_t others = distinct(history.size());
            const std::size_t tail =
                std::min<std::size_t>(history.size(), window);
            if (std::find(history.end() - static_cast<std::ptrdiff_t>(tail),
                          history.end(), next) != history.end())
                --others;
            history.push_back(next);
            const Ticks penalty = kBase + kCost * static_cast<Ticks>(others);
            penalty_sum += penalty;
            circulation_sum += distinct(history.size());
            EXPECT_EQ(waiters[next].charged, penalty) << "grant " << grant;
            EXPECT_EQ(m.monStats().coherence_penalty, penalty_sum);
            ASSERT_EQ(m.monStats().circulation_sum, circulation_sum)
                << "grant " << grant;
            sim.run(); // the grantee's thread runs and parks again
            owner = next;
        }
        EXPECT_EQ(m.monStats().handoffs, 3000u);
        if (window == 32) {
            EXPECT_GT(circulation_sum, 3000u * 6);
        }
    }
}

TEST(LockStates, ContentionInflatesExactlyOnce)
{
    VmHarness h(8);
    TinyAppParams p;
    p.tasks_per_thread = 40;
    p.compute_per_task = 1 * units::US;
    p.use_shared_lock = 5000; // hot: guaranteed contention
    TinyApp app(p);
    const jvm::RunResult r = h.vm.run(app, 8);
    EXPECT_EQ(r.locks.inflations, 1u); // one shared lock, inflated once
    EXPECT_GT(r.locks.fat_acquisitions, 0u);
    // Once fat, contended handoffs count as fat acquisitions.
    EXPECT_GE(r.locks.fat_acquisitions, r.locks.contentions);
}

TEST(LockStates, BreakdownSumsToTotalAcquisitions)
{
    VmHarness h(8);
    TinyAppParams p;
    p.tasks_per_thread = 30;
    p.compute_per_task = 4 * units::US;
    p.use_shared_lock = 2000;
    TinyApp app(p);
    const jvm::RunResult r = h.vm.run(app, 6);
    EXPECT_EQ(r.locks.biased_acquisitions + r.locks.thin_acquisitions +
                  r.locks.fat_acquisitions,
              r.locks.acquisitions);
}

} // namespace
