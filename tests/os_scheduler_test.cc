/**
 * @file
 * Tests for the OS scheduler: the burst protocol, preemption and
 * truncation, accounting, stop-the-world, stealing and policies.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <optional>
#include <vector>

#include "base/random.hh"
#include "machine/machine.hh"
#include "os/policy.hh"
#include "os/scheduler.hh"
#include "sim/simulation.hh"

namespace {

using namespace jscale;
using os::BurstOutcome;
using os::OsThread;
using os::Scheduler;
using os::SchedulerConfig;
using os::ThreadKind;
using os::ThreadState;
using machine::CoreId;

/** Scripted scheduler client: a sequence of (work, outcome) steps. */
class ScriptClient : public os::SchedClient
{
  public:
    struct Step
    {
        Ticks work;
        BurstOutcome outcome;
    };

    ScriptClient(std::string name, std::vector<Step> steps)
        : name_(std::move(name)), steps_(std::move(steps))
    {}

    Ticks
    planBurst(Ticks, Ticks limit) override
    {
        if (remaining_ == 0)
            remaining_ = steps_[step_].work;
        return std::min(remaining_, limit);
    }

    BurstOutcome
    finishBurst(Ticks now, Ticks elapsed) override
    {
        remaining_ -= elapsed;
        if (remaining_ > 0)
            return BurstOutcome::Ready;
        const BurstOutcome out = steps_[step_].outcome;
        ++step_;
        last_finish_ = now;
        if (out == BurstOutcome::Finished)
            finished_ = true;
        if (on_step)
            on_step();
        return out;
    }

    /** Runs inside finishBurst after each completed step. */
    std::function<void()> on_step;

    std::string clientName() const override { return name_; }
    bool urgent() const override { return urgent_; }

    bool finished() const { return finished_; }
    Ticks lastFinish() const { return last_finish_; }
    std::size_t stepsDone() const { return step_; }
    void setUrgent(bool u) { urgent_ = u; }

  private:
    std::string name_;
    std::vector<Step> steps_;
    std::size_t step_ = 0;
    Ticks remaining_ = 0;
    Ticks last_finish_ = 0;
    bool finished_ = false;
    bool urgent_ = false;
};

/** Bundle of simulation, machine and scheduler for tests. */
struct Bundle
{
    explicit Bundle(std::uint32_t enabled_cores,
                    SchedulerConfig cfg = {})
        : sim(1), mach(machine::Machine::testMachine_2p8c()),
          sched((mach.enableCores(enabled_cores), sim), mach, cfg)
    {}

    sim::Simulation sim;
    machine::Machine mach;
    Scheduler sched;
};

/** "<prefix><i>", appended: GCC 12 warns (-Wrestrict, falsely) on a
 *  string literal plus a temporary string once it is inlined. */
std::string
numbered(const char *prefix, std::size_t i)
{
    std::string name = prefix;
    name += std::to_string(i);
    return name;
}

std::vector<ScriptClient::Step>
computeSteps(int n, Ticks each)
{
    std::vector<ScriptClient::Step> steps;
    for (int i = 0; i < n - 1; ++i)
        steps.push_back({each, BurstOutcome::Ready});
    steps.push_back({each, BurstOutcome::Finished});
    return steps;
}

TEST(Scheduler, SingleThreadRunsToCompletion)
{
    Bundle b(1);
    ScriptClient c("t0", computeSteps(5, 1000));
    OsThread *t = b.sched.registerThread(&c, ThreadKind::Mutator);
    b.sched.start(t);
    b.sim.run();
    EXPECT_TRUE(c.finished());
    EXPECT_EQ(t->state(), ThreadState::Finished);
    EXPECT_EQ(t->cpuTime(), 5000u);
    EXPECT_EQ(b.sched.finishedCount(), 1u);
}

TEST(Scheduler, FirstDispatchPaysContextSwitch)
{
    Bundle b(1);
    ScriptClient c("t0", computeSteps(1, 1000));
    OsThread *t = b.sched.registerThread(&c, ThreadKind::Mutator);
    b.sched.start(t);
    b.sim.run();
    // Wall clock = switch-in + work.
    EXPECT_EQ(c.lastFinish(),
              b.mach.config().context_switch_cost + 1000);
}

TEST(Scheduler, TwoThreadsOneCoreShareAndFinish)
{
    Bundle b(1);
    ScriptClient c0("t0", computeSteps(10, 50 * units::US));
    ScriptClient c1("t1", computeSteps(10, 50 * units::US));
    OsThread *t0 = b.sched.registerThread(&c0, ThreadKind::Mutator, 0);
    OsThread *t1 = b.sched.registerThread(&c1, ThreadKind::Mutator, 0);
    b.sched.start(t0);
    b.sched.start(t1);
    b.sim.run();
    EXPECT_TRUE(c0.finished());
    EXPECT_TRUE(c1.finished());
    EXPECT_EQ(t0->cpuTime(), 500 * units::US);
    EXPECT_EQ(t1->cpuTime(), 500 * units::US);
    // The second thread waited while the first ran.
    EXPECT_GT(t1->readyTime(), 0u);
    EXPECT_GT(b.sched.schedStats().context_switches, 1u);
}

TEST(Scheduler, WorkConservation)
{
    // 6 threads on 2 cores: total wall >= total work / cores and every
    // thread's cpu time equals its scripted work.
    Bundle b(2);
    std::vector<std::unique_ptr<ScriptClient>> clients;
    std::vector<OsThread *> threads;
    const Ticks each = 20 * units::US;
    for (int i = 0; i < 6; ++i) {
        clients.push_back(std::make_unique<ScriptClient>(
            numbered("t", i), computeSteps(8, each)));
        threads.push_back(b.sched.registerThread(
            clients.back().get(), ThreadKind::Mutator,
            static_cast<machine::CoreId>(i % 2)));
    }
    for (auto *t : threads)
        b.sched.start(t);
    b.sim.run();
    Ticks total_cpu = 0;
    for (std::size_t i = 0; i < threads.size(); ++i) {
        EXPECT_TRUE(clients[i]->finished());
        EXPECT_EQ(threads[i]->cpuTime(), 8 * each);
        total_cpu += threads[i]->cpuTime();
    }
    EXPECT_GE(b.sim.now(), total_cpu / 2);
}

TEST(Scheduler, BlockedThreadWaitsForWake)
{
    Bundle b(1);
    ScriptClient c("t0", {{1000, BurstOutcome::Blocked},
                          {1000, BurstOutcome::Finished}});
    OsThread *t = b.sched.registerThread(&c, ThreadKind::Mutator);
    b.sched.start(t);
    b.sim.run();
    EXPECT_FALSE(c.finished());
    EXPECT_EQ(t->state(), ThreadState::Blocked);
    const Ticks blocked_at = b.sim.now();
    b.sim.scheduleAfter(5000, [&] { b.sched.wake(t); }, "waker");
    b.sim.run();
    EXPECT_TRUE(c.finished());
    EXPECT_GE(t->blockedTime(), 5000u);
    EXPECT_GT(c.lastFinish(), blocked_at + 5000);
}

TEST(Scheduler, WakeAtIsTimedSleep)
{
    Bundle b(1);
    ScriptClient c("t0", {{1000, BurstOutcome::Blocked},
                          {1000, BurstOutcome::Finished}});
    OsThread *t = b.sched.registerThread(&c, ThreadKind::Mutator);
    // The client requests the timed wake from within its burst in real
    // code; doing it just before produces the same protocol state.
    b.sched.start(t);
    // Let the first burst run, then arrange the timed wake on block.
    b.sim.scheduleAfter(1, [&] {}, "noop");
    b.sim.run();
    ASSERT_EQ(t->state(), ThreadState::Blocked);
    // Emulate wakeAt usage: pending_sleep applies to the *next* block,
    // so here we simply wake explicitly after a delay.
    b.sim.scheduleAfter(3000, [&] { b.sched.wake(t); }, "timer");
    b.sim.run();
    EXPECT_TRUE(c.finished());
}

TEST(Scheduler, WakeOnRunningThreadDies)
{
    Bundle b(1);
    ScriptClient c("t0", computeSteps(2, 1 * units::MS));
    OsThread *t = b.sched.registerThread(&c, ThreadKind::Mutator);
    b.sched.start(t);
    EXPECT_DEATH(b.sched.wake(t), "wake");
}

TEST(Scheduler, StopTheWorldParksEverything)
{
    Bundle b(2);
    ScriptClient c0("t0", computeSteps(1000, 100 * units::US));
    ScriptClient c1("t1", computeSteps(1000, 100 * units::US));
    OsThread *t0 = b.sched.registerThread(&c0, ThreadKind::Mutator);
    OsThread *t1 = b.sched.registerThread(&c1, ThreadKind::Mutator);
    b.sched.start(t0);
    b.sched.start(t1);
    b.sim.run(1 * units::MS);

    bool parked = false;
    Ticks parked_at = 0;
    b.sched.stopTheWorld([&] {
        parked = true;
        parked_at = b.sim.now();
        EXPECT_EQ(b.sched.runningCount(), 0u);
    });
    const Ticks requested_at = b.sim.now();
    // Run until parked; both threads must be truncated at a poll point.
    while (!parked && b.sim.step()) {
    }
    EXPECT_TRUE(parked);
    EXPECT_TRUE(b.sched.worldStopped());
    const SchedulerConfig &cfg = b.sched.config();
    EXPECT_LE(parked_at - requested_at, cfg.max_poll_latency + 1);

    // No dispatch while stopped.
    const auto dispatches_before = b.sched.schedStats().dispatches;
    b.sim.run(b.sim.now() + 1 * units::MS);
    EXPECT_EQ(b.sched.schedStats().dispatches, dispatches_before);

    b.sched.resumeWorld();
    b.sim.run();
    EXPECT_TRUE(c0.finished());
    EXPECT_TRUE(c1.finished());
}

TEST(Scheduler, StopTheWorldWithNothingRunningFiresImmediately)
{
    Bundle b(1);
    bool parked = false;
    b.sched.stopTheWorld([&] { parked = true; });
    b.sim.run();
    EXPECT_TRUE(parked);
    b.sched.resumeWorld();
}

TEST(Scheduler, NestedStopTheWorldDies)
{
    Bundle b(1);
    b.sched.stopTheWorld([] {});
    EXPECT_DEATH(b.sched.stopTheWorld([] {}), "nested");
}

TEST(Scheduler, FinishedCallbackFires)
{
    Bundle b(1);
    ScriptClient c("t0", computeSteps(1, 100));
    OsThread *t = b.sched.registerThread(&c, ThreadKind::Mutator);
    OsThread *seen = nullptr;
    b.sched.setThreadFinishedCallback(
        [&seen](OsThread *done) { seen = done; });
    b.sched.start(t);
    b.sim.run();
    EXPECT_EQ(seen, t);
}

TEST(Scheduler, IdleCoresStealQueuedWork)
{
    Bundle b(4);
    // All threads homed on core 0; idle cores 1-3 must steal.
    std::vector<std::unique_ptr<ScriptClient>> clients;
    for (int i = 0; i < 4; ++i) {
        clients.push_back(std::make_unique<ScriptClient>(
            numbered("t", i), computeSteps(4, 50 * units::US)));
        b.sched.start(
            b.sched.registerThread(clients.back().get(),
                                   ThreadKind::Mutator, 0));
    }
    b.sim.run();
    for (auto &c : clients)
        EXPECT_TRUE(c->finished());
    EXPECT_GT(b.sched.schedStats().steals, 0u);
    // With stealing, the run completes much faster than serial.
    EXPECT_LT(b.sim.now(), 4 * 4 * 50 * units::US);
}

TEST(Scheduler, StealingCanBeDisabled)
{
    SchedulerConfig cfg;
    cfg.stealing = false;
    Bundle b(4, cfg);
    std::vector<std::unique_ptr<ScriptClient>> clients;
    for (int i = 0; i < 4; ++i) {
        clients.push_back(std::make_unique<ScriptClient>(
            numbered("t", i), computeSteps(4, 50 * units::US)));
        b.sched.start(
            b.sched.registerThread(clients.back().get(),
                                   ThreadKind::Mutator, 0));
    }
    b.sim.run();
    EXPECT_EQ(b.sched.schedStats().steals, 0u);
    // Serialized on core 0.
    EXPECT_GE(b.sim.now(), 4 * 4 * 50 * units::US);
}

TEST(Scheduler, RoundRobinHomeAssignment)
{
    Bundle b(4);
    ScriptClient c("x", computeSteps(1, 10));
    const OsThread *t0 = b.sched.registerThread(&c, ThreadKind::Mutator);
    const OsThread *t1 = b.sched.registerThread(&c, ThreadKind::Mutator);
    const OsThread *t4 = nullptr;
    b.sched.registerThread(&c, ThreadKind::Mutator);
    b.sched.registerThread(&c, ThreadKind::Mutator);
    t4 = b.sched.registerThread(&c, ThreadKind::Mutator);
    EXPECT_EQ(t0->homeCore(), 0u);
    EXPECT_EQ(t1->homeCore(), 1u);
    EXPECT_EQ(t4->homeCore(), 0u); // wraps around 4 enabled cores
}

TEST(Scheduler, BiasedPolicyGatesInactiveGroups)
{
    Bundle b(2);
    b.sched.setPolicy(std::make_unique<os::BiasedPolicy>(
        2, 10 * units::MS));
    ScriptClient c0("g0", computeSteps(1, 1000));
    ScriptClient c1("g1", computeSteps(1, 1000));
    OsThread *t0 = b.sched.registerThread(&c0, ThreadKind::Mutator, 0);
    OsThread *t1 = b.sched.registerThread(&c1, ThreadKind::Mutator, 1);
    b.sched.start(t0);
    b.sched.start(t1);
    b.sim.run(5 * units::MS);
    // Group 0 is active during the first quantum; only t0 ran.
    EXPECT_TRUE(c0.finished());
    EXPECT_FALSE(c1.finished());
    // Advance into the next phase and kick.
    b.sim.scheduleAt(11 * units::MS, [&] { b.sched.kickAll(); }, "kick");
    b.sim.run();
    EXPECT_TRUE(c1.finished());
    (void)t1;
}

TEST(Scheduler, UrgentOverridesGating)
{
    Bundle b(2);
    b.sched.setPolicy(std::make_unique<os::BiasedPolicy>(
        2, 10 * units::MS));
    ScriptClient c1("g1", computeSteps(1, 1000));
    // Register a placeholder in group 0 so c1 lands in group 1.
    ScriptClient c0("g0", computeSteps(1, 1000));
    b.sched.registerThread(&c0, ThreadKind::Mutator, 0);
    OsThread *t1 = b.sched.registerThread(&c1, ThreadKind::Mutator, 1);
    c1.setUrgent(true);
    b.sched.start(t1);
    b.sim.run(5 * units::MS);
    EXPECT_TRUE(c1.finished()); // ran despite its group being inactive
}

TEST(Scheduler, HelpersUnaffectedByBias)
{
    Bundle b(2);
    b.sched.setPolicy(std::make_unique<os::BiasedPolicy>(
        4, 10 * units::MS));
    ScriptClient helper("helper", computeSteps(1, 1000));
    OsThread *t = b.sched.registerThread(&helper, ThreadKind::Helper, 1);
    b.sched.start(t);
    b.sim.run(5 * units::MS);
    EXPECT_TRUE(helper.finished());
}

TEST(SchedulerFusion, StepEndsOneBurstPerEvent)
{
    Bundle b(1);
    // A finished run() must not leave fusing enabled for step().
    b.sim.scheduleAt(1, [] {}, "noop");
    b.sim.run();
    ScriptClient c("t0", computeSteps(5, 1000));
    OsThread *t = b.sched.registerThread(&c, ThreadKind::Mutator);
    b.sched.start(t);
    ASSERT_TRUE(b.sim.step());
    EXPECT_EQ(c.stepsDone(), 1u);
    EXPECT_EQ(b.sim.eventsProcessed(), 2u);
    EXPECT_EQ(t->state(), ThreadState::Running);
    EXPECT_EQ(b.sim.queue().size(), 1u); // the next burst's slice end
}

TEST(SchedulerFusion, RunUntilStopsWithTheSliceEndPending)
{
    Bundle b(1);
    ScriptClient c("t0", computeSteps(10, 1000));
    OsThread *t = b.sched.registerThread(&c, ThreadKind::Mutator);
    b.sched.start(t);
    const Ticks switch_in = b.mach.config().context_switch_cost;
    b.sim.run(switch_in + 2500);
    EXPECT_EQ(c.stepsDone(), 2u);
    EXPECT_EQ(b.sim.now(), switch_in + 2500);
    EXPECT_EQ(b.sim.eventsProcessed(), 2u);
    EXPECT_EQ(t->state(), ThreadState::Running);
    EXPECT_EQ(b.sim.queue().size(), 1u);
    EXPECT_EQ(b.sim.queue().nextTime(), switch_in + 3000);
    b.sim.run();
    EXPECT_TRUE(c.finished());
    EXPECT_EQ(b.sim.eventsProcessed(), 10u);
}

TEST(SchedulerFusion, RequestStopFromFinishBurstEndsRunBeforeNextBurst)
{
    Bundle b(1);
    ScriptClient c("t0", computeSteps(10, 1000));
    c.on_step = [&] {
        if (c.stepsDone() == 3)
            b.sim.requestStop();
    };
    OsThread *t = b.sched.registerThread(&c, ThreadKind::Mutator);
    b.sched.start(t);
    b.sim.run();
    EXPECT_EQ(c.stepsDone(), 3u);
    EXPECT_EQ(b.sim.eventsProcessed(), 3u);
    // The next burst is dispatched and its slice end queued.
    EXPECT_EQ(t->state(), ThreadState::Running);
    EXPECT_EQ(b.sim.queue().size(), 1u);
    b.sim.run();
    EXPECT_TRUE(c.finished());
    EXPECT_EQ(b.sim.eventsProcessed(), 10u);
}

TEST(SchedulerFusion, DirectRedispatchHonoursThePolicy)
{
    // Alone on its core, a group-0 thread keeps the core only while its
    // group is phase-active, unless it is urgent.
    for (const bool urgent : {false, true}) {
        Bundle b(1);
        b.sched.setPolicy(std::make_unique<os::BiasedPolicy>(
            2, 10 * units::MS));
        ScriptClient c("g0", computeSteps(100, 1 * units::MS));
        c.setUrgent(urgent);
        OsThread *t = b.sched.registerThread(&c, ThreadKind::Mutator);
        b.sched.start(t);
        b.sim.run(15 * units::MS);
        if (urgent) {
            EXPECT_GE(c.stepsDone(), 14u);
            EXPECT_EQ(t->state(), ThreadState::Running);
        } else {
            EXPECT_EQ(c.stepsDone(), 10u);
            EXPECT_EQ(t->state(), ThreadState::Ready);
            EXPECT_EQ(b.sched.readyQueueDepth(0), 1u);
        }
    }
}

TEST(SchedulerFusion, WakeDuringFinishBurstTakesTheCoreFirst)
{
    // Each of A's steps wakes B, homed on the same core; B takes the
    // core the moment it is woken, before A's next burst.
    Bundle b(1);
    ScriptClient a("a", computeSteps(3, 1000));
    ScriptClient c("b", {{500, BurstOutcome::Blocked},
                         {500, BurstOutcome::Blocked},
                         {500, BurstOutcome::Finished}});
    OsThread *tb = b.sched.registerThread(&c, ThreadKind::Mutator, 0);
    OsThread *ta = b.sched.registerThread(&a, ThreadKind::Mutator, 0);
    a.on_step = [&] {
        if (tb->state() == ThreadState::Blocked)
            b.sched.wake(tb);
    };
    b.sched.start(tb);
    b.sched.start(ta);
    b.sim.run();
    EXPECT_TRUE(a.finished());
    EXPECT_TRUE(c.finished());
    EXPECT_EQ(ta->dispatches(), 3u);
    EXPECT_EQ(tb->dispatches(), 3u);
    EXPECT_EQ(b.sched.schedStats().context_switches, 6u);
    EXPECT_EQ(ta->cpuTime(), 3000u);
    EXPECT_EQ(tb->cpuTime(), 1500u);
}

/** Logs every scheduler probe as one line. */
class ProbeLog : public os::SchedulerListener
{
  public:
    void
    onDispatch(const OsThread &t, CoreId core, Ticks overhead, bool stolen,
               Ticks now) override
    {
        out << now << " dispatch " << t.id() << " core " << core << " +"
            << overhead << (stolen ? " stolen" : "") << "\n";
    }

    void
    onBurstEnd(const OsThread &t, CoreId core, Ticks started,
               bool preempted, Ticks now) override
    {
        out << now << " burst-end " << t.id() << " core " << core
            << " from " << started << (preempted ? " preempted" : "")
            << "\n";
    }

    void
    onMigrate(const OsThread &t, CoreId from, CoreId to, Ticks now) override
    {
        out << now << " migrate " << t.id() << " " << from << "->" << to
            << "\n";
    }

    void
    onThreadState(const OsThread &t, ThreadState prev, Ticks now) override
    {
        out << now << " state " << t.id() << " "
            << os::threadStateName(prev) << "->"
            << os::threadStateName(t.state()) << "\n";
    }

    void
    onWorldStopRequested(std::uint32_t group, Ticks now) override
    {
        out << now << " stop " << group << "\n";
    }

    void
    onWorldResumed(std::uint32_t group, Ticks now) override
    {
        out << now << " resume " << group << "\n";
    }

    std::ostringstream out;
};

/**
 * One scripted run on three cores: a thread alone on its core, two
 * sharing one, a blocking thread woken by timers, an urgent thread under
 * a biased policy, a throttled core, a world stop and a core going
 * offline. Driven by run() (which fuses private bursts) or by step()
 * (which never fuses); returns the probe log and every statistic.
 */
std::string
scriptedTranscript(bool by_step)
{
    Bundle b(3);
    b.sched.setPolicy(std::make_unique<os::BiasedPolicy>(
        2, 150 * units::US));
    ProbeLog probes;
    b.sched.listeners().add(&probes);

    std::vector<std::unique_ptr<ScriptClient>> clients;
    auto add = [&](std::vector<ScriptClient::Step> steps, CoreId home,
                   std::uint32_t group) {
        clients.push_back(std::make_unique<ScriptClient>(
            numbered("t", clients.size()), std::move(steps)));
        return b.sched.registerThread(clients.back().get(),
                                      ThreadKind::Mutator, home, group);
    };
    std::vector<ScriptClient::Step> blocking;
    for (int i = 0; i < 12; ++i)
        blocking.push_back({7 * units::US, BurstOutcome::Blocked});
    blocking.push_back({7 * units::US, BurstOutcome::Finished});

    std::vector<OsThread *> threads = {
        add(computeSteps(60, 9 * units::US), 0, 0),
        add(computeSteps(30, 25 * units::US), 1, 0),
        add(computeSteps(30, 25 * units::US), 1, 1),
        add(blocking, 2, 0),
        add(computeSteps(40, 6 * units::US), 2, 1),
    };
    clients[4]->setUrgent(true);
    OsThread *sleeper = threads[3];
    for (Ticks at = 20 * units::US; at < 2 * units::MS; at += 45 * units::US) {
        b.sim.scheduleAt(at, [&b, sleeper] {
            if (sleeper->state() == ThreadState::Blocked)
                b.sched.wake(sleeper);
        }, "waker");
    }
    for (Ticks at = 150 * units::US; at < 2 * units::MS;
         at += 150 * units::US)
        b.sim.scheduleAt(at, [&b] { b.sched.kickAll(); }, "phase");
    b.sim.scheduleAt(200 * units::US,
                     [&b] { b.sched.setCoreSpeed(0, 0.5); }, "throttle");
    b.sim.scheduleAt(320 * units::US, [&b] {
        b.sched.stopTheWorld(0, [&b] {
            b.sim.scheduleAfter(40 * units::US,
                                [&b] { b.sched.resumeWorld(0); }, "resume");
        });
    }, "stop");
    b.sim.scheduleAt(500 * units::US,
                     [&b] { b.sched.setCoreOnline(2, false); }, "offline");
    b.sim.scheduleAt(700 * units::US, [&b] {
        b.sched.setCoreOnline(2, true);
        b.sched.setCoreSpeed(0, 1.0);
    }, "online");
    for (OsThread *t : threads)
        b.sched.start(t);

    if (by_step) {
        while (b.sim.step()) {
        }
    } else {
        b.sim.run();
    }
    b.sched.listeners().remove(&probes);

    std::ostringstream out;
    out << probes.out.str();
    for (const OsThread *t : threads) {
        out << t->name() << " " << os::threadStateName(t->state()) << " cpu "
            << t->cpuTime() << " ready " << t->readyTime() << " blocked "
            << t->blockedTime() << " sleep " << t->sleepTime()
            << " dispatches " << t->dispatches() << " migrations "
            << t->migrations() << "\n";
    }
    const os::SchedulerStats &st = b.sched.schedStats();
    out << "dispatches " << st.dispatches << " switches "
        << st.context_switches << " migrations " << st.migrations
        << " steals " << st.steals << " preemptions " << st.preemptions
        << " busy " << st.busy_ticks << " overhead " << st.overhead_ticks
        << " displaced " << st.displaced_threads << "\n";
    out << "events " << b.sim.eventsProcessed() << " now " << b.sim.now()
        << "\n";
    return out.str();
}

TEST(SchedulerFusion, RunMatchesStepByStep)
{
    const std::string fused = scriptedTranscript(false);
    EXPECT_EQ(fused, scriptedTranscript(true));
    // The scenario reaches what it is built for.
    EXPECT_NE(fused.find("stolen"), std::string::npos);
    EXPECT_NE(fused.find("preempted"), std::string::npos);
    EXPECT_NE(fused.find("stop 0"), std::string::npos);
    EXPECT_NE(fused.find("t3 finished"), std::string::npos);
}

/** Client for the randomized index test: each burst runs a drawn
 *  length, then the thread stays ready or blocks, by its own draws. */
class RandomClient : public os::SchedClient
{
  public:
    RandomClient(std::string name, Rng rng)
        : name_(std::move(name)), rng_(rng)
    {}

    Ticks
    planBurst(Ticks, Ticks limit) override
    {
        return std::min<Ticks>(
            limit, static_cast<Ticks>(rng_.range(1, 40)) * units::US);
    }

    BurstOutcome
    finishBurst(Ticks, Ticks) override
    {
        return rng_.chance(0.2) ? BurstOutcome::Blocked
                                : BurstOutcome::Ready;
    }

    std::string clientName() const override { return name_; }

  private:
    std::string name_;
    Rng rng_;
};

/**
 * Records the run queues at every eligibility test. The scheduler asks
 * just before it takes a thread off a queue, so at a dispatch the last
 * snapshot is the queues the steal chose from.
 */
class SnapshotPolicy : public os::SchedPolicy
{
  public:
    SnapshotPolicy(const Scheduler &sched, const machine::Machine &mach)
        : sched_(sched), mach_(mach)
    {}

    bool
    eligible(const OsThread &, Ticks) const override
    {
        capture();
        return true;
    }

    /** Record every run queue's depth and every core's online bit. */
    void
    capture() const
    {
        const std::size_t n = mach_.cores().size();
        depths.resize(n);
        online.resize(n);
        for (CoreId id = 0; id < n; ++id) {
            depths[id] = sched_.readyQueueDepth(id);
            online[id] = mach_.core(id).enabled();
        }
    }

    const char *policyName() const override { return "snapshot"; }

    mutable std::vector<std::size_t> depths;
    mutable std::vector<bool> online;

  private:
    const Scheduler &sched_;
    const machine::Machine &mach_;
};

/** The victim rule, by a plain scan of every core: skip the thief and
 *  offline cores; local victims first, remote ones only with two or
 *  more queued; then the longest queue, then the lowest id. */
std::optional<CoreId>
referenceVictim(const SnapshotPolicy &snap, const machine::Machine &mach,
                CoreId thief)
{
    std::optional<CoreId> victim;
    std::size_t best = 0;
    bool best_local = false;
    for (CoreId id = 0; id < snap.depths.size(); ++id) {
        const std::size_t len = snap.depths[id];
        if (id == thief || !snap.online[id] || len == 0)
            continue;
        const bool local = mach.socketOf(id) == mach.socketOf(thief);
        if (!local && len < 2)
            continue;
        if (!victim || (local && !best_local) ||
            (local == best_local && len > best)) {
            victim = id;
            best = len;
            best_local = local;
        }
    }
    return victim;
}

/**
 * Checks every stolen dispatch against referenceVictim, and that no
 * idle core leaves a victim behind. A burst that ends on an offline
 * core re-queues its thread on a busy online core and kicks no idle
 * one, so after such a burst the idle-core check rests until the next
 * kickAll the probes show: a wake outside a stopped world, or a resume.
 */
class StealChecker : public os::SchedulerListener
{
  public:
    StealChecker(const Scheduler &sched, const machine::Machine &mach,
                 const SnapshotPolicy &snap)
        : sched_(sched), mach_(mach), snap_(snap),
          running_(mach.cores().size(), nullptr)
    {}

    void
    onThreadState(const OsThread &t, ThreadState prev, Ticks) override
    {
        if (prev == ThreadState::Running)
            std::replace(running_.begin(), running_.end(), &t,
                         static_cast<const OsThread *>(nullptr));
        if ((prev == ThreadState::Blocked ||
             prev == ThreadState::Sleeping) &&
            !sched_.worldStopped())
            displaced_ = false;
    }

    void
    onWorldResumed(std::uint32_t, Ticks) override
    {
        displaced_ = false;
    }

    void
    onBurstEnd(const OsThread &, CoreId core, Ticks, bool, Ticks) override
    {
        displaced_ = displaced_ || !mach_.core(core).enabled();
    }

    /** Every idle online core has no victim the rule would take. */
    void
    expectNoMissedSteal() const
    {
        if (displaced_)
            return;
        snap_.capture();
        for (CoreId id = 0; id < running_.size(); ++id) {
            if (running_[id] != nullptr || !snap_.online[id])
                continue;
            ++idle_checks;
            const auto victim = referenceVictim(snap_, mach_, id);
            ASSERT_FALSE(victim) << "idle core " << id << " left core "
                                 << *victim << "'s queue at "
                                 << snap_.depths[*victim];
        }
    }

    void
    onDispatch(const OsThread &t, CoreId core, Ticks, bool stolen,
               Ticks) override
    {
        running_[core] = &t;
        if (!stolen)
            return;
        ++steals;
        // The victim is the one queue a thread just left.
        std::optional<CoreId> victim;
        for (CoreId id = 0; id < snap_.depths.size(); ++id) {
            const std::size_t depth = sched_.readyQueueDepth(id);
            if (depth == snap_.depths[id])
                continue;
            ASSERT_FALSE(victim) << "two queues changed in one steal";
            ASSERT_EQ(depth + 1, snap_.depths[id]);
            victim = id;
        }
        ASSERT_TRUE(victim);
        const auto expected = referenceVictim(snap_, mach_, core);
        ASSERT_TRUE(expected) << "core " << core << " stole from "
                              << *victim << " against the rule";
        EXPECT_EQ(*victim, *expected) << "thief " << core;
        if (mach_.socketOf(*victim) != mach_.socketOf(core))
            ++remote_steals;
        top_victim = std::max(top_victim, *victim);
    }

    std::uint64_t steals = 0;
    std::uint64_t remote_steals = 0;
    /** Idle online cores checked for a missed victim. */
    mutable std::uint64_t idle_checks = 0;
    CoreId top_victim = 0;

  private:
    const Scheduler &sched_;
    const machine::Machine &mach_;
    const SnapshotPolicy &snap_;
    /** The thread on each core (nullptr = idle). */
    std::vector<const OsThread *> running_;
    /** A burst ended on an offline core since the last kickAll. */
    bool displaced_ = false;
};

/**
 * Random wakes, blocks, stalls, core offline/online toggles and
 * per-group stop/resume-world, with the scheduler's run-queue index
 * checked after every step, every steal checked against the scan and,
 * while no group is stopped, no idle core left with a victim.
 * Returns the highest core id a thread was stolen from.
 */
CoreId
driveRandomly(const machine::MachineConfig &config, std::uint64_t seed,
              int steps)
{
    sim::Simulation sim(seed);
    machine::Machine mach(config);
    const std::uint32_t n_cores = config.totalCores();
    mach.enableCores(n_cores - n_cores / 8);
    Scheduler sched(sim, mach);
    auto policy = std::make_unique<SnapshotPolicy>(sched, mach);
    const SnapshotPolicy &snap = *policy;
    sched.setPolicy(std::move(policy));
    StealChecker checker(sched, mach, snap);
    sched.listeners().add(&checker);

    Rng rng(seed);
    std::vector<std::unique_ptr<RandomClient>> clients;
    std::vector<OsThread *> threads;
    const std::uint32_t n_threads = 2 * n_cores;
    for (std::uint32_t i = 0; i < n_threads; ++i) {
        clients.push_back(std::make_unique<RandomClient>(
            numbered("r", i), rng.fork(i)));
        threads.push_back(sched.registerThread(
            clients.back().get(), ThreadKind::Mutator, {}, i % 2));
    }
    for (OsThread *t : threads)
        sched.start(t);
    sched.checkInvariants();

    bool parked[2] = {false, false};
    for (int step = 0; step < steps; ++step) {
        OsThread *t = threads[rng.below(threads.size())];
        const auto group = static_cast<std::uint32_t>(rng.below(2));
        switch (rng.below(8)) {
          case 0:
          case 1:
          case 2:
            for (int i = 0; i < 8 && sim.step(); ++i) {
            }
            break;
          case 3:
            // Wake a handful, so run queues grow deeper than one.
            for (int i = 0; i < 6; ++i) {
                OsThread *w = threads[rng.below(threads.size())];
                if (w->state() == ThreadState::Blocked ||
                    w->state() == ThreadState::Sleeping)
                    sched.wake(w);
            }
            break;
          case 4:
            sched.stallThread(
                t, sim.now() + static_cast<Ticks>(rng.range(1, 50)) *
                                   units::US);
            break;
          case 5:
          case 6:
            sched.setCoreOnline(static_cast<CoreId>(rng.below(n_cores)),
                                rng.chance(0.5));
            break;
          case 7:
            if (!sched.groupStopped(group)) {
                parked[group] = false;
                sched.stopTheWorld(group, [&parked, group] {
                    parked[group] = true;
                });
            } else if (parked[group]) {
                sched.resumeWorld(group);
            }
            break;
        }
        sched.checkInvariants();
        if (!sched.groupStopped(0) && !sched.groupStopped(1))
            checker.expectNoMissedSteal();
        if (::testing::Test::HasFatalFailure())
            break;
    }
    EXPECT_EQ(checker.steals, sched.schedStats().steals);
    EXPECT_GT(checker.idle_checks, 1000u);
    EXPECT_GT(checker.remote_steals, 0u);
    EXPECT_GT(sched.schedStats().displaced_threads, 0u);
    EXPECT_GT(sched.schedStats().forced_stalls, 0u);
    sched.listeners().remove(&checker);
    return checker.top_victim;
}

TEST(SchedulerIndex, RandomOpsKeepInvariantsOnPaperMachine)
{
    EXPECT_GE(driveRandomly(machine::Machine::amd6168_4p48c(), 7, 4000),
              36u); // stolen from the last socket too
}

TEST(SchedulerIndex, RandomOpsKeepInvariantsPastOneWord)
{
    // 80 cores: the occupancy index spans two 64-bit words.
    machine::MachineConfig config;
    config.name = "test-2p80c";
    config.sockets = 2;
    config.cores_per_socket = 40;
    EXPECT_GE(driveRandomly(config, 11, 4000), 64u);
}

/** Records where and how each thread was last dispatched. */
struct DispatchLog : os::SchedulerListener
{
    void
    onDispatch(const OsThread &t, CoreId core, Ticks, bool stolen,
               Ticks) override
    {
        last_core[t.id()] = core;
        last_stolen[t.id()] = stolen;
    }

    std::map<os::ThreadId, CoreId> last_core;
    std::map<os::ThreadId, bool> last_stolen;
};

TEST(SchedulerIndex, LoneQueuedThreadGoesToLowestIdleCoreOnItsSocket)
{
    // 2 x 40 cores: socket 1 (cores 40-79) spans both index words.
    machine::MachineConfig config;
    config.name = "test-2p80c";
    config.sockets = 2;
    config.cores_per_socket = 40;
    sim::Simulation sim(1);
    machine::Machine mach(config);
    mach.enableCores(80);
    Scheduler sched(sim, mach);
    DispatchLog log;
    sched.listeners().add(&log);

    // Cores 40-65 run long bursts; socket 0 stays idle throughout.
    std::vector<std::unique_ptr<ScriptClient>> clients;
    for (CoreId home = 40; home <= 65; ++home) {
        clients.push_back(std::make_unique<ScriptClient>(
            numbered("busy", home), computeSteps(1, 2 * units::MS)));
        OsThread *t = sched.registerThread(clients.back().get(),
                                           ThreadKind::Mutator, home);
        sched.start(t);
        EXPECT_EQ(log.last_core[t->id()], home);
    }
    sched.checkInvariants();

    // Queued on core 70, the thread is taken by the lowest idle core of
    // its own socket: a lone queued thread never crosses sockets.
    ScriptClient lone("lone", computeSteps(1, 1000));
    OsThread *t = sched.registerThread(&lone, ThreadKind::Mutator, 70);
    sched.start(t);
    EXPECT_EQ(log.last_core[t->id()], 66u);
    EXPECT_TRUE(log.last_stolen[t->id()]);
    EXPECT_EQ(sched.readyQueueDepth(70), 0u);
    EXPECT_EQ(sched.schedStats().steals, 1u);
    sched.checkInvariants();
    sched.listeners().remove(&log);
}

TEST(SchedulerIndex, CheckInvariantsCatchesOfflineQueue)
{
    Bundle b(2);
    ScriptClient c("t0", computeSteps(1, 1000));
    OsThread *t = b.sched.registerThread(&c, ThreadKind::Mutator, 1);
    // A stopped world keeps the started thread queued on core 1.
    b.sched.stopTheWorld([] {});
    b.sched.start(t);
    EXPECT_EQ(b.sched.readyQueueDepth(1), 1u);
    b.sched.checkInvariants();
    // Offlined behind the scheduler's back, core 1 keeps its queue.
    b.mach.setCoreOnline(1, false);
    EXPECT_DEATH(b.sched.checkInvariants(), "offline core 1 holds 1");
}

} // namespace
