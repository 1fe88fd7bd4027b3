/**
 * @file
 * Tests for the discrete-event kernel: ordering guarantees, tie
 * breaking, cancellation, rescheduling and the simulation loop.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "base/random.hh"
#include "sim/event.hh"
#include "sim/simulation.hh"

namespace {

using namespace jscale;
using sim::Event;
using sim::EventQueue;
using sim::Simulation;

/** Test event recording its firing into a shared log. */
class LogEvent : public Event
{
  public:
    LogEvent(std::vector<int> &log, int id) : log_(log), id_(id) {}

    void process() override { log_.push_back(id_); }
    std::string name() const override { return "log-event"; }

  private:
    std::vector<int> &log_;
    int id_;
};

TEST(EventQueue, ProcessesInTimeOrder)
{
    Simulation sim;
    std::vector<int> log;
    LogEvent e1(log, 1);
    LogEvent e2(log, 2);
    LogEvent e3(log, 3);
    sim.schedule(&e2, 20);
    sim.schedule(&e1, 10);
    sim.schedule(&e3, 30);
    sim.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(sim.now(), 30u);
}

TEST(EventQueue, SameTickFiresInScheduleOrder)
{
    Simulation sim;
    std::vector<int> log;
    std::vector<std::unique_ptr<LogEvent>> events;
    for (int i = 0; i < 10; ++i) {
        events.push_back(std::make_unique<LogEvent>(log, i));
        sim.schedule(events.back().get(), 5);
    }
    sim.run();
    std::vector<int> expect(10);
    for (int i = 0; i < 10; ++i)
        expect[i] = i;
    EXPECT_EQ(log, expect);
}

TEST(EventQueue, DescheduleCancels)
{
    Simulation sim;
    std::vector<int> log;
    LogEvent keep(log, 1);
    LogEvent cancel(log, 2);
    sim.schedule(&keep, 10);
    sim.schedule(&cancel, 5);
    EXPECT_TRUE(cancel.scheduled());
    sim.queue().deschedule(&cancel);
    EXPECT_FALSE(cancel.scheduled());
    sim.run();
    EXPECT_EQ(log, std::vector<int>{1});
}

TEST(EventQueue, DescheduleIdempotent)
{
    Simulation sim;
    std::vector<int> log;
    LogEvent e(log, 1);
    sim.schedule(&e, 10);
    sim.queue().deschedule(&e);
    sim.queue().deschedule(&e); // no-op
    EXPECT_TRUE(sim.queue().empty());
}

TEST(EventQueue, RescheduleMovesEvent)
{
    Simulation sim;
    std::vector<int> log;
    LogEvent a(log, 1);
    LogEvent b(log, 2);
    sim.schedule(&a, 10);
    sim.schedule(&b, 20);
    sim.queue().reschedule(&b, 5); // b now fires first
    sim.run();
    EXPECT_EQ(log, (std::vector<int>{2, 1}));
}

TEST(EventQueue, RescheduleAfterFiringWorks)
{
    Simulation sim;
    std::vector<int> log;
    LogEvent e(log, 7);
    sim.schedule(&e, 1);
    sim.run();
    sim.schedule(&e, sim.now() + 1); // reuse is allowed once unscheduled
    sim.run();
    EXPECT_EQ(log, (std::vector<int>{7, 7}));
}

TEST(EventQueue, DoubleScheduleDies)
{
    Simulation sim;
    std::vector<int> log;
    LogEvent e(log, 1);
    sim.schedule(&e, 10);
    EXPECT_DEATH(sim.schedule(&e, 20), "already scheduled");
    sim.queue().deschedule(&e);
}

TEST(EventQueue, SizeTracksLiveEvents)
{
    Simulation sim;
    std::vector<int> log;
    LogEvent a(log, 1);
    LogEvent b(log, 2);
    EXPECT_TRUE(sim.queue().empty());
    sim.schedule(&a, 1);
    sim.schedule(&b, 2);
    EXPECT_EQ(sim.queue().size(), 2u);
    sim.queue().deschedule(&a);
    EXPECT_EQ(sim.queue().size(), 1u);
    sim.run();
    EXPECT_TRUE(sim.queue().empty());
}

TEST(Simulation, SchedulingInThePastDies)
{
    Simulation sim;
    sim.scheduleAfter(100, [] {}, "later");
    sim.run();
    std::vector<int> log;
    LogEvent e(log, 1);
    EXPECT_DEATH(sim.schedule(&e, 5), "in the past");
}

TEST(Simulation, LambdaEventsSelfDelete)
{
    Simulation sim;
    int fired = 0;
    for (int i = 0; i < 100; ++i)
        sim.scheduleAfter(i, [&fired] { ++fired; }, "inc");
    sim.run();
    EXPECT_EQ(fired, 100);
    // ASAN (when enabled) verifies no leaks; here we check the queue
    // drained.
    EXPECT_TRUE(sim.queue().empty());
}

TEST(Simulation, RunUntilStopsAtLimit)
{
    Simulation sim;
    int fired = 0;
    sim.scheduleAfter(10, [&fired] { ++fired; }, "a");
    sim.scheduleAfter(1000, [&fired] { ++fired; }, "b");
    sim.run(100);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(sim.now(), 100u);
    sim.run();
    EXPECT_EQ(fired, 2);
}

TEST(Simulation, RequestStopExitsLoop)
{
    Simulation sim;
    int fired = 0;
    sim.scheduleAfter(10, [&] {
        ++fired;
        sim.requestStop();
    }, "stopper");
    sim.scheduleAfter(20, [&fired] { ++fired; }, "later");
    sim.run();
    EXPECT_EQ(fired, 1);
    sim.run(); // resumes
    EXPECT_EQ(fired, 2);
}

TEST(Simulation, EventsProcessedCounter)
{
    Simulation sim;
    for (int i = 0; i < 7; ++i)
        sim.scheduleAfter(i, [] {}, "noop");
    sim.run();
    EXPECT_EQ(sim.eventsProcessed(), 7u);
}

TEST(Simulation, NestedSchedulingFromHandlers)
{
    Simulation sim;
    std::vector<Ticks> times;
    std::function<void(int)> chain = [&](int depth) {
        times.push_back(sim.now());
        if (depth > 0) {
            sim.scheduleAfter(5, [&chain, depth] { chain(depth - 1); },
                              "chain");
        }
    };
    sim.scheduleAfter(0, [&chain] { chain(3); }, "start");
    sim.run();
    EXPECT_EQ(times, (std::vector<Ticks>{0, 5, 10, 15}));
}

TEST(Simulation, ForkRngDeterministicPerStream)
{
    Simulation a(77);
    Simulation b(77);
    Rng ra = a.forkRng(3);
    Rng rb = b.forkRng(3);
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(ra.next(), rb.next());
}

/**
 * Periodic event that handles its own next firing in place whenever
 * Simulation::fuse allows it and schedules itself otherwise, as the
 * scheduler's slice end does. Stops after @p firings.
 */
class ChainEvent : public Event
{
  public:
    ChainEvent(Simulation &sim, Ticks period, std::size_t firings)
        : sim_(sim), period_(period), firings_(firings)
    {}

    ~ChainEvent() override { sim_.queue().deschedule(this); }

    void
    process() override
    {
        for (;;) {
            times.push_back(sim_.now());
            if (hook)
                hook();
            if (times.size() == firings_)
                return;
            const Ticks next = sim_.now() + period_;
            if (!sim_.fuse(next)) {
                sim_.schedule(this, next);
                return;
            }
            ++fused;
        }
    }

    /** Firing times, fused or popped. */
    std::vector<Ticks> times;
    /** Firings handled in place. */
    std::size_t fused = 0;
    /** Runs at every firing. */
    std::function<void()> hook;

  private:
    Simulation &sim_;
    Ticks period_;
    std::size_t firings_;
};

TEST(SimulationFuse, RunFusesFiringsAheadOfTheQueue)
{
    Simulation sim;
    ChainEvent chain(sim, 10, 6);
    sim.schedule(&chain, 10);
    sim.run();
    EXPECT_EQ(chain.times, (std::vector<Ticks>{10, 20, 30, 40, 50, 60}));
    EXPECT_EQ(chain.fused, 5u);
    // A fused firing still counts as a processed event.
    EXPECT_EQ(sim.eventsProcessed(), 6u);
    EXPECT_EQ(sim.now(), 60u);
}

TEST(SimulationFuse, StepNeverFuses)
{
    Simulation sim;
    // A finished run() must not leave fusing enabled for step().
    sim.scheduleAt(1, [] {}, "noop");
    sim.run();
    ChainEvent chain(sim, 10, 6);
    sim.schedule(&chain, 10);
    ASSERT_TRUE(sim.step());
    EXPECT_EQ(chain.times, (std::vector<Ticks>{10}));
    EXPECT_EQ(sim.eventsProcessed(), 2u);
    ASSERT_TRUE(chain.scheduled());
    EXPECT_EQ(chain.when(), 20u);
    while (sim.step()) {
    }
    EXPECT_EQ(chain.times.size(), 6u);
    EXPECT_EQ(chain.fused, 0u);
    EXPECT_EQ(sim.eventsProcessed(), 7u);
}

TEST(SimulationFuse, RunUntilLeavesTheNextFiringPending)
{
    Simulation sim;
    ChainEvent chain(sim, 10, 100);
    sim.schedule(&chain, 10);
    sim.run(50); // a firing at the limit itself is processed
    EXPECT_EQ(chain.times, (std::vector<Ticks>{10, 20, 30, 40, 50}));
    EXPECT_EQ(sim.eventsProcessed(), 5u);
    EXPECT_EQ(sim.now(), 50u);
    ASSERT_TRUE(chain.scheduled());
    EXPECT_EQ(chain.when(), 60u);
    sim.run(75);
    EXPECT_EQ(chain.times.back(), 70u);
    EXPECT_EQ(sim.now(), 75u);
    EXPECT_EQ(chain.when(), 80u);
}

TEST(SimulationFuse, QueuedEventAtTheSameTickGoesFirst)
{
    Simulation sim;
    ChainEvent chain(sim, 10, 5);
    std::vector<int> order;
    chain.hook = [&order] { order.push_back(1); };
    sim.schedule(&chain, 10);
    sim.scheduleAt(30, [&order] { order.push_back(2); }, "tie");
    sim.run();
    // The firing at 30 ties the queued event, which was scheduled first.
    EXPECT_EQ(order, (std::vector<int>{1, 1, 2, 1, 1, 1}));
    EXPECT_EQ(chain.times, (std::vector<Ticks>{10, 20, 30, 40, 50}));
    EXPECT_EQ(chain.fused, 3u);
    EXPECT_EQ(sim.eventsProcessed(), 6u);
}

TEST(SimulationFuse, RequestStopEndsTheLoopBeforeTheNextFiring)
{
    Simulation sim;
    ChainEvent chain(sim, 10, 100);
    chain.hook = [&] {
        if (chain.times.size() == 3)
            sim.requestStop();
    };
    sim.schedule(&chain, 10);
    sim.run();
    EXPECT_EQ(chain.times, (std::vector<Ticks>{10, 20, 30}));
    EXPECT_EQ(sim.now(), 30u);
    ASSERT_TRUE(chain.scheduled());
    EXPECT_EQ(chain.when(), 40u);
    sim.run(60); // resumes, fusing again
    EXPECT_EQ(chain.times.back(), 60u);
    EXPECT_EQ(sim.eventsProcessed(), 6u);
}

/** Property: random schedules always dispatch in nondecreasing time. */
class EventOrderProperty : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(EventOrderProperty, MonotoneDispatch)
{
    Simulation sim(GetParam());
    Rng rng(GetParam());
    std::vector<Ticks> fired;
    for (int i = 0; i < 2000; ++i) {
        const Ticks when = rng.below(100000);
        sim.scheduleAt(when, [&fired, &sim] { fired.push_back(sim.now()); },
                       "prop");
    }
    sim.run();
    ASSERT_EQ(fired.size(), 2000u);
    EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventOrderProperty,
                         ::testing::Values(1, 2, 3, 42, 99, 12345));

/** Self-deleting event that reports its destruction. */
class TrackedLambdaEvent : public sim::LambdaEvent
{
  public:
    TrackedLambdaEvent(int &deleted, std::function<void()> fn)
        : LambdaEvent(std::move(fn), "tracked"), deleted_(deleted)
    {}

    ~TrackedLambdaEvent() override { ++deleted_; }

  private:
    int &deleted_;
};

TEST(EventQueue, DescheduleDeletesSelfDeletingEvent)
{
    // Regression: descheduling a pending self-deleting event is its
    // last reachable moment — the queue must delete it there instead
    // of leaking it.
    Simulation sim;
    int deleted = 0;
    int fired = 0;
    auto *ev = new TrackedLambdaEvent(deleted, [&fired] { ++fired; });
    sim.schedule(ev, 10);
    sim.queue().deschedule(ev);
    EXPECT_EQ(deleted, 1);
    sim.scheduleAfter(20, [] {}, "later");
    sim.run();
    EXPECT_EQ(fired, 0);
    EXPECT_EQ(deleted, 1);
}

TEST(EventQueue, DescheduleOfUnscheduledSelfDeleterIsNoOp)
{
    // An idempotent second deschedule must not double-delete.
    Simulation sim;
    int deleted = 0;
    auto *ev = new TrackedLambdaEvent(deleted, [] {});
    sim.schedule(ev, 10);
    sim.queue().deschedule(ev);
    EXPECT_EQ(deleted, 1);
    // ev is gone; a *different* unscheduled member event must survive
    // repeated deschedules untouched.
    std::vector<int> log;
    LogEvent member(log, 1);
    sim.queue().deschedule(&member);
    sim.queue().deschedule(&member);
    EXPECT_EQ(deleted, 1);
}

TEST(EventQueue, RescheduleNeverDeletes)
{
    // reschedule() moves a pending self-deleting event without the
    // deschedule-time deletion: it is live again on exit.
    Simulation sim;
    int deleted = 0;
    int fired = 0;
    auto *ev = new TrackedLambdaEvent(deleted, [&fired] { ++fired; });
    sim.schedule(ev, 100);
    sim.queue().reschedule(ev, 5);
    EXPECT_EQ(deleted, 0);
    EXPECT_TRUE(ev->scheduled());
    sim.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(deleted, 1); // deleted after firing, not before
}

TEST(EventQueue, ManyCancellationsInterleaved)
{
    // Cancel a pseudo-random half of a large schedule and check
    // exactly the survivors fire.
    Simulation sim;
    std::vector<int> log;
    std::vector<std::unique_ptr<LogEvent>> events;
    std::vector<int> expect;
    Rng rng(99);
    for (int i = 0; i < 500; ++i) {
        events.push_back(std::make_unique<LogEvent>(log, i));
        sim.schedule(events.back().get(), 1 + rng.below(50));
    }
    for (int i = 0; i < 500; ++i) {
        if (rng.below(2) == 0)
            sim.queue().deschedule(events[i].get());
        else
            expect.push_back(i);
    }
    sim.run();
    EXPECT_EQ(log.size(), expect.size());
    std::sort(log.begin(), log.end());
    EXPECT_EQ(log, expect);
    EXPECT_TRUE(sim.queue().empty());
}

TEST(CallbackEvent, ReusableAcrossFirings)
{
    Simulation sim;
    int fired = 0;
    sim::CallbackEvent ev([&fired] { ++fired; }, "reuse");
    for (int i = 1; i <= 5; ++i) {
        sim.schedule(&ev, sim.now() + 1);
        sim.run();
    }
    EXPECT_EQ(fired, 5);
}

TEST(RecurringEvent, FiresPeriodicallyUntilStopped)
{
    Simulation sim;
    std::vector<Ticks> fire_times;
    sim::RecurringEvent tick(sim.queue(), 10,
                             [&] { fire_times.push_back(sim.now()); },
                             "tick");
    tick.start(10);
    sim.scheduleAfter(35, [&tick] { tick.stop(); }, "stopper");
    sim.run();
    EXPECT_EQ(fire_times, (std::vector<Ticks>{10, 20, 30}));
    EXPECT_TRUE(sim.queue().empty());
}

TEST(RecurringEvent, DestructorDeschedules)
{
    Simulation sim;
    int fired = 0;
    {
        sim::RecurringEvent tick(sim.queue(), 10, [&fired] { ++fired; },
                                 "tick");
        tick.start(10);
    } // destroyed while scheduled
    sim.scheduleAfter(100, [] {}, "later");
    sim.run();
    EXPECT_EQ(fired, 0);
}

TEST(RecurringEvent, CallbackMayStopItself)
{
    Simulation sim;
    int fired = 0;
    sim::RecurringEvent *self = nullptr;
    sim::RecurringEvent tick(sim.queue(), 10,
                             [&] {
                                 if (++fired == 3)
                                     self->stop();
                             },
                             "tick");
    self = &tick;
    tick.start(10);
    sim.run();
    EXPECT_EQ(fired, 3);
    EXPECT_TRUE(sim.queue().empty());
}

TEST(EventQueue, TombstoneSafetyAfterOwnerGone)
{
    // An owner that deschedules its event may be destroyed before the
    // queue; nothing of the event may be left for the queue to touch.
    Simulation sim;
    std::vector<int> log;
    {
        auto ev = std::make_unique<LogEvent>(log, 1);
        sim.schedule(ev.get(), 50);
        sim.queue().deschedule(ev.get());
        // ev destroyed here, before the queue.
    }
    sim.scheduleAfter(100, [] {}, "later");
    sim.run();
    EXPECT_TRUE(log.empty());
}

TEST(EventQueue, CancelHeadOfNonCurrentBucket)
{
    // Cancel the first of two events sharing a tick that is not yet
    // the earliest: its tick-mate and the later events must still
    // dispatch, in order.
    EventQueue q;
    std::vector<int> log;
    LogEvent a(log, 1), head(log, 2), follower(log, 3), c(log, 4);
    LogEvent far(log, 5);
    q.schedule(&a, 100);
    q.schedule(&head, 105);
    q.schedule(&follower, 105);
    q.schedule(&c, 107);
    q.schedule(&far, 100000);
    Event *first = q.pop();
    ASSERT_EQ(first, &a);
    q.deschedule(&head);
    while (Event *ev = q.pop())
        ev->process();
    EXPECT_EQ(log, (std::vector<int>{3, 4, 5}));
    EXPECT_FALSE(head.scheduled());
}

TEST(EventQueue, CancelHeadOfOverflowedBucket)
{
    // Cancel the earlier of two far-future events: the near event and
    // the other far one still fire.
    Simulation sim;
    std::vector<int> log;
    LogEvent near1(log, 1);
    LogEvent far1(log, 2);
    LogEvent far2(log, 3);
    sim.schedule(&near1, 5);
    sim.schedule(&far1, 1'000'000);
    sim.schedule(&far2, 1'000'001);
    sim.queue().deschedule(&far1);
    sim.run();
    EXPECT_EQ(log, (std::vector<int>{1, 3}));
    EXPECT_FALSE(far1.scheduled());
}

TEST(EventQueue, ScheduleBehindCursorStillDispatchesFirst)
{
    // The queue itself accepts an event earlier than every pending one
    // (only Simulation refuses the past); it must dispatch first.
    EventQueue q;
    std::vector<int> log;
    LogEvent a(log, 1), past(log, 2);
    q.schedule(&a, 100);
    q.schedule(&past, 10);
    EXPECT_EQ(q.nextTime(), 10u);
    EXPECT_EQ(q.pop(), &past);
    EXPECT_EQ(q.pop(), &a);
    EXPECT_EQ(q.pop(), nullptr);
}

TEST(EventQueue, CancelFromMiddleSiftsUp)
{
    // Scheduled in this order, the ticks lay the heap out as
    // [1, 7, 4, 9, 13, 10, 5]. Cancelling 9 (slot 3, under 7) moves the
    // last entry, 5, into its hole, and 5 must rise above 7: a removal
    // that only sifts down would dispatch 7 before 5.
    EventQueue q;
    std::vector<int> log;
    std::vector<std::unique_ptr<LogEvent>> events;
    for (int tick : {7, 5, 10, 9, 13, 4, 1}) {
        events.push_back(std::make_unique<LogEvent>(log, tick));
        q.schedule(events.back().get(), static_cast<Ticks>(tick));
    }
    q.deschedule(events[3].get());
    while (Event *ev = q.pop())
        ev->process();
    EXPECT_EQ(log, (std::vector<int>{1, 4, 5, 7, 10, 13}));
}

TEST(EventQueue, RescheduleEarlierAndLater)
{
    // Moving a pending event (the scheduler's truncateAtPoll path)
    // orders it as a deschedule then schedule would: after every event
    // already pending at its new tick, whichever way it moved.
    std::vector<int> log;
    LogEvent m(log, 0), a(log, 1), b(log, 2), c(log, 3), d(log, 4);
    auto drainAfterMoving = [&](Ticks to) {
        EventQueue q;
        q.schedule(&m, 20);
        q.schedule(&a, 10);
        q.schedule(&b, 10);
        q.schedule(&c, 20);
        q.schedule(&d, 30);
        q.reschedule(&m, to);
        log.clear();
        while (Event *ev = q.pop())
            ev->process();
        return log;
    };
    EXPECT_EQ(drainAfterMoving(10), (std::vector<int>{1, 2, 0, 3, 4}));
    EXPECT_EQ(drainAfterMoving(20), (std::vector<int>{1, 2, 3, 0, 4}));
    EXPECT_EQ(drainAfterMoving(30), (std::vector<int>{1, 2, 3, 4, 0}));
}

} // namespace
