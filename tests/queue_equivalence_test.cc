/**
 * @file
 * Queue-equivalence suite: EventQueue must dispatch in exactly the
 * order of a (time, sequence)-keyed min-heap with lazy cancellation.
 *
 * A test-only reference min-heap replays fuzz-seeded traces of
 * schedule / cancel / reschedule / dispatch operations alongside the
 * real EventQueue; every dispatched event must match one-for-one. The
 * traces stress duplicate ticks, deep horizons, cancellations anywhere
 * in the queue, rescheduling in both directions, and interleaved
 * drain/schedule phases that grow and shrink the backlog.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "base/random.hh"
#include "sim/event.hh"

namespace {

using namespace jscale;
using sim::Event;
using sim::EventQueue;

/** Reference implementation: the exact (when, seq) min-heap semantics
 *  the production queue replaced, including lazy cancellation. */
class ReferenceQueue
{
  public:
    void
    schedule(int id, Ticks when)
    {
        heap_.push(Entry{when, next_seq_, id});
        live_seq_[id] = next_seq_;
        ++next_seq_;
        ++live_;
    }

    void
    cancel(int id)
    {
        const auto it = live_seq_.find(id);
        if (it == live_seq_.end() || it->second == kNone)
            return;
        cancelled_.push_back(it->second);
        it->second = kNone;
        --live_;
    }

    bool
    scheduled(int id) const
    {
        const auto it = live_seq_.find(id);
        return it != live_seq_.end() && it->second != kNone;
    }
    bool empty() const { return live_ == 0; }

    /** Pop the earliest live entry; returns (id, when). */
    std::pair<int, Ticks>
    pop()
    {
        for (;;) {
            const Entry e = heap_.top();
            heap_.pop();
            const auto it =
                std::find(cancelled_.begin(), cancelled_.end(), e.seq);
            if (it != cancelled_.end()) {
                cancelled_.erase(it);
                continue;
            }
            live_seq_[e.id] = kNone;
            --live_;
            return {e.id, e.when};
        }
    }

  private:
    struct Entry
    {
        Ticks when;
        std::uint64_t seq;
        int id;

        bool
        operator>(const Entry &o) const
        {
            if (when != o.when)
                return when > o.when;
            return seq > o.seq;
        }
    };

    static constexpr std::uint64_t kNone = ~std::uint64_t{0};

    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap_;
    std::vector<std::uint64_t> cancelled_;
    std::map<int, std::uint64_t> live_seq_;
    std::uint64_t next_seq_ = 0;
    std::size_t live_ = 0;
};

/** Event that records (id, when) of its firing. */
class TraceEvent : public Event
{
  public:
    TraceEvent(std::vector<std::pair<int, Ticks>> &log, int id)
        : log_(log), id_(id)
    {}

    void process() override { log_.push_back({id_, when()}); }
    std::string name() const override { return "trace-event"; }

  private:
    std::vector<std::pair<int, Ticks>> &log_;
    int id_;
};

/**
 * Replay one seeded random trace through both queues and assert
 * identical dispatch order. @p horizon controls how far apart event
 * times spread.
 */
void
replayTrace(std::uint64_t seed, int n_events, Ticks horizon, int rounds)
{
    Rng rng(seed);
    std::vector<std::pair<int, Ticks>> dispatched;
    std::vector<std::unique_ptr<TraceEvent>> events;
    for (int i = 0; i < n_events; ++i)
        events.push_back(std::make_unique<TraceEvent>(dispatched, i));

    EventQueue queue;
    ReferenceQueue ref;
    Ticks now = 0;

    for (int round = 0; round < rounds; ++round) {
        // Mixed schedule/cancel/reschedule phase.
        for (int op = 0; op < n_events; ++op) {
            const int id = static_cast<int>(rng.below(
                static_cast<std::uint64_t>(n_events)));
            Event *ev = events[id].get();
            const std::uint64_t kind = rng.below(10);
            if (kind < 6) {
                if (!ev->scheduled()) {
                    const Ticks when = now + 1 + rng.below(horizon);
                    queue.schedule(ev, when);
                    ref.schedule(id, when);
                }
            } else if (kind < 8) {
                if (ev->scheduled()) {
                    queue.deschedule(ev);
                    ref.cancel(id);
                }
            } else {
                const Ticks when = now + 1 + rng.below(horizon);
                if (ev->scheduled())
                    ref.cancel(id);
                queue.reschedule(ev, when);
                ref.schedule(id, when);
            }
            ASSERT_EQ(ev->scheduled(), ref.scheduled(id));
        }
        ASSERT_EQ(queue.size(), ref.empty() ? 0u : queue.size());

        // Drain roughly half the backlog (fully on the last round),
        // checking the dispatch order entry by entry.
        const std::size_t target =
            round + 1 == rounds ? 0 : queue.size() / 2;
        while (queue.size() > target) {
            ASSERT_FALSE(ref.empty());
            const Ticks next = queue.nextTime();
            Event *ev = queue.pop();
            ASSERT_NE(ev, nullptr);
            now = ev->when();
            ASSERT_EQ(next, now);
            dispatched.clear();
            ev->process();
            ASSERT_EQ(dispatched.size(), 1u);
            const auto [ref_id, ref_when] = ref.pop();
            ASSERT_EQ(dispatched[0].first, ref_id)
                << "seed " << seed << ": dispatch order diverged at t="
                << now;
            ASSERT_EQ(dispatched[0].second, ref_when);
        }
    }
    ASSERT_TRUE(queue.empty());
    ASSERT_TRUE(ref.empty());
}

class QueueEquivalence : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(QueueEquivalence, NarrowHorizonDenseTicks)
{
    // Many collisions per tick: tie-breaking order is the whole story.
    replayTrace(GetParam(), 64, 16, 4);
}

TEST_P(QueueEquivalence, MediumHorizon)
{
    replayTrace(GetParam() ^ 0x9e3779b9, 128, 4096, 3);
}

TEST_P(QueueEquivalence, DeepHorizonForcesRebuckets)
{
    // Times spread over 2^34 ticks: few ties, a wide pending span.
    replayTrace(GetParam() + 1000, 96, Ticks{1} << 34, 3);
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueueEquivalence,
                         ::testing::Range<std::uint64_t>(0, 25));

TEST(QueueEquivalenceEdge, BacklogGrowsAndDrainsRepeatedly)
{
    // Backlog oscillation: grow to 2k, drain to near-empty, regrow,
    // without reordering.
    replayTrace(77, 2048, 1 << 20, 5);
}

TEST(QueueEquivalenceEdge, SingleTickAllEvents)
{
    // Degenerate width: every event on one tick, pure sequence order.
    Rng rng(3);
    std::vector<std::pair<int, Ticks>> log;
    std::vector<std::unique_ptr<TraceEvent>> events;
    EventQueue queue;
    for (int i = 0; i < 500; ++i) {
        events.push_back(std::make_unique<TraceEvent>(log, i));
        queue.schedule(events.back().get(), 42);
    }
    while (Event *ev = queue.pop())
        ev->process();
    ASSERT_EQ(log.size(), 500u);
    for (int i = 0; i < 500; ++i)
        EXPECT_EQ(log[static_cast<std::size_t>(i)].first, i);
}

} // namespace
