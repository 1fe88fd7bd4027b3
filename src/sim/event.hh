/**
 * @file
 * Discrete-event kernel: events and the event queue.
 *
 * Events are processed in (time, sequence) order, so two events scheduled
 * for the same tick always fire in the order they were scheduled — the
 * determinism guarantee the rest of the simulator builds on.
 *
 * The queue is a binary min-heap of {time, event} entries in one
 * vector; ties on time compare the events' sequence numbers. Each event
 * records its own heap slot, so deschedule() and reschedule() move it in
 * O(log n) and the heap only ever holds live, scheduled events. The
 * contract for event owners is therefore simple: deschedule your events
 * in your destructor and the queue may safely outlive you.
 *
 * The simulator's queues stay shallow by construction (one pending
 * slice end per core plus a few timers), which is why a plain heap is
 * the right structure; see docs/performance.md.
 */

#ifndef JSCALE_SIM_EVENT_HH
#define JSCALE_SIM_EVENT_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "base/units.hh"

namespace jscale::sim {

class EventQueue;

/**
 * An occurrence scheduled at a simulated time. Subclasses implement
 * process(). Events are owned by their components (they are *not* deleted
 * by the queue) unless they opt into self-deletion via selfDeleting().
 */
class Event
{
  public:
    virtual ~Event();

    Event(const Event &) = delete;
    Event &operator=(const Event &) = delete;

    /** Invoked when the event's scheduled time is reached. */
    virtual void process() = 0;

    /** Human-readable name for diagnostics. */
    virtual std::string name() const { return "event"; }

    /** Whether the queue should delete this event after processing. */
    virtual bool selfDeleting() const { return false; }

    /** Time this event is scheduled for (valid only while scheduled). */
    Ticks when() const { return when_; }

    /** True while the event sits in a queue awaiting dispatch. */
    bool scheduled() const { return slot_ != kNoSlot; }

  protected:
    Event() = default;

  private:
    friend class EventQueue;

    static constexpr std::size_t kNoSlot = ~std::size_t{0};

    Ticks when_ = 0;
    std::uint64_t seq_ = 0;
    /** Index of this event's heap entry; kNoSlot while unscheduled. */
    std::size_t slot_ = kNoSlot;
};

/** Convenience event wrapping a callable; self-deletes after firing. */
class LambdaEvent : public Event
{
  public:
    /** @param fn callback to run; @param what diagnostic label. */
    explicit LambdaEvent(std::function<void()> fn,
                         std::string what = "lambda")
        : fn_(std::move(fn)), what_(std::move(what))
    {}

    void process() override { fn_(); }
    std::string name() const override { return what_; }
    bool selfDeleting() const override { return true; }

  private:
    std::function<void()> fn_;
    std::string what_;
};

/**
 * Reusable callback event: the closure is allocated once at
 * construction and the event can be scheduled again after each firing,
 * so recurring uses pay no per-occurrence heap allocation (unlike a
 * fresh LambdaEvent per tick). Owned by its creator, never the queue.
 */
class CallbackEvent : public Event
{
  public:
    explicit CallbackEvent(std::function<void()> fn,
                           std::string what = "callback")
        : fn_(std::move(fn)), what_(std::move(what))
    {}

    void process() override { fn_(); }
    std::string name() const override { return what_; }

  private:
    std::function<void()> fn_;
    std::string what_;
};

/**
 * Deterministic event queue keyed by (time, insertion sequence): a
 * binary min-heap whose events know their slots, so every operation is
 * O(log n) and nextTime() is O(1).
 */
class EventQueue
{
  public:
    EventQueue() = default;
    ~EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /**
     * Schedule @p ev at absolute time @p when. Scheduling an
     * already-scheduled event is a simulator bug.
     */
    void schedule(Event *ev, Ticks when);

    /**
     * Remove @p ev from the queue; no-op if not scheduled. A
     * self-deleting event is deleted here (it can never be popped
     * again, so this is its last reachable moment); the caller must
     * not touch it afterwards.
     */
    void deschedule(Event *ev);

    /**
     * Deschedule (if needed) and schedule at a new time. Unlike
     * deschedule(), never deletes: the event is live again on exit.
     */
    void reschedule(Event *ev, Ticks when);

    /** True when no events are pending. */
    bool empty() const { return heap_.empty(); }

    /** Number of pending events. */
    std::size_t size() const { return heap_.size(); }

    /** Time of the earliest pending event; queue must not be empty. */
    Ticks
    nextTime() const
    {
        jscale_assert(!heap_.empty(), "nextTime() on empty event queue");
        return heap_.front().when;
    }

    /**
     * Pop and return the earliest pending event, marking it
     * unscheduled. Returns nullptr when empty. The caller runs
     * process() and honours selfDeleting().
     */
    Event *pop();

    /** Always 0: a heap never re-tunes (kept for the e2e driver). */
    std::uint64_t rebucketCount() const { return 0; }

  private:
    /** 16 bytes; ties on @c when compare @c ev->seq_. */
    struct Entry
    {
        Ticks when;
        Event *ev;
    };

    static bool
    before(const Entry &a, const Entry &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        return a.ev->seq_ < b.ev->seq_;
    }

    /** Store @p e at @p slot: every entry write keeps slot_ in step. */
    void
    put(std::size_t slot, Entry e)
    {
        heap_[slot] = e;
        e.ev->slot_ = slot;
    }

    /** Fill the hole at @p slot with @p e, sifting it up or down. */
    void settle(std::size_t slot, Entry e);

    /** Take the entry at @p slot out of the heap. */
    void remove(std::size_t slot);

    std::vector<Entry> heap_;
    std::uint64_t next_seq_ = 0;
};

/**
 * Self-rescheduling periodic event: fires every @p period ticks from
 * start() until stop() or destruction. The callback is allocated once,
 * so periodic activities (metric sampling, phase rotation) stop paying
 * a heap-allocated closure per occurrence. The owner controls lifetime;
 * the destructor deschedules, so it may die before the queue.
 */
class RecurringEvent : public Event
{
  public:
    RecurringEvent(EventQueue &queue, TickDelta period,
                   std::function<void()> fn,
                   std::string what = "recurring")
        : queue_(queue), period_(period), fn_(std::move(fn)),
          what_(std::move(what))
    {}

    ~RecurringEvent() override { stop(); }

    /** Schedule the first firing at absolute time @p first. */
    void
    start(Ticks first)
    {
        stopped_ = false;
        queue_.schedule(this, first);
    }

    /** Cancel the pending firing and suppress rearming. */
    void
    stop()
    {
        stopped_ = true;
        queue_.deschedule(this);
    }

    void
    process() override
    {
        fn_();
        // Rearm after the callback (matching the fire-then-schedule
        // order of a hand-rolled lambda chain) unless the callback
        // stopped this event or rescheduled it itself.
        if (!stopped_ && !scheduled())
            queue_.schedule(this, when() + static_cast<Ticks>(period_));
    }

    std::string name() const override { return what_; }

    TickDelta period() const { return period_; }

  private:
    EventQueue &queue_;
    TickDelta period_;
    std::function<void()> fn_;
    std::string what_;
    bool stopped_ = false;
};

} // namespace jscale::sim

#endif // JSCALE_SIM_EVENT_HH
