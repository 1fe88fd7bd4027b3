/**
 * @file
 * The mutator action vocabulary.
 *
 * A mutator thread's behaviour is a stream of actions produced on demand
 * by an ActionSource (implemented by workload models). Each action
 * carries a CPU cost; its *effect* (allocation, lock transition, channel
 * operation) executes when the cost has been fully paid, which is what
 * lets the scheduler preempt threads mid-action without corrupting
 * runtime state.
 */

#ifndef JSCALE_JVM_THREADS_ACTION_HH
#define JSCALE_JVM_THREADS_ACTION_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "base/logging.hh"
#include "base/units.hh"
#include "jvm/object/object.hh"
#include "jvm/runtime/listener.hh"

namespace jscale::jvm {

/** One step of mutator behaviour. Build via the factory functions. */
struct Action
{
    enum class Kind : std::uint8_t
    {
        /** Pure computation for `ticks` of CPU time. */
        Compute,
        /** Allocate `bytes` with owner-local TTL `ttl` at site `site`. */
        Allocate,
        /** Acquire monitor `id` (may block). */
        MonitorEnter,
        /** Release monitor `id`. */
        MonitorExit,
        /** Object.wait() on held monitor `id` (releases + blocks). */
        MonitorWait,
        /** Object.notify() (`count`=1) / notifyAll() (`count`=0) on
         *  held monitor `id`. */
        MonitorNotify,
        /** Consume one permit of channel `id` (may block). */
        ChannelAcquire,
        /** Add `count` permits to channel `id`. */
        ChannelPost,
        /**
         * About to fetch work from a shared pool. The VM's admission
         * controller (concurrency governor) may park the thread here;
         * without one this is a one-tick no-op.
         */
        TaskFetch,
        /** Mark one application task as completed (bookkeeping). */
        TaskDone,
        /** Thread is finished; no further actions will be requested. */
        End,
    };

    Kind kind = Kind::End;
    /** Compute duration. */
    Ticks ticks = 0;
    /** Allocation size. */
    Bytes bytes = 0;
    /** Owner-local TTL in bytes (kImmortalTtl = pinned). */
    Bytes ttl = 0;
    /** Monitor/channel id. */
    std::uint32_t id = 0;
    /** Allocation site. */
    AllocSiteId site = 0;
    /** Channel post count. */
    std::uint32_t count = 0;

    static Action
    compute(Ticks ticks)
    {
        Action a;
        a.kind = Kind::Compute;
        a.ticks = ticks;
        return a;
    }

    static Action
    allocate(Bytes bytes, Bytes ttl, AllocSiteId site = 0)
    {
        Action a;
        a.kind = Kind::Allocate;
        a.bytes = bytes;
        a.ttl = ttl;
        a.site = site;
        return a;
    }

    /** Allocate an object that stays live for the whole run. */
    static Action
    allocatePinned(Bytes bytes, AllocSiteId site = 0)
    {
        return allocate(bytes, kImmortalTtl, site);
    }

    static Action
    monitorEnter(MonitorId id)
    {
        Action a;
        a.kind = Kind::MonitorEnter;
        a.id = id;
        return a;
    }

    static Action
    monitorExit(MonitorId id)
    {
        Action a;
        a.kind = Kind::MonitorExit;
        a.id = id;
        return a;
    }

    static Action
    monitorWait(MonitorId id)
    {
        Action a;
        a.kind = Kind::MonitorWait;
        a.id = id;
        return a;
    }

    /** @p count 0 notifies all waiters. */
    static Action
    monitorNotify(MonitorId id, std::uint32_t count = 1)
    {
        Action a;
        a.kind = Kind::MonitorNotify;
        a.id = id;
        a.count = count;
        return a;
    }

    static Action
    channelAcquire(ChannelId id)
    {
        Action a;
        a.kind = Kind::ChannelAcquire;
        a.id = id;
        return a;
    }

    static Action
    channelPost(ChannelId id, std::uint32_t count = 1)
    {
        Action a;
        a.kind = Kind::ChannelPost;
        a.id = id;
        a.count = count;
        return a;
    }

    static Action
    taskFetch()
    {
        Action a;
        a.kind = Kind::TaskFetch;
        return a;
    }

    static Action
    taskDone()
    {
        Action a;
        a.kind = Kind::TaskDone;
        return a;
    }

    static Action
    end()
    {
        Action a;
        a.kind = Kind::End;
        return a;
    }
};

/**
 * Per-thread behaviour generator, implemented by workload models.
 * next() is called exactly once per consumed action and must eventually
 * return Action::end(). It reads the actions in place from a span the
 * source serves, so only a used-up span costs a virtual call.
 */
class ActionSource
{
  public:
    virtual ~ActionSource() = default;

    /** The thread's next action, valid until the next call. */
    const Action &
    next()
    {
        if (next_ == end_)
            refillSpan();
        return *next_++;
    }

  protected:
    /** Serve [@p begin, @p end) next; the actions stay in place until
     *  the next refillSpan(). */
    void
    serve(const Action *begin, const Action *end)
    {
        jscale_assert(begin != end, "an action source served no action");
        next_ = begin;
        end_ = end;
    }

  private:
    /** The span is used up: serve() the next actions. */
    virtual void refillSpan() = 0;

    const Action *next_ = nullptr;
    const Action *end_ = nullptr;
};

/** Serves a fixed action list, then End for good. */
class ScriptSource : public ActionSource
{
  public:
    explicit ScriptSource(std::vector<Action> script)
        : script_(std::move(script))
    {
        script_.push_back(Action::end());
    }

  private:
    void
    refillSpan() final
    {
        const Action *from = served_ ? &script_.back() : script_.data();
        served_ = true;
        serve(from, script_.data() + script_.size());
    }

    std::vector<Action> script_;
    bool served_ = false;
};

} // namespace jscale::jvm

#endif // JSCALE_JVM_THREADS_ACTION_HH
