/**
 * @file
 * TrafficEngine: the open-loop request injector and latency pipeline.
 *
 * One engine drives one VM's request stream. It owns:
 *
 *  - the *arrival side*: a seeded ArrivalProcess scheduling arrival
 *    events on the simulation, a bounded admission queue with a
 *    configurable shed policy, and a counting-semaphore hand-off to
 *    the serving worker threads (one permit per admitted request, plus
 *    one end-of-stream sentinel per worker);
 *
 *  - the *latency side*: integer-exact arrival/dispatch/completion
 *    stamps per request, decomposed as
 *
 *        sojourn == queueing (arrival->dispatch)
 *                 + service  (dispatch->completion)
 *
 *    with the service half further attributed to the TaskProfiler's
 *    wait-state buckets (cpu, lock, gc-stw, ...). The engine uses the
 *    VM's one profiler: on every onRequestDispatched probe the profiler
 *    restarts the serving thread's attribution window, so the window
 *    it closes at TaskDone covers exactly [dispatch, completion] and
 *    its buckets sum to service time by construction.
 *
 * Every boundary is also published on the VM's RuntimeListener chain
 * (onRequestArrival/Shed/Dispatched/Completed), which is what the
 * conservation oracle, telemetry and tests observe.
 */

#ifndef JSCALE_TRAFFIC_ENGINE_HH
#define JSCALE_TRAFFIC_ENGINE_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "base/units.hh"
#include "jvm/runtime/vm.hh"
#include "profile/profiler.hh"
#include "sim/event.hh"
#include "traffic/arrival.hh"

namespace jscale::traffic {

/**
 * The injector. Construct against a VM, let the OpenLoopApp bind() and
 * arm() it during setup, read summary() after the run.
 */
class TrafficEngine
{
  public:
    /** Drive @p vm's request stream; per-request service comes from a
     *  task sink on @p profiler, the VM's attribution profiler. */
    TrafficEngine(jvm::JavaVm &vm, const ArrivalSpec &spec,
                  profile::TaskProfiler &profiler);
    ~TrafficEngine();

    TrafficEngine(const TrafficEngine &) = delete;
    TrafficEngine &operator=(const TrafficEngine &) = delete;

    /**
     * Connect the request hand-off channel and the worker count
     * (called by OpenLoopApp::setup).
     */
    void bind(jvm::ChannelId channel, std::uint32_t n_workers);

    /** Schedule the first arrival (after bind, before simulation). */
    void arm();

    /**
     * Serving worker @p thread claimed a permit and asks for its
     * request: pops the queue head, stamps the dispatch, and fires
     * onRequestDispatched. @return false when the permit was an
     * end-of-stream sentinel — the worker emits End and exits.
     */
    bool dispatchNext(jvm::MutatorIndex thread);

    /** Aggregate per-request results (valid after the run). */
    jvm::TrafficSummary summary() const;

    /** Requests currently queued (live gauge). */
    std::uint64_t queueDepth() const { return queue_.size(); }

    /** Requests dispatched but not yet completed (live gauge). */
    std::uint64_t inflightCount() const;

  private:
    void onArrival();
    void scheduleNext(Ticks now);
    void onServiceComplete(const jvm::SlowTaskRecord &rec);

    struct Queued
    {
        std::uint64_t id = 0;
        Ticks arrival = 0;
    };

    struct Inflight
    {
        bool active = false;
        std::uint64_t id = 0;
        Ticks arrival = 0;
        Ticks dispatch = 0;
    };

    jvm::JavaVm &vm_;
    sim::Simulation &sim_;
    ArrivalSpec spec_;
    ArrivalProcess process_;
    std::unique_ptr<sim::CallbackEvent> arrival_event_;

    jvm::ChannelId channel_ = 0;
    bool bound_ = false;
    std::uint32_t n_workers_ = 0;

    std::deque<Queued> queue_;
    std::vector<Inflight> inflight_;

    std::uint64_t arrivals_ = 0;
    std::uint64_t admitted_ = 0;
    std::uint64_t shed_ = 0;
    std::uint64_t dispatched_ = 0;
    std::uint64_t completed_ = 0;
    std::uint64_t max_queue_depth_ = 0;

    stats::LatencyHistogram sojourn_;
    stats::LatencyHistogram queueing_;
    stats::LatencyHistogram service_;
    Ticks service_bucket_total_[jvm::kWaitBucketCount] = {};
};

} // namespace jscale::traffic

#endif // JSCALE_TRAFFIC_ENGINE_HH
