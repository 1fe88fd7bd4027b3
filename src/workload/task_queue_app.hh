/**
 * @file
 * TaskQueueApp: the scalable application family.
 *
 * Models data-parallel DaCapo applications (sunflow, lusearch, xalan): a
 * fixed body of identical tasks is claimed from a shared queue in chunks
 * whose size *shrinks* as threads are added (finer work division for
 * load balance, as fork-join runtimes do), so queue/synchronization lock
 * traffic grows with the thread count while total application work stays
 * fixed — reproducing the paper's Fig. 1a/1b behaviour for scalable
 * apps. Tasks also touch shared striped resources (index caches, output
 * buffers) under short critical sections.
 */

#ifndef JSCALE_WORKLOAD_TASK_QUEUE_APP_HH
#define JSCALE_WORKLOAD_TASK_QUEUE_APP_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "base/units.hh"
#include "jvm/runtime/app.hh"
#include "workload/alloc_profile.hh"
#include "workload/source.hh"

namespace jscale::workload {

/** A shared resource (striped monitors) touched by task bodies. */
struct SharedResourceSpec
{
    std::string name;
    /** Number of lock stripes guarding the resource. */
    std::uint32_t stripes = 1;
    /** Zipf skew of stripe popularity (0 = uniform). */
    double zipf_skew = 0.0;
    /** Expected accesses per task. */
    double accesses_per_task = 1.0;
    /** Compute time while holding the stripe. */
    Ticks cs_compute = 2 * units::US;
    /** Allocations performed while holding (e.g. output append). */
    std::uint32_t allocs_in_cs = 0;
};

/** Parameters of a task-queue application. */
struct TaskQueueParams
{
    std::string name = "taskqueue";
    /** Fixed total work, independent of thread count. */
    std::uint64_t total_tasks = 4000;
    /**
     * Work-division granularity: chunk size = total_tasks /
     * (chunk_divisor * threads), so chunk count (and queue lock traffic)
     * grows linearly with threads.
     */
    double chunk_divisor = 40.0;
    /** Lock acquisitions per chunk beyond the fetch itself (phase sync,
     *  result merge). */
    std::uint32_t sync_locks_per_chunk = 2;
    /** Stripes of the sync/merge structure (spreads the traffic). */
    std::uint32_t sync_stripes = 8;
    /** Critical-section compute of sync/merge operations. */
    Ticks sync_cs = 1800;
    /** Mean per-task computation (log-normal). */
    Ticks task_compute_mean = 150 * units::US;
    /** Log-space sigma of per-task computation. */
    double task_compute_sigma = 0.45;
    /** Mean allocations per task (uniform in [mean/2, 3*mean/2]). */
    std::uint32_t allocs_per_task = 24;
    AllocationProfile alloc;
    /** Queue critical-section compute per fetch. */
    Ticks queue_cs = 1500;
    std::vector<SharedResourceSpec> resources;
    /** Application-lifetime shared data allocated by thread 0. */
    Bytes pinned_shared = 256 * units::KiB;
    std::uint32_t pinned_shared_objects = 64;
    /** Application-lifetime per-thread data. */
    Bytes pinned_per_thread = 4 * units::KiB;
    std::uint32_t pinned_thread_objects = 4;
    /** Per-thread startup computation. */
    Ticks startup_compute = 200 * units::US;
};

/**
 * The scalable task-queue application model. A request is the
 * queue critical section, one task and one sync stripe: lock traffic
 * stays proportional to the work rate, which is the property the
 * scalability analysis depends on.
 */
class TaskQueueApp : public WorkloadApp
{
  public:
    explicit TaskQueueApp(TaskQueueParams params);
    ~TaskQueueApp() override;

    std::string appName() const override { return params_.name; }
    void setup(jvm::AppContext &ctx) override;
    std::unique_ptr<jvm::ActionSource>
    threadSource(std::uint32_t thread_idx, jvm::AppContext &ctx) override;

    void setupRequests(jvm::AppContext &ctx) override;
    void emitStartup(std::vector<jvm::Action> &out, Rng &rng,
                     std::uint32_t thread_idx) const override;
    void emitRequest(std::vector<jvm::Action> &out,
                     Rng &rng) const override;

  private:
    struct RunState;
    class WorkerSource;

    /** The shared queue's critical section. */
    void emitQueueCs(std::vector<jvm::Action> &out) const;
    /** One task body, shared-resource accesses included, no TaskDone. */
    void emitTask(std::vector<jvm::Action> &out, Rng &rng) const;
    /** One critical section on a random sync/merge stripe. */
    void emitSyncStripe(std::vector<jvm::Action> &out, Rng &rng) const;

    TaskQueueParams params_;
    std::unique_ptr<RunState> state_;
};

} // namespace jscale::workload

#endif // JSCALE_WORKLOAD_TASK_QUEUE_APP_HH
