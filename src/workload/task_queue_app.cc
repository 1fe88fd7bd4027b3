#include "workload/task_queue_app.hh"

#include <algorithm>
#include <optional>

#include "base/logging.hh"

namespace jscale::workload {

/** Per-run shared state: the task pool and the monitor ids. */
struct TaskQueueApp::RunState
{
    TaskPool pool;
    std::uint64_t chunk_size = 1;
    jvm::MonitorId queue_lock = 0;
    std::vector<jvm::MonitorId> sync_stripes;

    struct Resource
    {
        SharedResourceSpec spec;
        std::vector<jvm::MonitorId> stripes;
        std::optional<ZipfDistribution> zipf;
    };
    std::vector<Resource> resources;
};

/** One worker thread's behaviour stream. */
class TaskQueueApp::WorkerSource : public BufferedSource
{
  public:
    WorkerSource(const TaskQueueApp &app, std::uint32_t thread_idx, Rng rng)
        : app_(app), thread_idx_(thread_idx), rng_(rng)
    {}

  protected:
    bool
    refill(std::vector<jvm::Action> &out) override
    {
        if (!started_) {
            started_ = true;
            app_.emitStartup(out, rng_, thread_idx_);
            return true;
        }
        return emitChunk(out);
    }

  private:
    bool
    emitChunk(std::vector<jvm::Action> &out)
    {
        // Fetch a chunk from the shared queue (always pays the queue
        // round-trip, including the final empty check). The fetch
        // marker ahead of the queue lock is the governor's admission
        // point: a parked thread stops *before* contending for the
        // queue, not while holding it.
        RunState &state = *app_.state_;
        const std::uint64_t n = state.pool.claim(state.chunk_size);
        out.push_back(jvm::Action::taskFetch());
        app_.emitQueueCs(out);
        if (n == 0)
            return false;

        for (std::uint64_t t = 0; t < n; ++t) {
            app_.emitTask(out, rng_);
            out.push_back(jvm::Action::taskDone());
        }

        // Per-chunk coordination (phase sync, result merge) over the
        // striped sync structure.
        for (std::uint32_t s = 0; s < app_.params_.sync_locks_per_chunk;
             ++s)
            app_.emitSyncStripe(out, rng_);
        return true;
    }

    const TaskQueueApp &app_;
    std::uint32_t thread_idx_;
    Rng rng_;
    bool started_ = false;
};

void
TaskQueueApp::emitStartup(std::vector<jvm::Action> &out, Rng &rng,
                          std::uint32_t thread_idx) const
{
    emitStartupBatch(out, rng, thread_idx, params_.startup_compute,
                     params_.pinned_shared, params_.pinned_shared_objects);
    emitPinnedData(out, rng, params_.pinned_per_thread,
                   params_.pinned_thread_objects, /*site=*/2);
}

void
TaskQueueApp::emitRequest(std::vector<jvm::Action> &out, Rng &rng) const
{
    emitQueueCs(out);
    emitTask(out, rng);
    emitSyncStripe(out, rng);
}

void
TaskQueueApp::emitQueueCs(std::vector<jvm::Action> &out) const
{
    out.push_back(jvm::Action::monitorEnter(state_->queue_lock));
    out.push_back(
        jvm::Action::compute(std::max<Ticks>(params_.queue_cs, 1)));
    out.push_back(jvm::Action::monitorExit(state_->queue_lock));
}

void
TaskQueueApp::emitTask(std::vector<jvm::Action> &out, Rng &rng) const
{
    const Ticks compute = drawTicks(rng, params_.task_compute_mean,
                                    params_.task_compute_sigma);
    const std::uint32_t allocs =
        params_.allocs_per_task == 0
            ? 0
            : static_cast<std::uint32_t>(rng.range(
                  params_.allocs_per_task / 2,
                  params_.allocs_per_task + params_.allocs_per_task / 2));

    // First half of the task body.
    emitTaskBody(out, rng, params_.alloc, compute / 2, allocs / 2,
                 /*site=*/3);

    // Shared-resource accesses in the middle of the task.
    for (const auto &res : state_->resources) {
        double expected = res.spec.accesses_per_task;
        std::uint32_t accesses = static_cast<std::uint32_t>(expected);
        expected -= accesses;
        if (expected > 0.0 && rng.chance(expected))
            ++accesses;
        for (std::uint32_t a = 0; a < accesses; ++a) {
            const std::size_t stripe =
                res.zipf ? res.zipf->sample(rng)
                         : (res.spec.stripes > 1
                                ? rng.below(res.spec.stripes)
                                : 0);
            out.push_back(jvm::Action::monitorEnter(res.stripes[stripe]));
            for (std::uint32_t k = 0; k < res.spec.allocs_in_cs; ++k)
                out.push_back(drawAllocation(rng, params_.alloc, /*site=*/4));
            out.push_back(jvm::Action::compute(
                std::max<Ticks>(res.spec.cs_compute, 1)));
            out.push_back(jvm::Action::monitorExit(res.stripes[stripe]));
        }
    }

    // Second half of the task body.
    emitTaskBody(out, rng, params_.alloc, compute - compute / 2,
                 allocs - allocs / 2, /*site=*/3);
}

void
TaskQueueApp::emitSyncStripe(std::vector<jvm::Action> &out, Rng &rng) const
{
    const jvm::MonitorId stripe =
        state_->sync_stripes[rng.below(state_->sync_stripes.size())];
    out.push_back(jvm::Action::monitorEnter(stripe));
    out.push_back(jvm::Action::compute(std::max<Ticks>(params_.sync_cs, 1)));
    out.push_back(jvm::Action::monitorExit(stripe));
}

TaskQueueApp::TaskQueueApp(TaskQueueParams params)
    : params_(std::move(params))
{
    jscale_assert(params_.total_tasks > 0, "app needs at least one task");
    jscale_assert(params_.chunk_divisor > 0.0,
                  "chunk divisor must be positive");
}

TaskQueueApp::~TaskQueueApp() = default;

void
TaskQueueApp::setup(jvm::AppContext &ctx)
{
    setupRequests(ctx);
    state_->pool.remaining = params_.total_tasks;
    state_->chunk_size = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               static_cast<double>(params_.total_tasks) /
               (params_.chunk_divisor *
                static_cast<double>(ctx.threadCount()))));
}

void
TaskQueueApp::setupRequests(jvm::AppContext &ctx)
{
    state_ = std::make_unique<RunState>();
    state_->queue_lock = ctx.createMonitor(params_.name + ".task-queue");
    for (std::uint32_t s = 0; s < std::max<std::uint32_t>(
                                      params_.sync_stripes, 1);
         ++s) {
        state_->sync_stripes.push_back(ctx.createMonitor(
            params_.name + ".phase-sync." + std::to_string(s)));
    }
    for (const auto &spec : params_.resources) {
        RunState::Resource res;
        res.spec = spec;
        jscale_assert(spec.stripes >= 1, "resource needs >= 1 stripe");
        for (std::uint32_t s = 0; s < spec.stripes; ++s) {
            res.stripes.push_back(ctx.createMonitor(
                params_.name + "." + spec.name + "." + std::to_string(s)));
        }
        if (spec.stripes > 1 && spec.zipf_skew > 0.0)
            res.zipf.emplace(spec.stripes, spec.zipf_skew);
        state_->resources.push_back(std::move(res));
    }
}

std::unique_ptr<jvm::ActionSource>
TaskQueueApp::threadSource(std::uint32_t thread_idx, jvm::AppContext &ctx)
{
    jscale_assert(state_ != nullptr, "setup() must precede threadSource()");
    return std::make_unique<WorkerSource>(*this, thread_idx,
                                          ctx.forkThreadRng(thread_idx));
}

} // namespace jscale::workload
