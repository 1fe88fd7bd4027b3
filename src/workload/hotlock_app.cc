#include "workload/hotlock_app.hh"

#include "base/logging.hh"

namespace jscale::workload {

struct HotLockApp::RunState
{
    TaskPool pool;
    jvm::MonitorId hot_lock = 0;
};

HotLockApp::HotLockApp(HotLockParams params) : params_(std::move(params))
{
    jscale_assert(params_.total_ops > 0, "app needs at least one op");
}

HotLockApp::~HotLockApp() = default;

void
HotLockApp::setup(jvm::AppContext &ctx)
{
    setupRequests(ctx);
    state_->pool.remaining = params_.total_ops;
}

void
HotLockApp::setupRequests(jvm::AppContext &ctx)
{
    state_ = std::make_unique<RunState>();
    state_->hot_lock = ctx.createMonitor(params_.name + ".hot-lock");
}

void
HotLockApp::emitStartup(std::vector<jvm::Action> &out, Rng &rng,
                        std::uint32_t thread_idx) const
{
    emitStartupBatch(out, rng, thread_idx, params_.startup_compute,
                     params_.pinned_shared, params_.pinned_shared_objects);
}

void
HotLockApp::emitRequest(std::vector<jvm::Action> &out, Rng &rng) const
{
    // Private phase: think-time compute plus a couple of small
    // allocations, fully parallel.
    const Ticks local = drawTicks(rng, params_.local_compute_mean,
                                  params_.local_compute_sigma);
    emitTaskBody(out, rng, params_.alloc, local, params_.allocs_per_op,
                 /*site=*/2);

    // Serialized phase: the one hot lock, held briefly.
    const Ticks cs =
        drawTicks(rng, params_.cs_compute_mean, params_.cs_compute_sigma);
    out.push_back(jvm::Action::monitorEnter(state_->hot_lock));
    out.push_back(jvm::Action::compute(cs));
    out.push_back(jvm::Action::monitorExit(state_->hot_lock));
}

std::unique_ptr<jvm::ActionSource>
HotLockApp::threadSource(std::uint32_t thread_idx, jvm::AppContext &ctx)
{
    jscale_assert(state_ != nullptr, "setup() must precede threadSource()");
    return std::make_unique<RequestLoopSource>(
        *this, state_->pool, thread_idx, ctx.forkThreadRng(thread_idx));
}

} // namespace jscale::workload
