#include "workload/interpreter_app.hh"

#include <algorithm>

#include "base/logging.hh"

namespace jscale::workload {

struct InterpreterApp::RunState
{
    TaskPool pool;
    jvm::MonitorId gil = 0;
};

InterpreterApp::InterpreterApp(InterpreterParams params)
    : params_(std::move(params))
{
    jscale_assert(params_.worker_cap >= 1, "worker cap must be >= 1");
    jscale_assert(params_.total_units > 0, "app needs at least one unit");
}

InterpreterApp::~InterpreterApp() = default;

void
InterpreterApp::setup(jvm::AppContext &ctx)
{
    setupRequests(ctx);
    state_->pool.remaining = params_.total_units;
}

void
InterpreterApp::setupRequests(jvm::AppContext &ctx)
{
    state_ = std::make_unique<RunState>();
    state_->gil = ctx.createMonitor(params_.name + ".interpreter-lock");
}

void
InterpreterApp::emitStartup(std::vector<jvm::Action> &out, Rng &rng,
                            std::uint32_t thread_idx) const
{
    emitStartupBatch(out, rng, thread_idx, params_.startup_compute,
                     params_.pinned_shared, params_.pinned_shared_objects);
}

void
InterpreterApp::emitRequest(std::vector<jvm::Action> &out, Rng &rng) const
{
    // One script unit, interpreted op by op.
    for (std::uint32_t op = 0; op < params_.ops_per_unit; ++op) {
        out.push_back(jvm::Action::monitorEnter(state_->gil));
        // Interpret while holding the GIL; Python objects are born
        // (and mostly die) under the lock.
        emitTaskBody(out, rng, params_.alloc,
                     std::max<Ticks>(params_.interp_slice, 1),
                     params_.allocs_per_op, /*site=*/3);
        out.push_back(jvm::Action::monitorExit(state_->gil));
        if (params_.gap_compute > 0)
            out.push_back(jvm::Action::compute(params_.gap_compute));
    }
}

std::unique_ptr<jvm::ActionSource>
InterpreterApp::threadSource(std::uint32_t thread_idx,
                             jvm::AppContext &ctx)
{
    jscale_assert(state_ != nullptr, "setup() must precede threadSource()");
    if (thread_idx < params_.worker_cap) {
        return std::make_unique<RequestLoopSource>(
            *this, state_->pool, thread_idx, ctx.forkThreadRng(thread_idx));
    }
    return std::make_unique<SurplusSource>(params_.startup_compute,
                                           params_.surplus_allocs,
                                           params_.alloc,
                                           ctx.forkThreadRng(thread_idx));
}

} // namespace jscale::workload
