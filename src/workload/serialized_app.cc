#include "workload/serialized_app.hh"

#include <algorithm>

#include "base/logging.hh"

namespace jscale::workload {

struct SerializedApp::RunState
{
    TaskPool pool;
    jvm::MonitorId db_lock = 0;
    std::vector<jvm::MonitorId> cache_stripes;
};

SerializedApp::SerializedApp(SerializedParams params)
    : params_(std::move(params))
{
    jscale_assert(params_.total_transactions > 0,
                  "app needs at least one transaction");
    jscale_assert(params_.cache_stripes >= 1, "need >= 1 cache stripe");
}

SerializedApp::~SerializedApp() = default;

void
SerializedApp::setup(jvm::AppContext &ctx)
{
    setupRequests(ctx);
    state_->pool.remaining = params_.total_transactions;
}

void
SerializedApp::setupRequests(jvm::AppContext &ctx)
{
    state_ = std::make_unique<RunState>();
    state_->db_lock = ctx.createMonitor(params_.name + ".db-lock");
    for (std::uint32_t s = 0; s < params_.cache_stripes; ++s) {
        state_->cache_stripes.push_back(ctx.createMonitor(
            params_.name + ".row-cache." + std::to_string(s)));
    }
}

void
SerializedApp::emitStartup(std::vector<jvm::Action> &out, Rng &rng,
                           std::uint32_t thread_idx) const
{
    emitStartupBatch(out, rng, thread_idx, params_.startup_compute,
                     params_.pinned_shared, params_.pinned_shared_objects);
}

void
SerializedApp::emitRequest(std::vector<jvm::Action> &out, Rng &rng) const
{
    // Parallel phase: parse and plan.
    const Ticks parse = drawTicks(rng, params_.parse_compute_mean,
                                  params_.parse_compute_sigma);
    emitTaskBody(out, rng, params_.alloc, parse, params_.allocs_parse,
                 /*site=*/3);

    // Row-cache touches (striped, short).
    double expected = params_.cache_accesses_per_txn;
    std::uint32_t accesses = static_cast<std::uint32_t>(expected);
    expected -= accesses;
    if (expected > 0.0 && rng.chance(expected))
        ++accesses;
    for (std::uint32_t a = 0; a < accesses; ++a) {
        const jvm::MonitorId stripe =
            state_->cache_stripes[rng.below(state_->cache_stripes.size())];
        out.push_back(jvm::Action::monitorEnter(stripe));
        out.push_back(
            jvm::Action::compute(std::max<Ticks>(params_.cache_cs, 1)));
        out.push_back(jvm::Action::monitorExit(stripe));
    }

    // Serialized phase: commit under the coarse database lock,
    // including the undo/redo-log allocations made while holding it.
    const Ticks commit = drawTicks(rng, params_.commit_compute_mean,
                                   params_.commit_compute_sigma);
    out.push_back(jvm::Action::monitorEnter(state_->db_lock));
    emitTaskBody(out, rng, params_.alloc, commit, params_.allocs_commit,
                 /*site=*/4);
    out.push_back(jvm::Action::monitorExit(state_->db_lock));
}

std::unique_ptr<jvm::ActionSource>
SerializedApp::threadSource(std::uint32_t thread_idx, jvm::AppContext &ctx)
{
    jscale_assert(state_ != nullptr, "setup() must precede threadSource()");
    return std::make_unique<RequestLoopSource>(
        *this, state_->pool, thread_idx, ctx.forkThreadRng(thread_idx));
}

} // namespace jscale::workload
