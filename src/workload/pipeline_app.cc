#include "workload/pipeline_app.hh"

#include <algorithm>

#include "base/logging.hh"

namespace jscale::workload {

struct PipelineApp::RunState
{
    /** Units the producer has yet to parse. */
    TaskPool produce_pool;
    /** Units consumers have yet to claim. */
    TaskPool consume_pool;
    jvm::ChannelId units_channel = 0;
    /** Serializes the produce stage of served requests. */
    jvm::MonitorId parser_lock = 0;
    jvm::MonitorId workspace_lock = 0;
    std::uint32_t effective_consumers = 0;
};

/**
 * A pipeline stage thread: the producer (thread 0) parses units
 * serially and posts them to the channel; a consumer waits for units,
 * typechecks and generates code; a single-thread run does both inline.
 */
class PipelineApp::StageSource : public BufferedSource
{
  public:
    enum class Role { Producer, Consumer, Solo };

    StageSource(const PipelineApp &app, Role role,
                std::uint32_t thread_idx, Rng rng)
        : app_(app), role_(role), thread_idx_(thread_idx), rng_(rng)
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
        RunState &state = *app_.state_;
        TaskPool &pool = role_ == Role::Consumer ? state.consume_pool
                                                 : state.produce_pool;
        if (pool.claim(1) == 0)
            return false;
        switch (role_) {
          case Role::Producer:
            app_.emitProduce(out, rng_);
            out.push_back(jvm::Action::channelPost(state.units_channel));
            break;
          case Role::Consumer:
            out.push_back(jvm::Action::channelAcquire(state.units_channel));
            app_.emitConsume(out, rng_);
            break;
          case Role::Solo:
            // One produce + one consume completion, so task totals
            // match the pipelined mode.
            app_.emitProduce(out, rng_);
            app_.emitConsume(out, rng_);
            out.push_back(jvm::Action::taskDone());
            break;
        }
        out.push_back(jvm::Action::taskDone());
        return true;
    }

  private:
    const PipelineApp &app_;
    Role role_;
    std::uint32_t thread_idx_;
    Rng rng_;
    bool started_ = false;
};

PipelineApp::PipelineApp(PipelineParams params)
    : params_(std::move(params))
{
    jscale_assert(params_.total_units > 0, "app needs at least one unit");
    jscale_assert(params_.consumer_count >= 1,
                  "pipeline needs >= 1 consumer");
}

PipelineApp::~PipelineApp() = default;

void
PipelineApp::setup(jvm::AppContext &ctx)
{
    state_ = std::make_unique<RunState>();
    state_->produce_pool.remaining = params_.total_units;
    state_->units_channel =
        ctx.createChannel(params_.name + ".units", /*permits=*/0);
    state_->workspace_lock =
        ctx.createMonitor(params_.name + ".workspace-lock");
    if (ctx.threadCount() == 1) {
        state_->effective_consumers = 0;
        state_->consume_pool.remaining = 0;
    } else {
        state_->effective_consumers =
            std::min(params_.consumer_count, ctx.threadCount() - 1);
        state_->consume_pool.remaining = params_.total_units;
    }
}

void
PipelineApp::setupRequests(jvm::AppContext &ctx)
{
    state_ = std::make_unique<RunState>();
    state_->parser_lock = ctx.createMonitor(params_.name + ".parser");
    state_->workspace_lock =
        ctx.createMonitor(params_.name + ".workspace-lock");
}

void
PipelineApp::emitStartup(std::vector<jvm::Action> &out, Rng &rng,
                         std::uint32_t thread_idx) const
{
    emitStartupBatch(out, rng, thread_idx, params_.startup_compute,
                     params_.pinned_shared, params_.pinned_shared_objects);
}

void
PipelineApp::emitRequest(std::vector<jvm::Action> &out, Rng &rng) const
{
    out.push_back(jvm::Action::monitorEnter(state_->parser_lock));
    emitProduce(out, rng);
    out.push_back(jvm::Action::monitorExit(state_->parser_lock));
    emitConsume(out, rng);
}

void
PipelineApp::emitProduce(std::vector<jvm::Action> &out, Rng &rng) const
{
    emitTaskBody(out, rng, params_.alloc,
                 drawTicks(rng, params_.producer_compute,
                           params_.producer_sigma),
                 params_.allocs_producer, /*site=*/3);
}

void
PipelineApp::emitConsume(std::vector<jvm::Action> &out, Rng &rng) const
{
    emitTaskBody(out, rng, params_.alloc,
                 drawTicks(rng, params_.consumer_compute,
                           params_.consumer_sigma),
                 params_.allocs_consumer, /*site=*/4);
    out.push_back(jvm::Action::monitorEnter(state_->workspace_lock));
    out.push_back(
        jvm::Action::compute(std::max<Ticks>(params_.workspace_cs, 1)));
    out.push_back(jvm::Action::monitorExit(state_->workspace_lock));
}

std::unique_ptr<jvm::ActionSource>
PipelineApp::threadSource(std::uint32_t thread_idx, jvm::AppContext &ctx)
{
    jscale_assert(state_ != nullptr, "setup() must precede threadSource()");
    Rng rng = ctx.forkThreadRng(thread_idx);
    if (ctx.threadCount() == 1) {
        return std::make_unique<StageSource>(*this, StageSource::Role::Solo,
                                             thread_idx, rng);
    }
    if (thread_idx == 0) {
        return std::make_unique<StageSource>(
            *this, StageSource::Role::Producer, thread_idx, rng);
    }
    if (thread_idx <= state_->effective_consumers) {
        return std::make_unique<StageSource>(
            *this, StageSource::Role::Consumer, thread_idx, rng);
    }
    return std::make_unique<SurplusSource>(
        params_.startup_compute, params_.surplus_allocs, params_.alloc, rng);
}

} // namespace jscale::workload
