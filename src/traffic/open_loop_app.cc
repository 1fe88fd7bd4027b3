#include "traffic/open_loop_app.hh"

#include "base/logging.hh"

namespace jscale::traffic {

/** One serving worker's accept loop. */
class OpenLoopApp::ServerSource : public workload::BufferedSource
{
  public:
    ServerSource(const workload::WorkloadApp &model, TrafficEngine &engine,
                 jvm::ChannelId channel, std::uint32_t thread_idx,
                 Rng rng)
        : model_(model), engine_(engine), channel_(channel),
          thread_idx_(thread_idx), rng_(rng)
    {}

  protected:
    bool
    refill(std::vector<jvm::Action> &out) override
    {
        if (!started_) {
            started_ = true;
            model_.emitStartup(out, rng_, thread_idx_);
            emitAccept(out);
            return true;
        }
        // Reached only with a granted permit in hand: either the next
        // queued request or an end-of-stream sentinel.
        if (!engine_.dispatchNext(thread_idx_))
            return false;
        model_.emitRequest(out, rng_);
        out.push_back(jvm::Action::taskDone());
        emitAccept(out);
        return true;
    }

  private:
    void
    emitAccept(std::vector<jvm::Action> &out)
    {
        out.push_back(jvm::Action::taskFetch());
        out.push_back(jvm::Action::channelAcquire(channel_));
    }

    const workload::WorkloadApp &model_;
    TrafficEngine &engine_;
    jvm::ChannelId channel_;
    std::uint32_t thread_idx_;
    Rng rng_;
    bool started_ = false;
};

void
OpenLoopApp::setup(jvm::AppContext &ctx)
{
    model_.setupRequests(ctx);
    channel_ = ctx.createChannel(model_.appName() + ".request-queue",
                                 /*permits=*/0);
    engine_.bind(channel_, ctx.threadCount());
    engine_.arm();
}

std::unique_ptr<jvm::ActionSource>
OpenLoopApp::threadSource(std::uint32_t thread_idx, jvm::AppContext &ctx)
{
    return std::make_unique<ServerSource>(
        model_, engine_, channel_, thread_idx,
        ctx.forkThreadRng(thread_idx));
}

} // namespace jscale::traffic
