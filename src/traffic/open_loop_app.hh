/**
 * @file
 * OpenLoopApp: serves a workload model's own task body as open-loop
 * requests fed by a TrafficEngine, under the ApplicationModel contract.
 *
 * The model creates its request monitors (WorkloadApp::setupRequests)
 * and emits each worker's startup batch and each request's body with
 * the emitters its closed loop runs, so both loops share one body.
 * Worker threads run an accept loop instead of draining a task pool:
 * startup batch, then repeatedly (admission check, acquire a request
 * permit from the engine's hand-off channel, serve one request body,
 * TaskDone). The TaskFetch marker ahead of each acquire is the
 * concurrency governor's admission point, so governed open-loop runs
 * park surplus workers exactly where governed closed-loop runs do.
 */

#ifndef JSCALE_TRAFFIC_OPEN_LOOP_APP_HH
#define JSCALE_TRAFFIC_OPEN_LOOP_APP_HH

#include <cstdint>
#include <memory>
#include <string>

#include "jvm/runtime/app.hh"
#include "traffic/engine.hh"
#include "workload/source.hh"

namespace jscale::traffic {

/** The open-loop serving application. */
class OpenLoopApp : public jvm::ApplicationModel
{
  public:
    /** Neither the model nor the engine is owned. */
    OpenLoopApp(workload::WorkloadApp &model, TrafficEngine &engine)
        : model_(model), engine_(engine)
    {}

    std::string appName() const override { return model_.appName(); }

    void setup(jvm::AppContext &ctx) override;

    std::unique_ptr<jvm::ActionSource>
    threadSource(std::uint32_t thread_idx, jvm::AppContext &ctx) override;

  private:
    class ServerSource;

    workload::WorkloadApp &model_;
    TrafficEngine &engine_;
    jvm::ChannelId channel_ = 0;
};

} // namespace jscale::traffic

#endif // JSCALE_TRAFFIC_OPEN_LOOP_APP_HH
