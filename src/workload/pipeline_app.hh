/**
 * @file
 * PipelineApp: eclipse-style workload.
 *
 * Models an incremental-build pipeline: one producer thread parses
 * compilation units serially and hands them over a bounded channel to a
 * small fixed set of consumer threads that typecheck/generate code.
 * Effective parallelism is capped by the pipeline width no matter how
 * many threads are requested; surplus threads run a brief startup and
 * exit. Consumers allocate a heavy mix including long-lived AST/index
 * data, and since the set of allocating threads never grows, the
 * object-lifespan CDF is insensitive to the thread-count setting — the
 * paper's Fig. 1c.
 */

#ifndef JSCALE_WORKLOAD_PIPELINE_APP_HH
#define JSCALE_WORKLOAD_PIPELINE_APP_HH

#include <cstdint>
#include <memory>
#include <string>

#include "base/units.hh"
#include "jvm/runtime/app.hh"
#include "workload/alloc_profile.hh"
#include "workload/source.hh"

namespace jscale::workload {

/** Parameters of a bounded-width pipeline application. */
struct PipelineParams
{
    std::string name = "eclipse";
    /** Fixed total compilation units, independent of thread count. */
    std::uint64_t total_units = 900;
    /** Serial parse compute per unit (producer). */
    Ticks producer_compute = 70 * units::US;
    double producer_sigma = 0.35;
    /** Typecheck/codegen compute per unit (consumers). */
    Ticks consumer_compute = 150 * units::US;
    double consumer_sigma = 0.4;
    /** Number of consumer threads actually doing work. */
    std::uint32_t consumer_count = 2;
    std::uint32_t allocs_producer = 10;
    std::uint32_t allocs_consumer = 22;
    AllocationProfile alloc;
    /** Workspace/index lock touched once per consumed unit. */
    Ticks workspace_cs = 2 * units::US;
    /** Long-lived workspace metadata, allocated by the producer. */
    Bytes pinned_shared = 2048 * units::KiB;
    std::uint32_t pinned_shared_objects = 256;
    Ticks startup_compute = 350 * units::US;
    /** Startup allocations of surplus threads. */
    std::uint32_t surplus_allocs = 4;
};

/**
 * The eclipse-style application model. A request is one compilation
 * unit end to end: the serial parse stage becomes a global parser lock
 * around produce (the same width-1 bottleneck), then consume.
 */
class PipelineApp : public WorkloadApp
{
  public:
    explicit PipelineApp(PipelineParams params);
    ~PipelineApp() override;

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
    class StageSource;

    /** One parse (produce) body, no TaskDone. */
    void emitProduce(std::vector<jvm::Action> &out, Rng &rng) const;
    /** One typecheck/codegen (consume) body and its workspace critical
     *  section, no TaskDone. */
    void emitConsume(std::vector<jvm::Action> &out, Rng &rng) const;

    PipelineParams params_;
    std::unique_ptr<RunState> state_;
};

} // namespace jscale::workload

#endif // JSCALE_WORKLOAD_PIPELINE_APP_HH
