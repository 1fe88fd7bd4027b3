/**
 * @file
 * InterpreterApp: jython-style workload.
 *
 * Models a dynamic-language runtime whose interpreter serializes through
 * a global interpreter lock and which, regardless of how many mutator
 * threads are requested, performs essentially all of its work on a small
 * fixed pool of worker threads (the paper: "jython mainly uses three to
 * four threads to do most of the work even when we set the number of
 * mutator threads to be larger than 16"). Surplus threads run a brief
 * startup and exit — the short-lived helpers the paper mentions.
 */

#ifndef JSCALE_WORKLOAD_INTERPRETER_APP_HH
#define JSCALE_WORKLOAD_INTERPRETER_APP_HH

#include <cstdint>
#include <memory>
#include <string>

#include "base/units.hh"
#include "jvm/runtime/app.hh"
#include "workload/alloc_profile.hh"
#include "workload/source.hh"

namespace jscale::workload {

/** Parameters of a GIL-interpreter application. */
struct InterpreterParams
{
    std::string name = "jython";
    /** Maximum threads that ever perform interpreter work. */
    std::uint32_t worker_cap = 4;
    /** Fixed total script units, independent of thread count. */
    std::uint64_t total_units = 1400;
    /** Interpreter ops per script unit (each op holds the GIL once). */
    std::uint32_t ops_per_unit = 8;
    /** Compute while holding the interpreter lock, per op. */
    Ticks interp_slice = 22 * units::US;
    /** Compute between ops with the lock released (I/O, JNI). */
    Ticks gap_compute = 6 * units::US;
    /** Small object allocations per op (inside the lock). */
    std::uint32_t allocs_per_op = 3;
    AllocationProfile alloc;
    /** Long-lived interpreter state (code objects, module dicts). */
    Bytes pinned_shared = 640 * units::KiB;
    std::uint32_t pinned_shared_objects = 96;
    Ticks startup_compute = 250 * units::US;
    /** Startup allocations of surplus (non-worker) threads. */
    std::uint32_t surplus_allocs = 3;
};

/**
 * The jython-style application model. A request is one script unit;
 * every serving thread contends for the GIL (no worker cap), so
 * service time inflates with concurrency like the worker pool's does.
 */
class InterpreterApp : public WorkloadApp
{
  public:
    explicit InterpreterApp(InterpreterParams params);
    ~InterpreterApp() override;

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

    InterpreterParams params_;
    std::unique_ptr<RunState> state_;
};

} // namespace jscale::workload

#endif // JSCALE_WORKLOAD_INTERPRETER_APP_HH
