/**
 * @file
 * Tiny configurable application models and a VM harness for tests.
 */

#ifndef JSCALE_TESTS_TEST_APPS_HH
#define JSCALE_TESTS_TEST_APPS_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "jvm/runtime/app.hh"
#include "jvm/runtime/vm.hh"
#include "machine/machine.hh"
#include "os/scheduler.hh"
#include "sim/simulation.hh"

namespace jscale::test {

/** Behaviour knobs for TinyApp threads. */
struct TinyAppParams
{
    std::string name = "tiny";
    /** Actions per thread: repetitions of the per-task pattern. */
    std::uint32_t tasks_per_thread = 10;
    Ticks compute_per_task = 10 * units::US;
    /** Allocations per task (fixed size/ttl below). */
    std::uint32_t allocs_per_task = 2;
    Bytes alloc_size = 128;
    Bytes alloc_ttl = 512;
    /** If >= 0, each task takes this shared monitor once. */
    std::int32_t use_shared_lock = -1; // -1 off; >=0: cs compute ns
    /** Pinned bytes allocated by thread 0 at startup. */
    Bytes pinned = 0;
};

/** Deterministic scripted application for unit/integration tests. */
class TinyApp : public jvm::ApplicationModel
{
  public:
    explicit TinyApp(TinyAppParams params) : params_(params) {}

    std::string appName() const override { return params_.name; }

    void
    setup(jvm::AppContext &ctx) override
    {
        if (params_.use_shared_lock >= 0)
            lock_ = ctx.createMonitor(params_.name + ".lock");
    }

    std::unique_ptr<jvm::ActionSource>
    threadSource(std::uint32_t thread_idx, jvm::AppContext &) override
    {
        std::vector<jvm::Action> script;
        if (thread_idx == 0 && params_.pinned > 0)
            script.push_back(jvm::Action::allocatePinned(params_.pinned));
        for (std::uint32_t t = 0; t < params_.tasks_per_thread; ++t) {
            script.push_back(jvm::Action::compute(params_.compute_per_task));
            for (std::uint32_t a = 0; a < params_.allocs_per_task; ++a) {
                script.push_back(jvm::Action::allocate(params_.alloc_size,
                                                       params_.alloc_ttl));
            }
            if (params_.use_shared_lock >= 0) {
                script.push_back(jvm::Action::monitorEnter(lock_));
                script.push_back(jvm::Action::compute(
                    std::max<Ticks>(params_.use_shared_lock, 1)));
                script.push_back(jvm::Action::monitorExit(lock_));
            }
            script.push_back(jvm::Action::taskDone());
        }
        return std::make_unique<jvm::ScriptSource>(std::move(script));
    }

  private:
    TinyAppParams params_;
    jvm::MonitorId lock_ = 0;
};

/** One-shot VM harness on the small test machine. */
struct VmHarness
{
    explicit VmHarness(std::uint32_t cores,
                       jvm::VmConfig vm_cfg = defaultVmConfig(),
                       std::uint64_t seed = 1)
        : sim(seed), mach(machine::Machine::testMachine_2p8c()),
          sched((mach.enableCores(cores), sim), mach),
          vm(sim, mach, sched, vm_cfg)
    {}

    static jvm::VmConfig
    defaultVmConfig()
    {
        jvm::VmConfig cfg;
        cfg.heap.capacity = 8 * units::MiB;
        cfg.enable_helpers = false; // deterministic minimal runs
        return cfg;
    }

    sim::Simulation sim;
    machine::Machine mach;
    os::Scheduler sched;
    jvm::JavaVm vm;
};

/** Scripted app: explicit per-thread action lists. */
class ScriptApp : public jvm::ApplicationModel
{
  public:
    using Script =
        std::function<std::vector<jvm::Action>(std::uint32_t,
                                               const std::vector<
                                                   jvm::MonitorId> &)>;

    ScriptApp(std::uint32_t monitors, Script script)
        : n_monitors_(monitors), script_(std::move(script))
    {}

    std::string appName() const override { return "script-app"; }

    void
    setup(jvm::AppContext &ctx) override
    {
        monitors_.clear();
        for (std::uint32_t i = 0; i < n_monitors_; ++i) {
            std::string name = "m";
            name += std::to_string(i); // not "m" + ...: GCC 12 -Wrestrict
            monitors_.push_back(ctx.createMonitor(name));
        }
    }

    std::unique_ptr<jvm::ActionSource>
    threadSource(std::uint32_t idx, jvm::AppContext &) override
    {
        return std::make_unique<jvm::ScriptSource>(script_(idx, monitors_));
    }

  private:
    std::uint32_t n_monitors_;
    Script script_;
    std::vector<jvm::MonitorId> monitors_;
};

} // namespace jscale::test

#endif // JSCALE_TESTS_TEST_APPS_HH
