/**
 * @file
 * Multi-tenant hosting: several JVMs sharing one simulated machine.
 *
 * Each tenant is one JavaVm with its own heap, GC, monitors, helper
 * threads and arrival stream, all registered against the *same*
 * scheduler and core set — so tenants contend for CPUs exactly like
 * co-located server JVMs do, while safepoints stay per-tenant (a
 * tenant's stop-the-world pauses only its own scheduling group; the
 * neighbours keep running through it).
 *
 * Tenant spec grammar (';'-separated list, strict keys):
 *
 *   <app>:threads=<n>[:process=poisson|burst|diurnal]:rate=<req/s>
 *        [:requests=<n>][:queue=<cap>][:shed=drop|oldest]
 *        [:factor=..][:on_ms=..][:off_ms=..][:peak=..][:period_ms=..]
 *
 * e.g. --tenants "h2:threads=8:rate=2000;jython:threads=8:rate=1500"
 */

#ifndef JSCALE_TRAFFIC_TENANCY_HH
#define JSCALE_TRAFFIC_TENANCY_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "jvm/runtime/vm.hh"
#include "profile/ledger.hh"
#include "profile/profiler.hh"
#include "traffic/arrival.hh"
#include "traffic/engine.hh"
#include "traffic/open_loop_app.hh"
#include "traffic/request_model.hh"

namespace jscale::traffic {

/** One tenant: an application, its thread count and arrival stream. */
struct TenantSpec
{
    std::string app;
    std::uint32_t threads = 1;
    ArrivalSpec arrival;

    /** Parse one tenant (grammar above); false + @p err on failure. */
    static bool parse(const std::string &text, TenantSpec &out,
                      std::string &err);

    /** Parse a ';'-separated tenant list (at least one entry). */
    static bool parseList(const std::string &text,
                          std::vector<TenantSpec> &out, std::string &err);

    /** Canonical one-line description. */
    std::string describe() const;
};

/**
 * Runs N prepared VMs on one shared simulation/machine/scheduler.
 * Each tenant owns its VM's thread-state ledger and attribution
 * profiler (its traffic engine needs them). Add tenants, optionally
 * decorate their VMs (oracles on the tenant's profiler), then run()
 * once; results come back in tenant order.
 */
class TenantHost
{
  public:
    TenantHost(sim::Simulation &sim, machine::Machine &mach,
               os::Scheduler &sched);
    ~TenantHost();

    TenantHost(const TenantHost &) = delete;
    TenantHost &operator=(const TenantHost &) = delete;

    /**
     * Build tenant @p spec with VM configuration @p config (its tenant
     * field is overwritten with the new tenant's index). Returns false
     * and sets @p err for an unknown application.
     */
    bool addTenant(const TenantSpec &spec, jvm::VmConfig config,
                   std::string &err);

    std::size_t tenantCount() const { return tenants_.size(); }

    /** Tenant @p i's VM (attach observers before run()). */
    jvm::JavaVm &vm(std::size_t i) { return *tenants_[i]->vm; }

    /** Tenant @p i's engine (live gauges during the run). */
    TrafficEngine &engine(std::size_t i) { return *tenants_[i]->engine; }

    /** Tenant @p i's attribution profiler (finished by run()). */
    profile::TaskProfiler &profiler(std::size_t i)
    {
        return tenants_[i]->profiler;
    }

    /**
     * Prepare every VM, drive the shared simulation until all tenants
     * finish (or the longest max_run_time elapses), and collect one
     * RunResult per tenant, traffic summaries included. Call once.
     */
    std::vector<jvm::RunResult> run();

  private:
    struct Tenant
    {
        TenantSpec spec;
        std::unique_ptr<RequestModel> model;
        std::unique_ptr<jvm::JavaVm> vm;
        /** Declared after vm: they detach from it on destruction. */
        profile::ThreadStateLedger ledger;
        profile::TaskProfiler profiler;
        std::unique_ptr<TrafficEngine> engine;
        std::unique_ptr<OpenLoopApp> app;
    };

    sim::Simulation &sim_;
    machine::Machine &mach_;
    os::Scheduler &sched_;
    std::vector<std::unique_ptr<Tenant>> tenants_;
    std::size_t finished_ = 0;
    bool ran_ = false;
};

} // namespace jscale::traffic

#endif // JSCALE_TRAFFIC_TENANCY_HH
