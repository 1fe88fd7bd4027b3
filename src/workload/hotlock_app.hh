/**
 * @file
 * HotLockApp: a lock-saturated microbenchmark for the E19
 * scalability-collapse study.
 *
 * Every operation does a slice of private compute, then enters one
 * shared hot monitor for a short critical section — the h2 commit
 * bottleneck distilled to its essentials. Past the saturation point
 * (roughly 1 + think/hold threads) extra threads add nothing but
 * circulation width, so with the coherence-footprint handoff cost
 * model armed the FIFO baseline exhibits genuine throughput collapse
 * while admission-restricting policies (Malthusian, LCR) keep the
 * circulating set — and the handoff cost — small.
 */

#ifndef JSCALE_WORKLOAD_HOTLOCK_APP_HH
#define JSCALE_WORKLOAD_HOTLOCK_APP_HH

#include <cstdint>
#include <memory>
#include <string>

#include "base/units.hh"
#include "jvm/runtime/app.hh"
#include "workload/alloc_profile.hh"
#include "workload/source.hh"

namespace jscale::workload {

/** Parameters of the hot-lock microbenchmark. */
struct HotLockParams
{
    std::string name = "hotlock";
    /** Fixed total operations, independent of thread count. */
    std::uint64_t total_ops = 6000;
    /** Private think-time compute per op (log-normal mean). */
    Ticks local_compute_mean = 8 * units::US;
    double local_compute_sigma = 0.25;
    /** Critical-section compute under the hot lock. */
    Ticks cs_compute_mean = 4 * units::US;
    double cs_compute_sigma = 0.2;
    /** Small allocations per op, made in the private phase. */
    std::uint32_t allocs_per_op = 2;
    AllocationProfile alloc;
    /** Long-lived shared table, allocated by thread 0. */
    Bytes pinned_shared = 256 * units::KiB;
    std::uint32_t pinned_shared_objects = 64;
    Ticks startup_compute = 100 * units::US;
};

/** The hot-lock application model; a request is one op. */
class HotLockApp : public WorkloadApp
{
  public:
    explicit HotLockApp(HotLockParams params);
    ~HotLockApp() override;

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

    HotLockParams params_;
    std::unique_ptr<RunState> state_;
};

} // namespace jscale::workload

#endif // JSCALE_WORKLOAD_HOTLOCK_APP_HH
