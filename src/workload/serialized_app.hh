/**
 * @file
 * SerializedApp: h2-style transactional workload.
 *
 * All threads issue transactions against a shared database, but every
 * commit runs under one coarse database lock with a long critical
 * section — the classic serialization bottleneck. Parse work scales with
 * threads; commit work does not, so the application stops scaling after
 * a few threads while its total lock traffic stays constant (fixed
 * transaction count), matching the paper's non-scalable profile.
 */

#ifndef JSCALE_WORKLOAD_SERIALIZED_APP_HH
#define JSCALE_WORKLOAD_SERIALIZED_APP_HH

#include <cstdint>
#include <memory>
#include <string>

#include "base/units.hh"
#include "jvm/runtime/app.hh"
#include "workload/alloc_profile.hh"
#include "workload/source.hh"

namespace jscale::workload {

/** Parameters of a coarse-lock transactional application. */
struct SerializedParams
{
    std::string name = "h2";
    /** Fixed total transactions, independent of thread count. */
    std::uint64_t total_transactions = 3000;
    /** Parallel parse/plan compute per transaction (log-normal mean). */
    Ticks parse_compute_mean = 60 * units::US;
    double parse_compute_sigma = 0.4;
    /** Serialized commit compute under the database lock. */
    Ticks commit_compute_mean = 110 * units::US;
    double commit_compute_sigma = 0.3;
    std::uint32_t allocs_parse = 14;
    std::uint32_t allocs_commit = 6;
    AllocationProfile alloc;
    /** Row-cache stripes touched per transaction outside the big lock. */
    std::uint32_t cache_stripes = 8;
    double cache_accesses_per_txn = 2.0;
    Ticks cache_cs = 1500;
    /** Long-lived database pages, allocated by thread 0. */
    Bytes pinned_shared = 1536 * units::KiB;
    std::uint32_t pinned_shared_objects = 192;
    Ticks startup_compute = 300 * units::US;
};

/** The h2-style application model; a request is one transaction. */
class SerializedApp : public WorkloadApp
{
  public:
    explicit SerializedApp(SerializedParams params);
    ~SerializedApp() override;

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

    SerializedParams params_;
    std::unique_ptr<RunState> state_;
};

} // namespace jscale::workload

#endif // JSCALE_WORKLOAD_SERIALIZED_APP_HH
