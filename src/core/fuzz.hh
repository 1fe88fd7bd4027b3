/**
 * @file
 * Deterministic fuzz driver: seeded random workloads x fault schedules
 * x governor configurations, executed with the full oracle suite armed.
 * A case maps onto an ExperimentConfig and runs through the run rig
 * (core/rig.hh), so it is built exactly like every other run; the
 * oracles and the random application stay in src/check.
 *
 * Every case is derived from a single integer seed, so a campaign is a
 * seed list and a failure is a one-line reproducer. When a case fails
 * (any oracle violation, or the run aborting), the driver greedily
 * shrinks it — halving task counts, reducing threads, dropping fault
 * events, disabling the governor — re-running after each candidate
 * mutation until no smaller failing case is found within the attempt
 * budget, and writes the minimal case as a replayable artifact.
 *
 * A sabotage mode perturbs the event stream the oracles observe
 * (duplicate allocs, phantom deaths, double releases, illegal monitor
 * handoffs) to prove the oracles actually catch seeded bugs
 * end-to-end; it is the fuzz harness's own test fixture.
 */

#ifndef JSCALE_CORE_FUZZ_HH
#define JSCALE_CORE_FUZZ_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "base/fields.hh"
#include "base/units.hh"
#include "check/oracle.hh"
#include "jvm/locks/policy.hh"

namespace jscale::core {

/**
 * Event-stream perturbations used to prove the oracles detect seeded
 * bugs. Each fires exactly once, on the first matching event, so a
 * sabotaged case fails deterministically and stays failing while the
 * shrinker minimizes it.
 */
enum class Sabotage : std::uint8_t
{
    None,
    /** Re-deliver the first allocation (object born twice). */
    DupAlloc,
    /** Deliver a death for the first allocation while it is live. */
    PhantomDeath,
    /** Re-deliver the first monitor release (release by non-holder). */
    DoubleRelease,
    /** Fabricate a contended grant to the releasing thread at the
     *  first release with a queued waiter — a grantee that never
     *  queued, illegal under every admission policy. */
    IllegalHandoff,
};

/** Short stable name ("none", "dup-alloc", ...). */
const char *sabotageName(Sabotage s);

/** Parse a sabotage name; returns false on an unknown name. */
bool parseSabotage(const std::string &name, Sabotage &out);

/** One fuzz case: everything needed to reproduce a run exactly. */
struct FuzzCase
{
    std::uint64_t seed = 1;
    std::uint32_t threads = 4;
    std::uint32_t tasks = 60;
    std::uint32_t monitors = 3;
    Bytes heap = 4 * units::MiB;
    Bytes tlab = 0;
    /** Fault-schedule intensity dial in [0, 1]; 0 = no faults. */
    double fault_intensity = 0.0;
    /** Run under a hill-climbing concurrency governor. */
    bool governed = false;
    /** Monitor admission policy the case runs under (with nonzero
     *  handoff/coherence costs so the penalty paths are exercised). */
    jvm::LockPolicy policy = jvm::LockPolicy::Fifo;
    Sabotage sabotage = Sabotage::None;

    /** One-line key=value form, printed from fuzzCaseFields(). */
    std::string describe() const;

    /** Parse a describe() line, each number read whole and bounded to
     *  what caseForSeed() and shrinkCase() produce. Returns false with
     *  @p err naming the field on anything else. */
    static bool parse(const std::string &line, FuzzCase &out,
                      std::string &err);
};

/** The keys of a case line, one row each, in describe() order. */
const FieldTable<FuzzCase> &fuzzCaseFields();

/** Derive a case from a campaign seed (deterministic). */
FuzzCase caseForSeed(std::uint64_t seed);

/** Result of executing one case with oracles armed. */
struct FuzzOutcome
{
    FuzzCase fuzz_case;
    /** The run itself aborted (watchdog, deadlock, runaway). */
    bool run_failed = false;
    std::string run_error;
    std::vector<check::InvariantViolation> violations;
    /** Invariant evaluations performed. */
    std::uint64_t checks = 0;
    /** Simulated time the case covered. */
    Ticks sim_time = 0;

    bool clean() const { return !run_failed && violations.empty(); }

    /** First violation (or run error) as a one-line diagnosis. */
    std::string diagnosis() const;
};

/** Execute one case with the full oracle suite armed. */
FuzzOutcome runFuzzCase(const FuzzCase &c);

/**
 * Greedily shrink a failing case: repeatedly try halving tasks,
 * halving threads, dropping the fault schedule, disabling the
 * governor, reducing monitors, disabling TLABs and resetting the
 * admission policy to fifo, restarting from the first rule after
 * every successful reduction. Each candidate costs one run; at most
 * @p budget runs are spent.
 *
 * @return the smallest still-failing case found (possibly @p c itself).
 */
FuzzCase shrinkCase(const FuzzCase &c, std::uint32_t budget,
                    std::uint32_t *runs_used = nullptr);

/** Campaign summary. */
struct FuzzReport
{
    std::uint64_t cases_run = 0;
    std::uint64_t total_checks = 0;
    /** Outcomes of failing cases, pre-shrink (campaign order). */
    std::vector<FuzzOutcome> failures;
    /** Shrunk reproducer of the first failure. */
    FuzzCase shrunk;
    std::uint32_t shrink_runs = 0;

    bool failed() const { return !failures.empty(); }
};

/**
 * Sharded / resumable campaign IO. With a cache_dir, every finished
 * case is persisted as an atomic "jscale-fuzz-out v1" record bound to
 * @p fingerprint, and a later process — a retried worker or the merge
 * step — salvages cached outcomes instead of re-running them. With
 * shard_count > 1 only the seeds hashing to shard_index execute here
 * (position-independent, base/chaos.hh shardOfKey); the rest are
 * skipped. A merge runs with shard_count == 1 and the shared cache:
 * every seed is salvaged, or re-run locally when its shard died for
 * good — either way the report covers the full campaign.
 */
struct FuzzCampaignIo
{
    std::string cache_dir; ///< empty = no persistence
    std::string fingerprint;
    std::uint32_t shard_index = 0;
    std::uint32_t shard_count = 1;
};

/**
 * Run one case per seed, shrink the first failure, and (when @p out is
 * non-null) narrate progress. Shrinking always re-runs locally — cases
 * are deterministic, so a merge shrinks a salvaged failure to the same
 * reproducer the failing worker would have found.
 */
FuzzReport runFuzzCampaign(const std::vector<std::uint64_t> &seeds,
                           Sabotage sabotage, std::uint32_t shrink_budget,
                           std::ostream *out,
                           const FuzzCampaignIo &io = {});

/**
 * Write a replay artifact: the "jscale-fuzz-repro v1" header, the
 * shrunk case line, provenance and the diagnosed violations.
 */
void writeReproducer(std::ostream &os, const FuzzReport &report);

/**
 * Read a replay artifact written by writeReproducer(). Returns false
 * (with @p err) when the file is missing or malformed.
 */
bool readReproducer(const std::string &path, FuzzCase &out,
                    std::string &err);

} // namespace jscale::core

#endif // JSCALE_CORE_FUZZ_HH
