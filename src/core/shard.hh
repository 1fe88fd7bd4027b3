/**
 * @file
 * Sharded campaign execution: slice assignment and the per-point run
 * result cache.
 *
 * A campaign's plans are split into N deterministic, disjoint,
 * position-independent slices by hashing each run's point key
 * (base/chaos.hh shardOfKey). A shard worker executes only its slice
 * and persists every completed point — full RunResult, failed markers
 * included — as an atomic "jscale-run v2" record in a shared cache
 * directory. The merge step is then just the original command run with
 * the cache populated: every point is a cache hit, all rendering flows
 * through the same code over the same values, and the merged tables /
 * CSVs / golden snapshots come out byte-identical to a single-process
 * run by construction.
 *
 * Records are bound to the campaign fingerprint, so a stale cache from
 * a differently configured campaign reads as a miss, never as silent
 * result mixing. The fingerprint is also part of each record's file
 * name: the arms of a multi-arm study share point keys but not
 * fingerprints, so their records live side by side in one directory.
 *
 * The same cache is the resume path of every plain campaign command:
 * re-running it with the same --cache-dir salvages each completed
 * point as its full result and executes only the rest.
 */

#ifndef JSCALE_CORE_SHARD_HH
#define JSCALE_CORE_SHARD_HH

#include <atomic>
#include <cstdint>
#include <string>

#include "jvm/runtime/vm.hh"

namespace jscale::core {

/** One worker's identity within a sharded campaign. */
struct ShardSpec
{
    std::uint32_t index = 0;
    std::uint32_t count = 1;

    /** True when the campaign is actually split (count > 1). */
    bool active() const { return count > 1; }

    /** Whether this shard owns the point keyed @p key. */
    bool owns(const std::string &key) const;
};

/**
 * Per-point result cache keyed by point key. Thread-safe: points
 * store to distinct files via write-temp-then-rename, so pool workers
 * can commit concurrently and a SIGKILL never publishes a torn record.
 */
class RunCache
{
  public:
    RunCache(std::string dir, std::string fingerprint);

    const std::string &dir() const { return dir_; }

    /**
     * Load the record for @p key. False on a missing file; a corrupt
     * or foreign-campaign record is also a miss (with a warning), so
     * the point simply re-runs.
     */
    bool load(const std::string &key, jvm::RunResult &out) const;

    /**
     * Durably persist @p r under @p key (atomic publish, then the
     * chaos crash point fires). A store failure is a warning, not an
     * error: the run itself succeeded and the caller still has it.
     */
    void store(const std::string &key, const jvm::RunResult &r) const;

    /**
     * Cache file (not path) a key of the campaign @p fingerprint maps
     * to, for tests and tooling.
     */
    static std::string recordFileName(const std::string &key,
                                      const std::string &fingerprint);

  private:
    std::string dir_;
    std::string fingerprint_;
};

/**
 * Per-process accounting of how each campaign point was satisfied, so
 * the CLI can report every point as salvaged (cache hit), executed
 * (ran here), failed (ran and aborted) or missing (strict merge hit a
 * gap) — the no-silent-gaps guarantee. Reset before each dispatch.
 */
struct CampaignPointStats
{
    std::atomic<std::uint64_t> salvaged{0};
    std::atomic<std::uint64_t> executed{0};
    std::atomic<std::uint64_t> failed{0};
    std::atomic<std::uint64_t> missing{0};
    std::atomic<std::uint64_t> skipped{0};
};

/** The process-wide instance (filled by ExperimentRunner). */
CampaignPointStats &campaignPointStats();

/** Zero all counters (call before dispatching a campaign command). */
void resetCampaignPointStats();

} // namespace jscale::core

#endif // JSCALE_CORE_SHARD_HH
