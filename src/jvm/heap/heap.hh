/**
 * @file
 * Generational heap model.
 *
 * Layout follows the HotSpot throughput collector the paper configured:
 * a young generation (eden + two survivor semi-spaces) and an old
 * generation. Allocation bump-allocates into eden; minor collections scan
 * the nursery, reclaim dead objects, copy live ones into the survivor
 * space and promote by age or on survivor overflow; full collections
 * mark-compact the whole heap.
 *
 * The heap also owns the lifespan bookkeeping central to the paper:
 * object deaths are driven by owner-local allocation progress, while
 * lifespans are recorded in *global* allocated bytes — so a suspended
 * owner's objects accumulate lifespan while other threads allocate,
 * reproducing the interference mechanism of Sec. III-B.
 *
 * The optional compartmentalized mode implements the paper's future-work
 * proposal (Sec. IV): eden is split into per-thread compartments that are
 * collected independently, isolating objects from cross-thread lifetime
 * interference at collection time.
 */

#ifndef JSCALE_JVM_HEAP_HEAP_HH
#define JSCALE_JVM_HEAP_HEAP_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "base/units.hh"
#include "jvm/gc/gc_types.hh"
#include "jvm/heap/ledger.hh"
#include "jvm/object/object.hh"
#include "jvm/runtime/listener.hh"
#include "stats/stats.hh"

namespace jscale::jvm {

/** Heap geometry and policy knobs. */
struct HeapConfig
{
    /** Total heap capacity (young + old). */
    Bytes capacity = 64 * units::MiB;
    /** Fraction of the heap given to the young generation. */
    double young_fraction = 1.0 / 3.0;
    /** Fraction of the young generation given to each survivor space. */
    double survivor_fraction = 0.08;
    /** Minor-GC survival count after which an object is promoted. */
    std::uint8_t tenure_threshold = 3;
    /** Old-gen occupancy fraction that demands a full collection. */
    double full_gc_trigger = 0.95;
    /** Split eden into independently collected per-thread compartments. */
    bool compartmentalized = false;
    /**
     * Thread-local allocation buffer size (0 disables TLABs). With
     * TLABs, threads reserve eden space in tlab_size chunks and bump
     * within them; the unused remainder is wasted at refill time, as in
     * HotSpot.
     */
    Bytes tlab_size = 0;
};

/** Outcome of an allocation attempt. */
enum class AllocStatus
{
    Ok,
    /** Eden (or the owner's compartment) is exhausted; run a GC. */
    NeedsGc,
};

/** Aggregate heap statistics for one run. */
struct HeapStats
{
    std::uint64_t objects_allocated = 0;
    std::uint64_t objects_died = 0;
    Bytes bytes_allocated = 0;
    Bytes bytes_died = 0;
    Bytes peak_live_bytes = 0;
    /** TLAB refills performed (TLAB mode only). */
    std::uint64_t tlab_refills = 0;
    /** Eden bytes discarded as TLAB remainder waste. */
    Bytes tlab_waste = 0;
    /** Lifespans (global allocated bytes between birth and death). */
    stats::LogHistogram lifespan;
};

/**
 * The generational heap. All mutation happens from the simulation thread;
 * collections are invoked by the GC coordinator while the world is
 * stopped.
 */
class Heap
{
  public:
    /**
     * @param config geometry/policy
     * @param n_mutators number of application threads (owners)
     * @param listeners probe chain for alloc/death events (may be null)
     */
    Heap(const HeapConfig &config, std::uint32_t n_mutators,
         const ListenerChain *listeners);

    const HeapConfig &config() const { return config_; }

    /**
     * Attempt to allocate @p size bytes for @p owner with owner-local
     * TTL @p ttl_owner_bytes (kImmortalTtl pins the object for the run).
     * On success the object is created, death processing for the owner
     * runs, and listeners fire. On NeedsGc no state changes.
     */
    AllocStatus allocate(MutatorIndex owner, Bytes size,
                         Bytes ttl_owner_bytes, AllocSiteId site, Ticks now);

    /**
     * Kill all remaining non-pinned objects owned by @p owner (thread
     * exit: its task-scoped data becomes unreachable).
     */
    void killThreadObjects(MutatorIndex owner, Ticks now);

    /** Kill everything that is still alive (VM shutdown). */
    void killAllRemaining(Ticks now);

    /**
     * Minor collection over the nursery. @p compartment restricts the
     * eden scan to one compartment (compartmentalized mode only; -1 scans
     * all of eden). Survivor space is always scanned.
     */
    MinorWork collectMinor(Ticks now, std::int32_t compartment = -1);

    /** Full mark-compact collection over the whole heap. */
    FullWork collectFull(Ticks now);

    /**
     * Sweep only the old generation (the reclamation step of the
     * concurrent collector's remark pause): dead old objects are freed,
     * live ones stay in place; the nursery is untouched.
     */
    FullWork sweepOld(Ticks now);

    /**
     * Thread-local collection of @p owner's eden compartment
     * (compartmentalized mode only): dead objects are reclaimed, live
     * objects are compacted in place (aging there) and promoted to the
     * old generation once tenured. Does not touch other compartments or
     * the survivor space, so it needs no global safepoint.
     */
    MinorWork collectCompartment(MutatorIndex owner, Ticks now);

    /** @name Geometry and occupancy */
    /** @{ */
    Bytes edenCapacity() const { return eden_capacity_; }
    Bytes survivorCapacity() const { return survivor_capacity_; }
    Bytes oldCapacity() const { return old_capacity_; }
    Bytes edenUsed() const { return eden_used_total_; }
    Bytes survivorUsed() const { return survivor_used_; }
    Bytes oldUsed() const { return old_used_; }
    /** Capacity of one compartment (compartmentalized mode). */
    Bytes compartmentCapacity() const;
    /** Eden bytes used by @p owner's compartment. */
    Bytes compartmentUsed(MutatorIndex owner) const;
    /**
     * Compartment capacity minus the external-pressure reservation —
     * what allocation checks actually test against.
     */
    Bytes effectiveCompartmentCapacity() const { return eden_limit_; }
    /** @} */

    /** @name Fault injection: external heap pressure */
    /** @{ */
    /**
     * Reserve @p bytes of eden capacity as if another tenant were using
     * them (heap-pressure spike): allocations hit the GC trigger
     * earlier, but the reservation is clamped to 3/4 of eden so the run
     * degrades instead of livelocking, and OutOfMemory checks ignore it
     * (a transient spike must never be fatal). Pass 0 to recover.
     */
    void
    setExternalPressure(Bytes bytes)
    {
        external_pressure_ = bytes;
        updateEdenLimit();
    }
    /** @} */

    /**
     * Resize the generations to a new young fraction (adaptive sizing;
     * shared-eden mode only). Applied right after a collection when the
     * nursery is empty. Skipped (returning false) if current occupancy
     * does not fit the proposed geometry.
     */
    bool resizeYoung(double young_fraction);

    /** Number of successful resizeYoung calls. */
    std::uint64_t resizeCount() const { return resize_count_; }

    /** Old-gen occupancy exceeds the full-GC trigger. */
    bool oldGenPressure() const;

    /** An allocation of @p size can never succeed even after full GC. */
    bool impossibleAllocation(Bytes size) const;

    /** Global allocated-bytes counter (the lifespan clock). */
    Bytes globalAllocatedBytes() const { return global_alloc_bytes_; }

    /** Bytes allocated so far by @p owner. */
    Bytes ownerAllocatedBytes(MutatorIndex owner) const;

    /** Currently live (allocated and not yet dead) bytes. */
    Bytes liveBytes() const { return live_bytes_; }

    /** Number of live objects. */
    std::uint64_t liveObjects() const;

    /** Object ledger slots, free ones included (its footprint). */
    std::size_t ledgerSlots() const { return ledger_.slots(); }

    /** Run statistics, including the lifespan histogram. */
    const HeapStats &heapStats() const { return stats_; }

    /** Number of mutator owners the heap was built for. */
    std::uint32_t mutatorCount() const { return n_mutators_; }

    /**
     * Verify internal invariants (region lists vs. byte counters, live
     * accounting, death-queue consistency); panics on violation. Used
     * by property tests; O(objects).
     */
    void checkInvariants() const;

  private:
    struct DeathEntry
    {
        Bytes threshold;
        ObjectHandle handle;
        /** Object id guarding against stale entries after slot reuse. */
        ObjectId id;

        bool
        operator>(const DeathEntry &o) const
        {
            if (threshold != o.threshold)
                return threshold > o.threshold;
            return id > o.id;
        }
    };

    /**
     * An owner's pending deaths in two min-heaps on (threshold, id),
     * each a vector kept with std::push_heap so checkInvariants can walk
     * it. Most objects die within a few KiB of their owner's
     * allocation; they go to the near tier, which stays small, so they
     * are not sifted through the long-lived objects of the far tier.
     * Deaths pop from whichever top is smaller, in the exact order of a
     * single queue.
     */
    struct DeathQueue
    {
        std::vector<DeathEntry> near;
        std::vector<DeathEntry> far;
    };

    /** Entries whose TTL is below this go to the near tier. */
    static constexpr Bytes kNearTtl = 4 * units::KiB;

    /**
     * Mark an object dead, record its lifespan, notify listeners.
     * @p global_at_death is the (possibly interpolated) global
     * allocated-bytes clock at the death point.
     */
    void killObject(ObjectHandle h, Bytes global_at_death, Ticks now);

    /** Process all due deaths for @p owner. */
    void processDeaths(MutatorIndex owner, Ticks now);

    /** Eden compartment index for an owner. */
    std::size_t compartmentOf(MutatorIndex owner) const;

    /** Recompute eden_limit_ after a geometry or pressure change. */
    void updateEdenLimit();

    /** Objects that died in an eden compartment since it was last
     *  collected; their slots are already free. */
    struct EdenDead
    {
        std::uint64_t objects = 0;
        Bytes bytes = 0;
    };

    /** Take compartment @p c's dead for a collection that reclaims
     *  them, resetting its tally. */
    EdenDead
    takeEdenDead(std::size_t c)
    {
        return std::exchange(eden_dead_[c], EdenDead{});
    }

    HeapConfig config_;
    std::uint32_t n_mutators_;
    const ListenerChain *listeners_;

    Bytes eden_capacity_ = 0;
    Bytes survivor_capacity_ = 0;
    Bytes old_capacity_ = 0;

    /** Bump-pointer usage; per compartment in compartmentalized mode
     *  (single entry otherwise). */
    std::vector<Bytes> eden_used_;
    Bytes eden_used_total_ = 0;
    /** Fault-injected eden reservation (heap-pressure spike). */
    Bytes external_pressure_ = 0;
    /** effectiveCompartmentCapacity(), kept current. */
    Bytes eden_limit_ = 0;
    Bytes survivor_used_ = 0;
    /** Old usage includes dead-but-uncompacted bytes until a full GC. */
    Bytes old_used_ = 0;

    /** Columnar per-object bookkeeping. */
    ObjectLedger ledger_;
    /** Eden object lists, one per compartment, in allocation order. An
     *  object that dies in eden frees its slot at once and leaves a
     *  stale Ref here until the next collection of its compartment. */
    std::vector<std::vector<ObjectLedger::Ref>> eden_objects_;
    /** Dead tally per compartment: the objects behind its stale Refs. */
    std::vector<EdenDead> eden_dead_;
    std::vector<ObjectHandle> survivor_objects_;
    std::vector<ObjectHandle> old_objects_;

    /** Remaining TLAB space per owner (TLAB mode only). */
    std::vector<Bytes> tlab_remaining_;
    std::vector<Bytes> owner_alloc_bytes_;
    /** Owner clock at the previous death-processing pass (for global-
     *  clock interpolation of death points). */
    std::vector<Bytes> owner_prev_clock_;
    /** Global clock at the previous death-processing pass per owner. */
    std::vector<Bytes> owner_prev_global_;
    std::vector<DeathQueue> death_queues_;

    Bytes global_alloc_bytes_ = 0;
    Bytes live_bytes_ = 0;
    std::uint64_t resize_count_ = 0;
    std::uint64_t live_objects_ = 0;
    ObjectId next_object_id_ = 1;

    HeapStats stats_;
};

} // namespace jscale::jvm

#endif // JSCALE_JVM_HEAP_HEAP_HH
