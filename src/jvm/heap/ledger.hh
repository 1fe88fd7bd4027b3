/**
 * @file
 * Columnar object ledger: struct-of-arrays bookkeeping for heap objects.
 *
 * Per-object state lives in parallel columns (identity, owner, size,
 * birth clocks, death threshold, age, and a packed region/dead/pinned
 * meta byte) indexed by ObjectHandle, so the hot sweeps — thread-exit
 * reaping, minor-collection scans, full-GC compaction — each touch only
 * the few narrow columns they need instead of pulling a 64-byte record
 * per object through the cache.
 *
 * Membership replaces the old intrusive per-owner linked lists with
 * per-owner *rosters*: append-only vectors of (handle, id) pairs in
 * allocation order. Death no longer performs list surgery (three random
 * pointer writes per kill); it just sets the dead bit. Rosters tolerate
 * stale entries — an (handle, id) pair whose slot died or was reused no
 * longer matches the ids column and is skipped — and are compacted
 * lazily once stale entries dominate, so batched kills degrade into one
 * linear sweep over densely packed pairs.
 *
 * The AoS ObjectRecord survives as a *materialized view* (view()) built
 * only when listener probes need a record-shaped snapshot.
 */

#ifndef JSCALE_JVM_HEAP_LEDGER_HH
#define JSCALE_JVM_HEAP_LEDGER_HH

#include <cstdint>
#include <vector>

#include "base/units.hh"
#include "jvm/object/object.hh"

namespace jscale::jvm {

/** Struct-of-arrays store for all per-object heap bookkeeping. */
class ObjectLedger
{
  public:
    /** One per-owner roster membership: handle plus the id that guards
     *  against slot reuse (the pair is stale once they disagree). */
    struct RosterEntry
    {
        ObjectHandle handle;
        ObjectId id;
    };

    explicit ObjectLedger(std::uint32_t n_owners);

    /**
     * Create an object, reusing a free slot when available, and append
     * it to its owner's roster. Returns its handle.
     */
    ObjectHandle alloc(ObjectId id, MutatorIndex owner, AllocSiteId site,
                       Bytes size, Bytes birth_global, Ticks birth_time,
                       Bytes death_owner, bool pinned);

    /** Reclaim a slot (GC swept the dead object); id 0 marks it free. */
    void free(ObjectHandle h);

    /** @name Column accessors */
    /** @{ */
    ObjectId id(ObjectHandle h) const { return ids_[h]; }
    MutatorIndex owner(ObjectHandle h) const { return owners_[h]; }
    AllocSiteId site(ObjectHandle h) const { return sites_[h]; }
    Bytes size(ObjectHandle h) const { return sizes_[h]; }
    Bytes birthGlobal(ObjectHandle h) const { return birth_global_[h]; }
    Bytes deathOwner(ObjectHandle h) const { return death_owner_[h]; }
    std::uint8_t age(ObjectHandle h) const { return age_[h]; }
    void bumpAge(ObjectHandle h) { ++age_[h]; }
    Region region(ObjectHandle h) const
    {
        return static_cast<Region>(meta_[h] & kRegionMask);
    }
    void
    setRegion(ObjectHandle h, Region r)
    {
        meta_[h] = static_cast<std::uint8_t>(
            (meta_[h] & ~kRegionMask) | static_cast<std::uint8_t>(r));
    }
    bool dead(ObjectHandle h) const { return meta_[h] & kDeadBit; }
    bool pinned(ObjectHandle h) const { return meta_[h] & kPinnedBit; }
    /** @} */

    /** Set the dead bit and retire the object from its owner's live
     *  census (the roster entry itself goes stale, no surgery). */
    void
    markDead(ObjectHandle h)
    {
        meta_[h] |= kDeadBit;
        --roster_live_[owners_[h]];
    }

    /** Materialize a record-shaped snapshot for listener probes. */
    ObjectRecord view(ObjectHandle h) const;

    /** @name Rosters */
    /** @{ */
    const std::vector<RosterEntry> &
    roster(MutatorIndex owner) const
    {
        return rosters_[owner];
    }

    /** Live objects currently credited to @p owner. */
    std::uint64_t
    rosterLive(MutatorIndex owner) const
    {
        return roster_live_[owner];
    }

    /** True when the entry still names a live object (not stale). */
    bool
    rosterMatches(const RosterEntry &e) const
    {
        return ids_[e.handle] == e.id && !dead(e.handle);
    }

    /**
     * Replace @p owner's roster wholesale (thread-exit sweeps rebuild
     * the roster from its pinned survivors). Does not touch the live
     * census — the caller already retired the dead via markDead().
     */
    void
    replaceRoster(MutatorIndex owner, std::vector<RosterEntry> entries)
    {
        rosters_[owner] = std::move(entries);
    }

    /** Drop stale roster entries once they dominate the live ones. */
    void maybeCompactRoster(MutatorIndex owner);
    /** @} */

    /** Total slots ever created (free-listed ones included). */
    std::size_t slots() const { return ids_.size(); }

  private:
    static constexpr std::uint8_t kRegionMask = 0x03;
    static constexpr std::uint8_t kDeadBit = 0x04;
    static constexpr std::uint8_t kPinnedBit = 0x08;

    std::vector<ObjectId> ids_;
    std::vector<MutatorIndex> owners_;
    std::vector<AllocSiteId> sites_;
    std::vector<Bytes> sizes_;
    std::vector<Bytes> birth_global_;
    std::vector<Ticks> birth_time_;
    std::vector<Bytes> death_owner_;
    std::vector<std::uint8_t> age_;
    /** Packed region (2 bits) | dead | pinned. */
    std::vector<std::uint8_t> meta_;
    std::vector<ObjectHandle> free_list_;

    std::vector<std::vector<RosterEntry>> rosters_;
    std::vector<std::uint64_t> roster_live_;
};

} // namespace jscale::jvm

#endif // JSCALE_JVM_HEAP_LEDGER_HH
