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
 * Slots are recycled through a free list. An object that dies in eden
 * frees its slot at once, so the ledger stays as large as the live set
 * rather than everything allocated since the last collection; lists
 * that may outlive a slot (eden lists, death queues) hold a Ref, the
 * (handle, id) pair that reads as stale once the slot is freed or
 * reused. Survivor and old objects keep their slot, marked by the dead
 * bit, until a collection sweeps them. No per-owner membership is
 * kept: an owner's death queue names every object it can still kill.
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
    /** A handle plus the id that guards against slot reuse (the pair
     *  is stale once they disagree). */
    struct Ref
    {
        ObjectHandle handle;
        ObjectId id;
    };

    /** Create an object, reusing a free slot when available. Returns
     *  its handle. */
    ObjectHandle
    alloc(ObjectId id, MutatorIndex owner, AllocSiteId site, Bytes size,
          Bytes birth_global, Ticks birth_time, Bytes death_owner,
          bool pinned)
    {
        ObjectHandle h;
        if (free_list_.empty()) {
            h = grow();
        } else {
            h = free_list_.back();
            free_list_.pop_back();
        }
        ids_[h] = id;
        owners_[h] = owner;
        sites_[h] = site;
        sizes_[h] = size;
        birth_global_[h] = birth_global;
        birth_time_[h] = birth_time;
        death_owner_[h] = death_owner;
        age_[h] = 0;
        meta_[h] = static_cast<std::uint8_t>(Region::Eden) |
                   (pinned ? kPinnedBit : std::uint8_t{0});
        return h;
    }

    /** Reclaim a dead object's slot; id 0 marks it free. */
    void
    free(ObjectHandle h)
    {
        ids_[h] = 0; // invalidates every Ref to the slot
        free_list_.push_back(h);
    }

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

    void markDead(ObjectHandle h) { meta_[h] |= kDeadBit; }

    /** Whether @p r still names the object it was taken for. */
    bool holds(const Ref &r) const { return ids_[r.handle] == r.id; }

    /** Materialize a record-shaped snapshot for listener probes. */
    ObjectRecord view(ObjectHandle h) const;

    /** Total slots ever created (free-listed ones included). */
    std::size_t slots() const { return ids_.size(); }

  private:
    /** Append a slot to every column; returns its handle. */
    ObjectHandle grow();

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
};

} // namespace jscale::jvm

#endif // JSCALE_JVM_HEAP_LEDGER_HH
