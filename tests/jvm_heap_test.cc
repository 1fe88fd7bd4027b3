/**
 * @file
 * Tests for the generational heap: geometry, allocation and death
 * bookkeeping, the paper's lifespan metric, minor/full collection
 * semantics and the compartmentalized mode.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <utility>
#include <vector>

#include "base/random.hh"
#include "jvm/heap/heap.hh"

namespace {

using namespace jscale;
using jvm::AllocStatus;
using jvm::Heap;
using jvm::HeapConfig;
using jvm::kImmortalTtl;
using jvm::ListenerChain;
using jvm::MutatorIndex;
using jvm::ObjectId;
using jvm::RuntimeListener;

HeapConfig
smallConfig()
{
    HeapConfig cfg;
    cfg.capacity = 3 * units::MiB;
    return cfg;
}

TEST(Heap, GeometryPartitionsCapacity)
{
    Heap h(smallConfig(), 2, nullptr);
    const Bytes young = h.edenCapacity() + 2 * h.survivorCapacity();
    EXPECT_EQ(young + h.oldCapacity(), smallConfig().capacity);
    EXPECT_GT(h.edenCapacity(), h.survivorCapacity());
    EXPECT_GT(h.oldCapacity(), h.edenCapacity());
}

TEST(Heap, AllocationAccounting)
{
    Heap h(smallConfig(), 2, nullptr);
    EXPECT_EQ(h.allocate(0, 100, 1000, 0, 0), AllocStatus::Ok);
    EXPECT_EQ(h.allocate(1, 200, 1000, 0, 0), AllocStatus::Ok);
    EXPECT_EQ(h.edenUsed(), 300u);
    EXPECT_EQ(h.globalAllocatedBytes(), 300u);
    EXPECT_EQ(h.ownerAllocatedBytes(0), 100u);
    EXPECT_EQ(h.ownerAllocatedBytes(1), 200u);
    EXPECT_EQ(h.liveBytes(), 300u);
    EXPECT_EQ(h.liveObjects(), 2u);
    EXPECT_EQ(h.heapStats().objects_allocated, 2u);
}

TEST(Heap, DeathAtOwnerTtl)
{
    Heap h(smallConfig(), 1, nullptr);
    // Object dies after the owner allocates 150 more bytes.
    h.allocate(0, 100, 150, 0, 0);
    EXPECT_EQ(h.liveObjects(), 1u);
    h.allocate(0, 100, kImmortalTtl, 0, 0); // 100 more: not yet
    EXPECT_EQ(h.liveObjects(), 2u);
    h.allocate(0, 100, kImmortalTtl, 0, 0); // 200 total: dies now
    EXPECT_EQ(h.liveObjects(), 2u);
    EXPECT_EQ(h.heapStats().objects_died, 1u);
    EXPECT_EQ(h.heapStats().bytes_died, 100u);
}

TEST(Heap, TtlZeroDiesImmediately)
{
    // A TTL-0 temporary's death threshold equals the owner clock at its
    // own allocation, so it dies in the same death-processing pass.
    Heap h(smallConfig(), 1, nullptr);
    h.allocate(0, 64, 0, 0, 0);
    EXPECT_EQ(h.liveObjects(), 0u);
    EXPECT_EQ(h.heapStats().objects_died, 1u);
    EXPECT_DOUBLE_EQ(h.heapStats().lifespan.fractionBelow(1), 1.0);
}

TEST(Heap, LifespanIsGlobalBytesBetweenBirthAndDeath)
{
    // The paper's metric: owner 0's object must accumulate lifespan from
    // owner 1's allocations too.
    Heap h(smallConfig(), 2, nullptr);
    h.allocate(0, 100, 50, 0, 0); // dies once owner 0 allocates 50 more
    // Owner 1 allocates 1000 bytes meanwhile.
    h.allocate(1, 1000, kImmortalTtl, 0, 0);
    // Owner 0 allocates 50 bytes: the first object dies. Global clock
    // advanced by 1000 (owner 1) + 50 (own) = 1050 since birth; the
    // death point interpolates to the threshold crossing at the end of
    // the window.
    h.allocate(0, 50, kImmortalTtl, 0, 0);
    EXPECT_EQ(h.heapStats().objects_died, 1u);
    // Lifespan must be > 1000 (the foreign allocation happened between
    // birth and death) and <= 1050.
    EXPECT_GT(h.heapStats().lifespan.percentile(0.5), 512u);
    EXPECT_DOUBLE_EQ(h.heapStats().lifespan.fractionBelow(1024), 0.0);
}

TEST(Heap, LifespanInterpolationAvoidsGranularityFloor)
{
    // A TTL-1 temporary should not inherit the whole inter-allocation
    // window of foreign allocation as lifespan.
    Heap h(smallConfig(), 2, nullptr);
    h.allocate(0, 100, 1, 0, 0);
    // Huge foreign traffic in the window.
    for (int i = 0; i < 100; ++i)
        h.allocate(1, 1000, kImmortalTtl, 0, 0);
    // Owner 0's next allocation (10000 bytes) crosses the tiny threshold
    // almost immediately: interpolated lifespan ~ (1/10000) of the
    // window, far below the 100 KB of foreign traffic.
    h.allocate(0, 10000, kImmortalTtl, 0, 0);
    EXPECT_EQ(h.heapStats().objects_died, 1u);
    EXPECT_DOUBLE_EQ(h.heapStats().lifespan.fractionBelow(1024), 1.0);
}

TEST(Heap, NeedsGcWhenEdenFull)
{
    Heap h(smallConfig(), 1, nullptr);
    const Bytes chunk = 64 * units::KiB;
    Bytes allocated = 0;
    while (h.allocate(0, chunk, kImmortalTtl, 0, 0) == AllocStatus::Ok)
        allocated += chunk;
    EXPECT_GT(allocated, 0u);
    EXPECT_LE(h.edenUsed() + chunk, h.edenCapacity() + chunk);
    EXPECT_EQ(h.allocate(0, chunk, kImmortalTtl, 0, 0),
              AllocStatus::NeedsGc);
    // Failed allocation must not change any accounting.
    EXPECT_EQ(h.globalAllocatedBytes(), allocated);
}

TEST(Heap, MinorGcReclaimsDeadAndCopiesLive)
{
    Heap h(smallConfig(), 1, nullptr);
    h.allocate(0, 1000, 0, 0, 0);    // dies on next alloc
    h.allocate(0, 2000, kImmortalTtl, 0, 0); // pinned: survives
    h.allocate(0, 500, 100000, 0, 0);        // live, young
    const auto w = h.collectMinor(0);
    EXPECT_EQ(w.reclaimed_bytes, 1000u);
    // Pinned objects promote immediately; the young live object copies.
    EXPECT_EQ(w.promoted_bytes, 2000u);
    EXPECT_EQ(w.copied_bytes, 500u);
    EXPECT_EQ(h.edenUsed(), 0u);
    EXPECT_EQ(h.survivorUsed(), 500u);
    EXPECT_EQ(h.oldUsed(), 2000u);
}

TEST(Heap, AgePromotionAfterTenureThreshold)
{
    HeapConfig cfg = smallConfig();
    cfg.tenure_threshold = 2;
    Heap h(cfg, 1, nullptr);
    h.allocate(0, 700, 1 * units::GiB, 0, 0); // long-lived, not pinned
    auto w1 = h.collectMinor(0);
    EXPECT_EQ(w1.copied_bytes, 700u); // age 1: stays in survivor
    EXPECT_EQ(w1.promoted_bytes, 0u);
    auto w2 = h.collectMinor(0);
    EXPECT_EQ(w2.promoted_bytes, 700u); // age 2: promoted
    EXPECT_EQ(h.survivorUsed(), 0u);
    EXPECT_EQ(h.oldUsed(), 700u);
}

TEST(Heap, SurvivorOverflowForcesPromotion)
{
    Heap h(smallConfig(), 1, nullptr);
    // Fill eden with live data larger than the survivor space.
    const Bytes obj = 16 * units::KiB;
    Bytes live = 0;
    while (live + obj <= h.edenCapacity() &&
           h.allocate(0, obj, 1 * units::GiB, 0, 0) == AllocStatus::Ok) {
        live += obj;
    }
    ASSERT_GT(live, h.survivorCapacity());
    const auto w = h.collectMinor(0);
    EXPECT_TRUE(w.survivor_overflow);
    EXPECT_GT(w.promoted_bytes, 0u);
    EXPECT_LE(h.survivorUsed(), h.survivorCapacity());
    EXPECT_EQ(w.copied_bytes + w.promoted_bytes, live);
}

TEST(Heap, FullGcCompactsOldGeneration)
{
    HeapConfig cfg = smallConfig();
    cfg.tenure_threshold = 1; // promote on first survival
    Heap h(cfg, 1, nullptr);
    h.allocate(0, 4000, 6000, 0, 0);  // will die later
    h.allocate(0, 3000, kImmortalTtl, 0, 0);
    h.collectMinor(0); // promotes both (threshold 1)
    EXPECT_EQ(h.oldUsed(), 7000u);
    // Kill the first object (owner allocates past its TTL).
    h.allocate(0, 8000, kImmortalTtl, 0, 0);
    EXPECT_EQ(h.heapStats().objects_died, 1u);
    // Old still holds the dead bytes until the full GC compacts.
    EXPECT_EQ(h.oldUsed(), 7000u);
    const auto w = h.collectFull(0);
    EXPECT_EQ(w.reclaimed_bytes, 4000u);
    EXPECT_EQ(h.oldUsed(), 3000u + 8000u); // live old + evacuated eden
    EXPECT_EQ(h.edenUsed(), 0u);
    EXPECT_EQ(h.survivorUsed(), 0u);
}

TEST(Heap, PeakLiveTracksMaximum)
{
    Heap h(smallConfig(), 1, nullptr);
    h.allocate(0, 1000, 500, 0, 0);  // dies during the 3000 alloc
    h.allocate(0, 3000, 500, 0, 0);  // peak hits 4000 before the death
    h.allocate(0, 500, kImmortalTtl, 0, 0); // crosses the 3000's TTL
    EXPECT_EQ(h.heapStats().peak_live_bytes, 4000u);
    EXPECT_EQ(h.liveBytes(), 500u); // only the pinned object remains
}

TEST(Heap, KillThreadObjectsSparesPinned)
{
    Heap h(smallConfig(), 2, nullptr);
    h.allocate(0, 100, 1 * units::GiB, 0, 0);
    h.allocate(0, 200, kImmortalTtl, 0, 0);
    h.allocate(1, 300, 1 * units::GiB, 0, 0);
    h.killThreadObjects(0, 0);
    EXPECT_EQ(h.heapStats().objects_died, 1u);
    EXPECT_EQ(h.liveBytes(), 500u);
    h.killAllRemaining(0);
    EXPECT_EQ(h.liveBytes(), 0u);
    EXPECT_EQ(h.heapStats().objects_died, 3u);
}

TEST(Heap, KillThenMinorGcDoesNotDoubleCount)
{
    Heap h(smallConfig(), 1, nullptr);
    h.allocate(0, 100, 1 * units::GiB, 0, 0);
    h.killThreadObjects(0, 0);
    const auto w = h.collectMinor(0);
    EXPECT_EQ(w.reclaimed_bytes, 100u);
    EXPECT_EQ(h.heapStats().objects_died, 1u);
    // Stale death-queue entries must not fire after slot reuse.
    h.allocate(0, 100, 1 * units::GiB, 0, 0);
    h.allocate(0, 100, kImmortalTtl, 0, 0);
    EXPECT_EQ(h.heapStats().objects_died, 1u);
}

TEST(Heap, EdenDeathsFreeTheirLedgerSlots)
{
    // Short-lived objects dying in eden hand their slots straight back,
    // so with no collection the ledger stays as big as the live set.
    HeapConfig cfg;
    cfg.capacity = 256 * units::MiB;
    Heap h(cfg, 1, nullptr);
    Rng rng(7);
    std::uint64_t max_live = 0;
    for (int i = 0; i < 100000; ++i) {
        ASSERT_EQ(h.allocate(0, 16 + rng.below(512),
                             rng.below(4 * units::KiB), 0, 0),
                  AllocStatus::Ok);
        max_live = std::max(max_live, h.liveObjects());
    }
    EXPECT_EQ(h.heapStats().objects_allocated, 100000u);
    // Each allocation takes one slot on top of the live set it meets.
    EXPECT_LE(h.ledgerSlots(), max_live + 1);
    EXPECT_LT(h.ledgerSlots(), 1000u);
    h.checkInvariants();
}

TEST(Heap, InvariantsCountEdenDeadTallies)
{
    // Eden deaths keep filling their compartment until it is collected;
    // the invariants and the next scan count them from the tally.
    for (const bool compartments : {false, true}) {
        HeapConfig cfg = smallConfig();
        cfg.compartmentalized = compartments;
        Heap h(cfg, 2, nullptr);
        Rng rng(11);
        Bytes allocated = 0;
        for (int i = 0; i < 2000; ++i) {
            const Bytes size = 16 + rng.below(256);
            const Bytes ttl =
                rng.chance(0.2) ? 64 * units::KiB : rng.below(512);
            ASSERT_EQ(h.allocate(static_cast<MutatorIndex>(i % 2), size,
                                 ttl, 0, 0),
                      AllocStatus::Ok);
            allocated += size;
            if (i % 97 == 0)
                h.checkInvariants();
        }
        const Bytes died = h.heapStats().bytes_died;
        ASSERT_GT(h.heapStats().objects_died, 1000u);
        EXPECT_EQ(h.edenUsed(), allocated);
        h.checkInvariants();
        const jvm::MinorWork w = h.collectMinor(0);
        EXPECT_EQ(w.scanned_objects, 2000u);
        EXPECT_EQ(w.scanned_bytes, allocated);
        EXPECT_EQ(w.reclaimed_bytes, died);
        h.checkInvariants();
    }
}

TEST(Heap, ThreadExitKillsInIdOrder)
{
    // Thread exit kills the owner's live objects from both death tiers
    // in allocation (id) order; pinned ones and other owners' survive.
    struct Probe : RuntimeListener
    {
        void
        onObjectDeath(const jvm::ObjectRecord &r, Bytes, Ticks) override
        {
            died.push_back(r.id);
        }
        std::vector<ObjectId> died;
    };
    Probe probe;
    ListenerChain chain;
    chain.add(&probe);
    Heap h(smallConfig(), 2, &chain);
    Rng rng(3);
    std::vector<ObjectId> expected;
    for (ObjectId id = 1; id <= 300; ++id) {
        const auto owner = static_cast<MutatorIndex>(rng.below(2));
        const bool pinned = rng.chance(0.1);
        // Near-tier TTLs (under 4 KiB) and far-tier ones, all longer
        // than an owner allocates here (about 2.4 KiB), so every
        // unpinned object lives to the exit.
        const Bytes ttl =
            pinned            ? kImmortalTtl
            : rng.chance(0.5) ? 3 * units::KiB + rng.below(1024)
                              : 64 * units::KiB + rng.below(4096);
        ASSERT_EQ(h.allocate(owner, 16, ttl, 0, 0), AllocStatus::Ok);
        if (owner == 0 && !pinned)
            expected.push_back(id);
    }
    ASSERT_TRUE(probe.died.empty());
    h.killThreadObjects(0, 0);
    EXPECT_EQ(probe.died, expected);
    h.checkInvariants();
}

TEST(Heap, ListenersObserveAllocAndDeath)
{
    struct Probe : RuntimeListener
    {
        int allocs = 0;
        int deaths = 0;
        Bytes last_lifespan = 0;

        void
        onObjectAlloc(const jvm::ObjectRecord &, Ticks) override
        {
            ++allocs;
        }

        void
        onObjectDeath(const jvm::ObjectRecord &, Bytes lifespan,
                      Ticks) override
        {
            ++deaths;
            last_lifespan = lifespan;
        }
    };
    Probe probe;
    ListenerChain chain;
    chain.add(&probe);
    Heap h(smallConfig(), 1, &chain);
    h.allocate(0, 100, 10, 0, 0);
    h.allocate(0, 100, kImmortalTtl, 0, 0);
    EXPECT_EQ(probe.allocs, 2);
    EXPECT_EQ(probe.deaths, 1);
}

TEST(Heap, CompartmentsIsolateOwners)
{
    HeapConfig cfg = smallConfig();
    cfg.compartmentalized = true;
    Heap h(cfg, 4, nullptr);
    EXPECT_EQ(h.compartmentCapacity(), h.edenCapacity() / 4);
    // Fill owner 0's compartment; owner 1 must still allocate fine.
    while (h.allocate(0, 8 * units::KiB, kImmortalTtl, 0, 0) ==
           AllocStatus::Ok) {
    }
    EXPECT_EQ(h.allocate(0, 8 * units::KiB, kImmortalTtl, 0, 0),
              AllocStatus::NeedsGc);
    EXPECT_EQ(h.allocate(1, 8 * units::KiB, kImmortalTtl, 0, 0),
              AllocStatus::Ok);
    EXPECT_GT(h.compartmentUsed(0), 0u);
    EXPECT_EQ(h.compartmentUsed(2), 0u);
}

TEST(Heap, CollectCompartmentRetainsYoungLive)
{
    HeapConfig cfg = smallConfig();
    cfg.compartmentalized = true;
    cfg.tenure_threshold = 2;
    Heap h(cfg, 2, nullptr);
    h.allocate(0, 1000, 0, 0, 0);             // dead at next alloc
    h.allocate(0, 2000, 1 * units::GiB, 0, 0); // live young
    h.allocate(0, 400, kImmortalTtl, 0, 0);    // pinned
    h.allocate(1, 512, 1 * units::GiB, 0, 0);  // other compartment

    const auto w = h.collectCompartment(0, 0);
    EXPECT_EQ(w.reclaimed_bytes, 1000u);
    EXPECT_EQ(w.promoted_bytes, 400u); // pinned promotes
    EXPECT_EQ(w.copied_bytes, 2000u); // young live retained in place
    EXPECT_EQ(h.compartmentUsed(0), 2000u);
    // Owner 1 untouched.
    EXPECT_EQ(h.compartmentUsed(1), 512u);
    // Second collection tenures the survivor (age 2).
    const auto w2 = h.collectCompartment(0, 0);
    EXPECT_EQ(w2.promoted_bytes, 2000u);
    EXPECT_EQ(h.compartmentUsed(0), 0u);
}

TEST(Heap, ImpossibleAllocationDetected)
{
    Heap h(smallConfig(), 1, nullptr);
    EXPECT_FALSE(h.impossibleAllocation(1024));
    EXPECT_TRUE(h.impossibleAllocation(h.edenCapacity() + 1));
}

/** Every death as (object id, lifespan), in order. */
struct DeathLog : RuntimeListener
{
    void
    onObjectDeath(const jvm::ObjectRecord &r, Bytes lifespan,
                  Ticks) override
    {
        deaths.emplace_back(r.id, lifespan);
    }

    std::vector<std::pair<ObjectId, Bytes>> deaths;
};

/**
 * Death bookkeeping with one std::priority_queue per owner, the layout
 * the heap's two death tiers replaced: the reference whose death order
 * and interpolated lifespans the tiers must reproduce exactly.
 */
class ReferenceDeaths
{
  public:
    explicit ReferenceDeaths(std::uint32_t owners)
        : queues_(owners), rosters_(owners), clock_(owners, 0),
          prev_clock_(owners, 0), prev_global_(owners, 0)
    {}

    /** Owner-local allocated bytes so far. */
    Bytes clock(MutatorIndex owner) const { return clock_[owner]; }

    /** Mirror a successful allocation; ids are dealt 1, 2, ... */
    void
    allocate(MutatorIndex owner, Bytes size, Bytes ttl)
    {
        clock_[owner] += size;
        global_ += size;
        const ObjectId id = objects_.size() + 1;
        const bool pinned = ttl == kImmortalTtl;
        objects_.push_back({global_, pinned, false});
        rosters_[owner].push_back(id);
        if (!pinned)
            queues_[owner].push({clock_[owner] + ttl, id});

        const Bytes prev_clock = prev_clock_[owner];
        const Bytes prev_global = prev_global_[owner];
        const Bytes span = clock_[owner] - prev_clock;
        const Bytes global_span = global_ - prev_global;
        auto &q = queues_[owner];
        while (!q.empty() && q.top().threshold <= clock_[owner]) {
            const Entry e = q.top();
            q.pop();
            if (objects_[e.id - 1].dead)
                continue;
            Bytes at = global_;
            if (span > 0 && e.threshold >= prev_clock) {
                const double f = static_cast<double>(e.threshold -
                                                     prev_clock) /
                                 static_cast<double>(span);
                at = prev_global +
                     static_cast<Bytes>(f * static_cast<double>(global_span));
            }
            kill(e.id, at);
        }
        prev_clock_[owner] = clock_[owner];
        prev_global_[owner] = global_;
    }

    /** Mirror killThreadObjects: live unpinned objects, oldest first. */
    void
    killThread(MutatorIndex owner)
    {
        for (const ObjectId id : rosters_[owner]) {
            const Object &o = objects_[id - 1];
            if (!o.dead && !o.pinned)
                kill(id, global_);
        }
    }

    std::vector<std::pair<ObjectId, Bytes>> deaths;

  private:
    struct Entry
    {
        Bytes threshold;
        ObjectId id;

        bool
        operator>(const Entry &o) const
        {
            return threshold != o.threshold ? threshold > o.threshold
                                            : id > o.id;
        }
    };

    struct Object
    {
        Bytes birth;
        bool pinned;
        bool dead;
    };

    void
    kill(ObjectId id, Bytes at)
    {
        Object &o = objects_[id - 1];
        o.dead = true;
        deaths.emplace_back(id, at > o.birth ? at - o.birth : 0);
    }

    std::vector<std::priority_queue<Entry, std::vector<Entry>,
                                    std::greater<>>>
        queues_;
    std::vector<std::vector<ObjectId>> rosters_;
    std::vector<Object> objects_;
    std::vector<Bytes> clock_;
    std::vector<Bytes> prev_clock_;
    std::vector<Bytes> prev_global_;
    Bytes global_ = 0;
};

TEST(HeapDeathTiers, MatchOneQueuePerOwner)
{
    constexpr Bytes kNear = 4 * units::KiB; // the heap's tier split
    constexpr std::uint32_t kOwners = 3;
    for (const std::uint64_t seed : {1, 2, 3, 42}) {
        SCOPED_TRACE(seed);
        DeathLog log;
        ListenerChain chain;
        chain.add(&log);
        HeapConfig cfg;
        cfg.capacity = 8 * units::MiB;
        cfg.tenure_threshold = 2;
        Heap h(cfg, kOwners, &chain);
        ReferenceDeaths ref(kOwners);
        Rng rng(seed);
        // Thresholds of far-tier objects, per owner.
        std::vector<std::vector<Bytes>> far(kOwners);
        std::uint64_t ties = 0;
        std::uint64_t thread_kills = 0;
        Bytes reclaimed = 0;
        for (int step = 0; step < 20000; ++step) {
            const auto owner = static_cast<MutatorIndex>(rng.below(kOwners));
            const std::uint64_t op = rng.below(100);
            if (op < 2) {
                // Leaves stale entries in the owner's tiers.
                h.killThreadObjects(owner, 0);
                ref.killThread(owner);
                ++thread_kills;
            } else if (op < 4) {
                // Frees dead slots, which later allocations reuse.
                reclaimed += h.collectMinor(0).reclaimed_bytes;
            } else {
                const Bytes size = 16 + rng.below(2048);
                const Bytes clock = ref.clock(owner) + size;
                const std::uint64_t kind = rng.below(100);
                Bytes ttl = 1 + rng.below(kNear - 1);
                if (kind < 10) {
                    ttl = 0;
                } else if (kind < 15) {
                    ttl = kNear - 1 + rng.below(2); // either side of the split
                } else if (kind < 25) {
                    // A near entry at the next far entry's threshold.
                    Bytes next = kImmortalTtl;
                    for (const Bytes t : far[owner]) {
                        if (t > clock)
                            next = std::min(next, t);
                    }
                    if (next - clock < kNear) {
                        ttl = next - clock;
                        ++ties;
                    }
                } else if (kind < 54) {
                    ttl = kNear + rng.below(256 * units::KiB);
                } else if (kind < 55) {
                    ttl = kImmortalTtl;
                }
                if (ttl >= kNear && ttl != kImmortalTtl)
                    far[owner].push_back(clock + ttl);
                if (h.allocate(owner, size, ttl, 0, 0) != AllocStatus::Ok) {
                    const jvm::MinorWork w = h.collectMinor(0);
                    reclaimed += w.reclaimed_bytes;
                    if (w.needs_full)
                        reclaimed += h.collectFull(0).reclaimed_bytes;
                    ASSERT_EQ(h.allocate(owner, size, ttl, 0, 0),
                              AllocStatus::Ok);
                }
                ref.allocate(owner, size, ttl);
            }
            if (step % 64 == 0)
                h.checkInvariants();
        }
        h.checkInvariants();
        ASSERT_EQ(log.deaths.size(), ref.deaths.size());
        for (std::size_t i = 0; i < ref.deaths.size(); ++i) {
            ASSERT_EQ(log.deaths[i], ref.deaths[i]) << "death " << i;
        }
        EXPECT_GT(log.deaths.size(), 10000u);
        EXPECT_GT(ties, 10u);
        EXPECT_GT(thread_kills, 100u);
        EXPECT_GT(reclaimed, 0u);
    }
}

TEST(Heap, InvalidConfigsDie)
{
    HeapConfig tiny;
    tiny.capacity = 1024;
    EXPECT_DEATH(Heap(tiny, 1, nullptr), "capacity");
    HeapConfig cfg = smallConfig();
    EXPECT_DEATH(Heap(cfg, 0, nullptr), "mutator");
    EXPECT_DEATH({
        Heap h(cfg, 1, nullptr);
        h.allocate(5, 100, 0, 0, 0);
    }, "out of range");
}

} // namespace
