#include "jvm/heap/heap.hh"

#include <algorithm>

#include "base/logging.hh"

namespace jscale::jvm {

const char *
regionName(Region r)
{
    switch (r) {
      case Region::Eden: return "eden";
      case Region::Survivor: return "survivor";
      case Region::Old: return "old";
    }
    return "?";
}

const char *
gcKindName(GcKind k)
{
    switch (k) {
      case GcKind::Minor: return "minor";
      case GcKind::Full: return "full";
      case GcKind::Remark: return "remark";
    }
    return "?";
}

Heap::Heap(const HeapConfig &config, std::uint32_t n_mutators,
           const ListenerChain *listeners)
    : config_(config), n_mutators_(n_mutators), listeners_(listeners)
{
    jscale_assert(n_mutators >= 1, "heap requires at least one mutator");
    jscale_assert(config.capacity >= 1 * units::MiB,
                  "heap capacity unreasonably small");
    jscale_assert(config.young_fraction > 0.0 &&
                      config.young_fraction < 1.0,
                  "young_fraction must be in (0,1)");
    jscale_assert(config.survivor_fraction > 0.0 &&
                      config.survivor_fraction < 0.5,
                  "survivor_fraction must be in (0,0.5)");

    const Bytes young = static_cast<Bytes>(
        static_cast<double>(config.capacity) * config.young_fraction);
    survivor_capacity_ = static_cast<Bytes>(
        static_cast<double>(young) * config.survivor_fraction);
    eden_capacity_ = young - 2 * survivor_capacity_;
    old_capacity_ = config.capacity - young;

    const std::size_t compartments =
        config.compartmentalized ? n_mutators : 1;
    eden_used_.assign(compartments, 0);
    eden_objects_.resize(compartments);
    eden_dead_.resize(compartments);
    updateEdenLimit();

    tlab_remaining_.assign(n_mutators, 0);
    owner_alloc_bytes_.assign(n_mutators, 0);
    owner_prev_clock_.assign(n_mutators, 0);
    owner_prev_global_.assign(n_mutators, 0);
    death_queues_.resize(n_mutators);
}

std::size_t
Heap::compartmentOf(MutatorIndex owner) const
{
    return config_.compartmentalized ? owner : 0;
}

Bytes
Heap::compartmentCapacity() const
{
    return eden_capacity_ / eden_used_.size();
}

Bytes
Heap::compartmentUsed(MutatorIndex owner) const
{
    return eden_used_[compartmentOf(owner)];
}

void
Heap::updateEdenLimit()
{
    const Bytes cap = compartmentCapacity();
    const Bytes per_comp =
        external_pressure_ / static_cast<Bytes>(eden_used_.size());
    // Never squeeze a compartment below a quarter of its capacity: the
    // spike degrades throughput (more frequent GCs), it must not starve
    // allocation entirely.
    eden_limit_ = cap - std::min(per_comp, cap - cap / 4);
}

Bytes
Heap::ownerAllocatedBytes(MutatorIndex owner) const
{
    jscale_assert(owner < n_mutators_, "owner index out of range");
    return owner_alloc_bytes_[owner];
}

std::uint64_t
Heap::liveObjects() const
{
    return live_objects_;
}

AllocStatus
Heap::allocate(MutatorIndex owner, Bytes size, Bytes ttl_owner_bytes,
               AllocSiteId site, Ticks now)
{
    jscale_assert(owner < n_mutators_, "owner index out of range");
    jscale_assert(size > 0, "zero-sized allocation");

    const std::size_t comp = compartmentOf(owner);
    if (config_.tlab_size > 0 && !config_.compartmentalized) {
        // TLAB fast path: bump inside the thread's buffer; refill from
        // eden when exhausted, wasting the remainder (HotSpot retires
        // the old TLAB).
        if (size > tlab_remaining_[owner]) {
            const Bytes reserve = std::max(config_.tlab_size, size);
            if (eden_used_[comp] + reserve > eden_limit_)
                return AllocStatus::NeedsGc;
            stats_.tlab_waste += tlab_remaining_[owner];
            ++stats_.tlab_refills;
            eden_used_[comp] += reserve;
            eden_used_total_ += reserve;
            tlab_remaining_[owner] = reserve;
        }
        tlab_remaining_[owner] -= size;
    } else {
        if (eden_used_[comp] + size > eden_limit_)
            return AllocStatus::NeedsGc;
        eden_used_[comp] += size;
        eden_used_total_ += size;
    }

    // Commit the allocation.
    owner_alloc_bytes_[owner] += size;
    global_alloc_bytes_ += size;
    live_bytes_ += size;
    ++live_objects_;
    stats_.peak_live_bytes = std::max(stats_.peak_live_bytes, live_bytes_);
    ++stats_.objects_allocated;
    stats_.bytes_allocated += size;

    const ObjectId id = next_object_id_++;
    const bool pinned = ttl_owner_bytes == kImmortalTtl;
    const Bytes death_owner =
        pinned ? kImmortalTtl : owner_alloc_bytes_[owner] + ttl_owner_bytes;
    const ObjectHandle h =
        ledger_.alloc(id, owner, site, size, global_alloc_bytes_, now,
                      death_owner, pinned);

    eden_objects_[comp].push_back(ObjectLedger::Ref{h, id});
    if (!pinned) {
        DeathQueue &q = death_queues_[owner];
        std::vector<DeathEntry> &tier =
            ttl_owner_bytes < kNearTtl ? q.near : q.far;
        tier.push_back(DeathEntry{death_owner, h, id});
        std::push_heap(tier.begin(), tier.end(), std::greater<>{});
    }

    if (listeners_ && !listeners_->empty()) {
        const ObjectRecord r = ledger_.view(h);
        listeners_->dispatch(
            [&](RuntimeListener &l) { l.onObjectAlloc(r, now); });
    }

    // The new allocation advances the owner's clock; settle any deaths
    // it triggers (including TTL-0 temporaries dying immediately).
    processDeaths(owner, now);
    return AllocStatus::Ok;
}

void
Heap::killObject(ObjectHandle h, Bytes global_at_death, Ticks now)
{
    jscale_assert(!ledger_.dead(h), "double death of object ",
                  ledger_.id(h));
    ledger_.markDead(h);
    const Bytes birth = ledger_.birthGlobal(h);
    const Bytes lifespan =
        global_at_death > birth ? global_at_death - birth : 0;
    const Bytes size = ledger_.size(h);
    live_bytes_ -= size;
    --live_objects_;
    ++stats_.objects_died;
    stats_.bytes_died += size;
    stats_.lifespan.add(lifespan);
    if (listeners_ && !listeners_->empty()) {
        const ObjectRecord r = ledger_.view(h);
        listeners_->dispatch(
            [&](RuntimeListener &l) { l.onObjectDeath(r, lifespan, now); });
    }
    if (ledger_.region(h) == Region::Eden) {
        // Nothing reads a dead eden object again: free its slot now and
        // let its compartment's tally stand in for it at the next scan.
        EdenDead &d = eden_dead_[compartmentOf(ledger_.owner(h))];
        ++d.objects;
        d.bytes += size;
        ledger_.free(h);
    }
}

void
Heap::processDeaths(MutatorIndex owner, Ticks now)
{
    DeathQueue &q = death_queues_[owner];
    const Bytes clock = owner_alloc_bytes_[owner];
    // The owner's clock advanced from owner_prev_clock_ to clock since
    // the last pass, while the global clock advanced from
    // owner_prev_global_ to the current value. A death threshold crossed
    // somewhere inside that window is assigned a linearly interpolated
    // global clock, so lifespans are not quantized to the owner's
    // inter-allocation granularity (which would put a T-dependent floor
    // under every lifespan).
    const Bytes prev_clock = owner_prev_clock_[owner];
    const Bytes prev_global = owner_prev_global_[owner];
    const Bytes owner_span = clock - prev_clock;
    const Bytes global_span = global_alloc_bytes_ - prev_global;
    for (;;) {
        // The due tier whose top is smaller in (threshold, id) goes next.
        const bool near_due =
            !q.near.empty() && q.near.front().threshold <= clock;
        const bool far_due =
            !q.far.empty() && q.far.front().threshold <= clock;
        if (!near_due && !far_due)
            break;
        std::vector<DeathEntry> &tier =
            near_due && (!far_due || q.far.front() > q.near.front())
                ? q.near
                : q.far;
        std::pop_heap(tier.begin(), tier.end(), std::greater<>{});
        const DeathEntry e = tier.back();
        tier.pop_back();
        // Stale entries: the object was already killed out-of-band
        // (thread exit) and possibly reclaimed/reused; the id check
        // rejects both cases.
        if (ledger_.id(e.handle) != e.id || ledger_.dead(e.handle))
            continue;
        Bytes global_at_death = global_alloc_bytes_;
        if (owner_span > 0 && e.threshold >= prev_clock) {
            const double f =
                static_cast<double>(e.threshold - prev_clock) /
                static_cast<double>(owner_span);
            global_at_death =
                prev_global + static_cast<Bytes>(
                                  f * static_cast<double>(global_span));
        }
        killObject(e.handle, global_at_death, now);
    }
    owner_prev_clock_[owner] = clock;
    owner_prev_global_[owner] = global_alloc_bytes_;
}

void
Heap::killThreadObjects(MutatorIndex owner, Ticks now)
{
    jscale_assert(owner < n_mutators_, "owner index out of range");
    // The owner's death queue names each of its live unpinned objects
    // once (pinned ones die at VM shutdown via killAllRemaining). They
    // die in id order, which is their allocation order; a tier pushed
    // in that order already is one, and needs no sort.
    DeathQueue &q = death_queues_[owner];
    std::vector<DeathEntry> &doomed = q.far;
    doomed.insert(doomed.end(), q.near.begin(), q.near.end());
    q.near.clear();
    const auto by_id = [](const DeathEntry &a, const DeathEntry &b) {
        return a.id < b.id;
    };
    if (!std::is_sorted(doomed.begin(), doomed.end(), by_id))
        std::sort(doomed.begin(), doomed.end(), by_id);
    for (const DeathEntry &e : doomed)
        killObject(e.handle, global_alloc_bytes_, now);
    doomed.clear();
}

void
Heap::killAllRemaining(Ticks now)
{
    for (const auto &list : eden_objects_) {
        for (const ObjectLedger::Ref &r : list) {
            if (ledger_.holds(r))
                killObject(r.handle, global_alloc_bytes_, now);
        }
    }
    auto kill_all = [&](std::vector<ObjectHandle> &list) {
        for (const ObjectHandle h : list) {
            if (ledger_.id(h) != 0 && !ledger_.dead(h))
                killObject(h, global_alloc_bytes_, now);
        }
    };
    kill_all(survivor_objects_);
    kill_all(old_objects_);
}

MinorWork
Heap::collectMinor(Ticks now, std::int32_t compartment)
{
    (void)now;
    MinorWork w;
    std::vector<ObjectHandle> new_survivor;
    Bytes new_survivor_bytes = 0;

    auto scan_one = [&](ObjectHandle h) {
        const Bytes size = ledger_.size(h);
        ++w.scanned_objects;
        w.scanned_bytes += size;
        if (ledger_.dead(h)) {
            w.reclaimed_bytes += size;
            ledger_.free(h);
            return;
        }
        ledger_.bumpAge(h);
        const std::uint8_t age = ledger_.age(h);
        const bool pinned = ledger_.pinned(h);
        const bool overflow =
            new_survivor_bytes + size > survivor_capacity_;
        const bool promote =
            pinned || age >= config_.tenure_threshold || overflow;
        if (promote) {
            if (overflow && !pinned &&
                age < config_.tenure_threshold) {
                w.survivor_overflow = true;
            }
            ledger_.setRegion(h, Region::Old);
            old_objects_.push_back(h);
            old_used_ += size;
            w.promoted_bytes += size;
        } else {
            ledger_.setRegion(h, Region::Survivor);
            new_survivor.push_back(h);
            new_survivor_bytes += size;
            w.copied_bytes += size;
        }
    };
    auto scan_eden = [&](std::size_t c) {
        for (const ObjectLedger::Ref &r : eden_objects_[c]) {
            if (ledger_.holds(r))
                scan_one(r.handle);
        }
        eden_objects_[c].clear();
        const EdenDead dead = takeEdenDead(c);
        w.scanned_objects += dead.objects;
        w.scanned_bytes += dead.bytes;
        w.reclaimed_bytes += dead.bytes;
        eden_used_total_ -= eden_used_[c];
        eden_used_[c] = 0;
    };

    for (const ObjectHandle h : survivor_objects_)
        scan_one(h);
    if (compartment >= 0) {
        jscale_assert(config_.compartmentalized,
                      "compartment GC on a non-compartmentalized heap");
        jscale_assert(static_cast<std::size_t>(compartment) <
                          eden_objects_.size(),
                      "compartment index out of range");
        scan_eden(static_cast<std::size_t>(compartment));
    } else {
        for (std::size_t c = 0; c < eden_objects_.size(); ++c)
            scan_eden(c);
    }

    survivor_objects_ = std::move(new_survivor);
    survivor_used_ = new_survivor_bytes;
    // Minor collections retire all outstanding TLABs.
    if (compartment < 0) {
        for (auto &t : tlab_remaining_)
            t = 0;
    }
    w.needs_full = oldGenPressure();
    return w;
}

FullWork
Heap::collectFull(Ticks now)
{
    // Sweep and compact the old generation, then evacuate the entire
    // nursery into it.
    FullWork w = sweepOld(now);
    auto evacuate = [&](ObjectHandle h) {
        ++w.scanned_objects;
        const Bytes size = ledger_.size(h);
        if (ledger_.dead(h)) {
            w.reclaimed_bytes += size;
            ledger_.free(h);
            return;
        }
        ledger_.setRegion(h, Region::Old);
        old_objects_.push_back(h);
        w.live_bytes += size;
    };
    for (const ObjectHandle h : survivor_objects_)
        evacuate(h);
    survivor_objects_.clear();
    for (std::size_t c = 0; c < eden_objects_.size(); ++c) {
        for (const ObjectLedger::Ref &r : eden_objects_[c]) {
            if (ledger_.holds(r))
                evacuate(r.handle);
        }
        eden_objects_[c].clear();
        const EdenDead dead = takeEdenDead(c);
        w.scanned_objects += dead.objects;
        w.reclaimed_bytes += dead.bytes;
        eden_used_[c] = 0;
    }
    eden_used_total_ = 0;
    survivor_used_ = 0;
    old_used_ = w.live_bytes;
    for (auto &t : tlab_remaining_)
        t = 0;
    return w;
}

MinorWork
Heap::collectCompartment(MutatorIndex owner, Ticks now)
{
    (void)now;
    jscale_assert(config_.compartmentalized,
                  "collectCompartment on a shared heap");
    MinorWork w;
    const std::size_t comp = compartmentOf(owner);
    std::vector<ObjectLedger::Ref> retained;
    Bytes retained_bytes = 0;
    for (const ObjectLedger::Ref &r : eden_objects_[comp]) {
        if (!ledger_.holds(r))
            continue; // died here: counted by the tally below
        const ObjectHandle h = r.handle;
        const Bytes size = ledger_.size(h);
        ++w.scanned_objects;
        w.scanned_bytes += size;
        ledger_.bumpAge(h);
        if (ledger_.pinned(h) ||
            ledger_.age(h) >= config_.tenure_threshold) {
            ledger_.setRegion(h, Region::Old);
            old_objects_.push_back(h);
            old_used_ += size;
            w.promoted_bytes += size;
        } else {
            // In-place compaction: the object stays in its compartment.
            retained.push_back(r);
            retained_bytes += size;
            w.copied_bytes += size;
        }
    }
    eden_objects_[comp] = std::move(retained);
    const EdenDead dead = takeEdenDead(comp);
    w.scanned_objects += dead.objects;
    w.scanned_bytes += dead.bytes;
    w.reclaimed_bytes += dead.bytes;
    eden_used_total_ -= eden_used_[comp] - retained_bytes;
    eden_used_[comp] = retained_bytes;
    w.needs_full = oldGenPressure();
    return w;
}

FullWork
Heap::sweepOld(Ticks now)
{
    (void)now;
    FullWork w;
    std::vector<ObjectHandle> new_old;
    new_old.reserve(old_objects_.size());
    Bytes live = 0;
    for (const ObjectHandle h : old_objects_) {
        ++w.scanned_objects;
        const Bytes size = ledger_.size(h);
        if (ledger_.dead(h)) {
            w.reclaimed_bytes += size;
            ledger_.free(h);
            continue;
        }
        new_old.push_back(h);
        live += size;
    }
    old_objects_ = std::move(new_old);
    old_used_ = live;
    w.live_bytes = live;
    return w;
}

void
Heap::checkInvariants() const
{
    // Region lists' live/dead membership must agree with the counters.
    // Note the semantics: live_bytes_ counts only live objects, while
    // region usage (survivor_used_, old_used_, eden_used_) counts dead
    // bytes too until a collection reclaims them.
    Bytes live = 0;
    std::uint64_t live_count = 0;
    Bytes survivor_resident = 0;
    Bytes old_resident = 0;
    Bytes eden_resident = 0;
    std::uint64_t live_unpinned = 0;
    auto walk = [&](ObjectHandle h, Region region) {
        const Bytes size = ledger_.size(h);
        jscale_assert(ledger_.region(h) == region, "object ",
                      ledger_.id(h), " in wrong region list");
        if (!ledger_.dead(h)) {
            live += size;
            ++live_count;
            live_unpinned += ledger_.pinned(h) ? 0 : 1;
        }
        switch (region) {
          case Region::Eden:
            eden_resident += size;
            break;
          case Region::Survivor:
            survivor_resident += size;
            break;
          case Region::Old:
            old_resident += size;
            break;
        }
    };
    // An eden list's stale Refs are exactly its compartment's dead, and
    // their bytes still fill the compartment until it is collected.
    for (std::size_t c = 0; c < eden_objects_.size(); ++c) {
        std::uint64_t stale = 0;
        for (const ObjectLedger::Ref &r : eden_objects_[c]) {
            if (!ledger_.holds(r)) {
                ++stale;
                continue;
            }
            jscale_assert(!ledger_.dead(r.handle), "object ", r.id,
                          " died in eden but kept its slot");
            walk(r.handle, Region::Eden);
        }
        jscale_assert(stale == eden_dead_[c].objects, "eden compartment ",
                      c, " has ", stale, " stale entries but ",
                      eden_dead_[c].objects, " dead counted");
        eden_resident += eden_dead_[c].bytes;
    }
    for (const ObjectHandle h : survivor_objects_)
        walk(h, Region::Survivor);
    for (const ObjectHandle h : old_objects_)
        walk(h, Region::Old);
    jscale_assert(live == live_bytes_, "live bytes mismatch: lists ",
                  live, " vs counter ", live_bytes_);
    jscale_assert(live_count == live_objects_,
                  "live object count mismatch");
    jscale_assert(survivor_resident == survivor_used_,
                  "survivor bytes mismatch");
    jscale_assert(old_resident == old_used_, "old-gen bytes mismatch");
    jscale_assert(stats_.objects_allocated ==
                      stats_.objects_died + live_objects_,
                  "allocation/death conservation violated");
    Bytes eden_total = 0;
    for (const auto used : eden_used_)
        eden_total += used;
    jscale_assert(eden_total == eden_used_total_,
                  "eden usage mismatch");
    // Death-queue consistency: every live, unpinned object has exactly
    // one entry in its owner's tiers, at its death threshold, which lies
    // ahead of the owner's clock (the last death pass popped every due
    // entry). Entries of dead or reused slots are stale and skipped.
    std::vector<bool> queued(ledger_.slots(), false);
    std::uint64_t queued_live = 0;
    for (MutatorIndex owner = 0; owner < n_mutators_; ++owner) {
        const DeathQueue &q = death_queues_[owner];
        for (const std::vector<DeathEntry> *tier : {&q.near, &q.far}) {
            jscale_assert(std::is_heap(tier->begin(), tier->end(),
                                       std::greater<>{}),
                          "death tier of owner ", owner, " is not a heap");
            for (const DeathEntry &e : *tier) {
                if (ledger_.id(e.handle) != e.id || ledger_.dead(e.handle))
                    continue;
                jscale_assert(!queued[e.handle], "object ", e.id,
                              " is queued to die twice");
                queued[e.handle] = true;
                ++queued_live;
                jscale_assert(ledger_.owner(e.handle) == owner &&
                                  !ledger_.pinned(e.handle),
                              "object ", e.id, " on the death queue of owner ",
                              owner, " is pinned or not its own");
                jscale_assert(e.threshold == ledger_.deathOwner(e.handle),
                              "object ", e.id, " queued to die at ",
                              e.threshold, " but its threshold is ",
                              ledger_.deathOwner(e.handle));
                jscale_assert(e.threshold > owner_alloc_bytes_[owner],
                              "object ", e.id, " is overdue: threshold ",
                              e.threshold, " <= owner clock ",
                              owner_alloc_bytes_[owner]);
            }
        }
    }
    jscale_assert(queued_live == live_unpinned, "death queues hold ",
                  queued_live, " live objects, but ", live_unpinned,
                  " live objects are unpinned");

    // With TLABs, eden usage includes reserved-but-unfilled buffer
    // space, so residency is a lower bound; otherwise it is exact.
    if (config_.tlab_size > 0) {
        jscale_assert(eden_resident <= eden_used_total_,
                      "eden residency exceeds usage");
    } else {
        jscale_assert(eden_resident == eden_used_total_,
                      "eden residency mismatch");
    }
    jscale_assert(eden_used_total_ <= eden_capacity_, "eden overfull");
}

bool
Heap::resizeYoung(double young_fraction)
{
    jscale_assert(!config_.compartmentalized,
                  "adaptive sizing applies to the shared-eden mode");
    jscale_assert(young_fraction > 0.0 && young_fraction < 1.0,
                  "young fraction out of range");
    const Bytes young = static_cast<Bytes>(
        static_cast<double>(config_.capacity) * young_fraction);
    const Bytes new_survivor = static_cast<Bytes>(
        static_cast<double>(young) * config_.survivor_fraction);
    const Bytes new_eden = young - 2 * new_survivor;
    const Bytes new_old = config_.capacity - young;
    if (new_eden < eden_used_total_ || new_survivor < survivor_used_ ||
        new_old < old_used_) {
        return false; // occupancy does not fit the proposed geometry
    }
    config_.young_fraction = young_fraction;
    eden_capacity_ = new_eden;
    survivor_capacity_ = new_survivor;
    old_capacity_ = new_old;
    updateEdenLimit();
    ++resize_count_;
    return true;
}

bool
Heap::oldGenPressure() const
{
    return static_cast<double>(old_used_) >
           config_.full_gc_trigger * static_cast<double>(old_capacity_);
}

bool
Heap::impossibleAllocation(Bytes size) const
{
    return size > compartmentCapacity();
}

} // namespace jscale::jvm
