#include "jvm/heap/ledger.hh"

namespace jscale::jvm {

ObjectHandle
ObjectLedger::grow()
{
    const auto h = static_cast<ObjectHandle>(ids_.size());
    ids_.emplace_back();
    owners_.emplace_back();
    sites_.emplace_back();
    sizes_.emplace_back();
    birth_global_.emplace_back();
    birth_time_.emplace_back();
    death_owner_.emplace_back();
    age_.emplace_back();
    meta_.emplace_back();
    return h;
}

ObjectRecord
ObjectLedger::view(ObjectHandle h) const
{
    ObjectRecord r;
    r.id = ids_[h];
    r.owner = owners_[h];
    r.site = sites_[h];
    r.size = sizes_[h];
    r.birth_global_bytes = birth_global_[h];
    r.birth_time = birth_time_[h];
    r.death_owner_bytes = death_owner_[h];
    r.age = age_[h];
    r.region = region(h);
    r.dead = dead(h);
    r.pinned = pinned(h);
    return r;
}

} // namespace jscale::jvm
