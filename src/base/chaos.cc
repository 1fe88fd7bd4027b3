#include "base/chaos.hh"

#include <atomic>
#include <csignal>
#include <cstdlib>
#include <string>

#include "base/units.hh"

namespace jscale {

std::uint64_t
chaosKillAfter()
{
    const char *v = std::getenv(kChaosKillEnv);
    std::uint64_t n = 0;
    return v != nullptr && parseNumber(std::string(v), n) ? n : 0;
}

void
chaosCrashPoint()
{
    static std::atomic<std::int64_t> countdown{
        static_cast<std::int64_t>(chaosKillAfter())};
    if (countdown.load(std::memory_order_relaxed) <= 0)
        return;
    if (countdown.fetch_sub(1, std::memory_order_relaxed) == 1)
        std::raise(SIGKILL);
}

std::uint32_t
shardOfKey(std::string_view key, std::uint32_t of)
{
    if (of <= 1)
        return 0;
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : key) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    // splitmix64 finalizer for avalanche: the FNV state alone keys
    // nearby strings ("...|t1" vs "...|t2") to adjacent residues.
    h += 0x9e3779b97f4a7c15ULL;
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
    h ^= h >> 31;
    return static_cast<std::uint32_t>(h % of);
}

} // namespace jscale
