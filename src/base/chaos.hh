/**
 * @file
 * Chaos self-test crash points.
 *
 * The shard supervisor proves its kill-anywhere guarantee by SIGKILLing
 * a worker after a chosen number of durable record writes. Workers call
 * chaosCrashPoint() right after each committed record; when the
 * JSCALE_CHAOS_KILL_AFTER environment variable holds a positive integer
 * k, the k-th call raises SIGKILL — an un-catchable death in the middle
 * of the campaign, exactly like a machine reboot. Unset (production)
 * the call is a cheap no-op after the first check.
 *
 * Also sharding's slice assignment lives here: a stable
 * position-independent hash so any process — shard worker, merge step,
 * fuzz driver — agrees on which shard owns a point, without a
 * dependency on the core experiment layer.
 */

#ifndef JSCALE_BASE_CHAOS_HH
#define JSCALE_BASE_CHAOS_HH

#include <cstdint>
#include <string_view>

namespace jscale {

/** Environment variable holding the crash countdown. */
inline constexpr const char *kChaosKillEnv = "JSCALE_CHAOS_KILL_AFTER";

/**
 * Count one durable record write; raises SIGKILL on the configured
 * call. Thread-safe (records may commit from pool workers).
 */
void chaosCrashPoint();

/** The countdown read from the environment (0 = chaos disabled). */
std::uint64_t chaosKillAfter();

/**
 * Stable shard assignment of @p key among @p of shards: FNV-1a with a
 * splitmix finalizer, mod of. Position-independent — adding or removing
 * other points never moves a key to a different shard — which is what
 * makes per-shard result caches reusable across retries with changed
 * campaigns. @p of == 0 is treated as 1.
 */
std::uint32_t shardOfKey(std::string_view key, std::uint32_t of);

} // namespace jscale

#endif // JSCALE_BASE_CHAOS_HH
