#include "core/shard.hh"

#include <fstream>
#include <sstream>
#include <utility>

#include "base/atomic_file.hh"
#include "base/chaos.hh"
#include "base/logging.hh"
#include "core/run_record.hh"

namespace jscale::core {

bool
ShardSpec::owns(const std::string &key) const
{
    if (!active())
        return true;
    return shardOfKey(key, count) == index;
}

RunCache::RunCache(std::string dir, std::string fingerprint)
    : dir_(std::move(dir)), fingerprint_(std::move(fingerprint))
{
    jscale_assert(!dir_.empty(), "run cache directory must not be empty");
}

std::string
RunCache::recordFileName(const std::string &key,
                         const std::string &fingerprint)
{
    // Human-readable prefix (filesystem-safe subset of the key), then
    // the full key's hash so distinct keys never share a file, then the
    // fingerprint's hash so differently configured campaigns (the arms
    // of one study) never overwrite each other. The record itself
    // carries the exact key and fingerprint; load() verifies both.
    std::string safe;
    for (const char c : key) {
        const bool keep = (c >= 'a' && c <= 'z') ||
                          (c >= 'A' && c <= 'Z') ||
                          (c >= '0' && c <= '9') || c == '.' ||
                          c == '-' || c == '_';
        safe += keep ? c : '_';
    }
    const auto fnv1a = [](const std::string &s) {
        std::uint64_t h = 0xcbf29ce484222325ULL;
        for (const char c : s) {
            h ^= static_cast<unsigned char>(c);
            h *= 0x100000001b3ULL;
        }
        return h;
    };
    std::ostringstream name;
    name << safe << '-' << std::hex << fnv1a(key) << '-'
         << fnv1a(fingerprint) << ".run";
    return name.str();
}

bool
RunCache::load(const std::string &key, jvm::RunResult &out) const
{
    const std::string path =
        dir_ + "/" + recordFileName(key, fingerprint_);
    std::ifstream in(path);
    if (!in)
        return false;
    std::string err;
    if (!readRunRecord(in, key, fingerprint_, out, err)) {
        warn("ignoring cached record '", path, "': ", err);
        return false;
    }
    return true;
}

void
RunCache::store(const std::string &key, const jvm::RunResult &r) const
{
    const std::string path =
        dir_ + "/" + recordFileName(key, fingerprint_);
    AtomicFileWriter writer(path);
    if (!writer.ok()) {
        warn("cannot open run cache record '", path, "'");
        return;
    }
    writeRunRecord(writer.stream(), key, fingerprint_, r);
    std::string err;
    if (!writer.commit(err)) {
        warn("run cache store failed: ", err);
        return;
    }
    // Chaos self-test: die *after* a committed record, proving a kill
    // at any record boundary leaves a salvageable cache.
    chaosCrashPoint();
}

CampaignPointStats &
campaignPointStats()
{
    static CampaignPointStats stats;
    return stats;
}

void
resetCampaignPointStats()
{
    CampaignPointStats &s = campaignPointStats();
    s.salvaged = 0;
    s.executed = 0;
    s.failed = 0;
    s.missing = 0;
    s.skipped = 0;
}

} // namespace jscale::core
