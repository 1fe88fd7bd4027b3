/**
 * @file
 * Sharded campaign tests: slice assignment (deterministic, disjoint,
 * covering, position-independent), the per-point run result cache
 * (lossless roundtrip, fingerprint binding, corruption tolerance) and
 * resuming a campaign by re-running it over the same cache.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "base/chaos.hh"
#include "core/experiment.hh"
#include "core/run_record.hh"
#include "core/shard.hh"
#include "test_tempdir.hh"

namespace {

using namespace jscale;

std::vector<std::string>
sampleKeys()
{
    std::vector<std::string> keys;
    for (const std::string app :
         {"sunflow", "lusearch", "xalan", "h2", "eclipse", "jython"})
        for (const std::uint32_t t : {1u, 2u, 4u, 8u, 16u, 32u})
            for (const std::uint64_t s : {1ull, 7ull, 0x51d5eaeull})
                keys.push_back(app + "|t" + std::to_string(t) + "|s" +
                               std::to_string(s));
    return keys;
}

TEST(ShardOfKey, EveryKeyLandsInExactlyOneSlice)
{
    for (std::uint32_t of = 1; of <= 8; ++of) {
        for (const std::string &key : sampleKeys()) {
            const std::uint32_t shard = shardOfKey(key, of);
            ASSERT_LT(shard, of) << key << " of=" << of;
            // Disjointness: exactly one ShardSpec owns each key.
            unsigned owners = 0;
            for (std::uint32_t i = 0; i < of; ++i)
                owners += core::ShardSpec{i, of}.owns(key) ? 1u : 0u;
            EXPECT_EQ(owners, 1u) << key << " of=" << of;
        }
    }
}

TEST(ShardOfKey, SlicesCoverAllShards)
{
    // With a realistic campaign-sized key set, no shard is starved.
    const auto keys = sampleKeys();
    for (std::uint32_t of = 2; of <= 8; ++of) {
        std::set<std::uint32_t> seen;
        for (const std::string &key : keys)
            seen.insert(shardOfKey(key, of));
        EXPECT_EQ(seen.size(), of) << "of=" << of;
    }
}

TEST(ShardOfKey, PositionIndependentAndStable)
{
    // The assignment is a pure function of the key: repeated calls and
    // calls interleaved with other keys agree, so adding or removing
    // campaign points never moves the surviving points across shards.
    const auto keys = sampleKeys();
    std::vector<std::uint32_t> first;
    for (const std::string &key : keys)
        first.push_back(shardOfKey(key, 5));
    for (std::size_t i = keys.size(); i-- > 0;)
        EXPECT_EQ(shardOfKey(keys[i], 5), first[i]) << keys[i];
}

TEST(ShardOfKey, DegenerateCountsMapToShardZero)
{
    EXPECT_EQ(shardOfKey("sunflow|t4|s1", 1), 0u);
    EXPECT_EQ(shardOfKey("sunflow|t4|s1", 0), 0u);
    EXPECT_FALSE((core::ShardSpec{0, 1}.active()));
    EXPECT_TRUE((core::ShardSpec{0, 2}.active()));
}

TEST(ShardRecordFileName, DistinctAndFilesystemSafe)
{
    std::set<std::string> names;
    for (const std::string &key : sampleKeys()) {
        const std::string name = core::RunCache::recordFileName(key, "fp");
        EXPECT_TRUE(names.insert(name).second) << name;
        EXPECT_EQ(name.find('/'), std::string::npos) << name;
        EXPECT_EQ(name.find('|'), std::string::npos) << name;
    }
    // Keys differing only in hash-sensitive characters stay distinct.
    EXPECT_NE(core::RunCache::recordFileName("h2|t4|s1", "fp"),
              core::RunCache::recordFileName("h2|t4|s2", "fp"));
    // So do campaigns sharing a key (the arms of one study).
    EXPECT_NE(core::RunCache::recordFileName("h2|t4|s1", "locks=fifo"),
              core::RunCache::recordFileName("h2|t4|s1", "locks=lcr"));
}

class RunCacheTest : public ::testing::Test
{
  protected:

    jvm::RunResult simulateOnce()
    {
        core::ExperimentConfig cfg;
        cfg.workload_scale = 0.05;
        cfg.seed = 11;
        core::ExperimentRunner runner(cfg);
        return runner.runApp("xalan", 4);
    }

    std::string canonical(const std::string &key, const jvm::RunResult &r)
    {
        std::ostringstream os;
        core::writeRunRecord(os, key, "fp-1", r);
        return os.str();
    }

    jscale::testing::TempDir tmp_;
    const std::string dir_ = tmp_.path.string();
};

TEST_F(RunCacheTest, StoreThenLoadIsLossless)
{
    const std::string key = "xalan|t4|s11";
    const jvm::RunResult original = simulateOnce();
    std::filesystem::create_directories(dir_);
    core::RunCache cache(dir_, "fp-1");
    cache.store(key, original);

    jvm::RunResult restored;
    ASSERT_TRUE(cache.load(key, restored));
    // Lossless: the restored result re-serializes to identical bytes,
    // which is exactly the property byte-identical merges rest on.
    EXPECT_EQ(canonical(key, restored), canonical(key, original));
}

TEST_F(RunCacheTest, MissingKeyIsAMiss)
{
    std::filesystem::create_directories(dir_);
    core::RunCache cache(dir_, "fp-1");
    jvm::RunResult out;
    EXPECT_FALSE(cache.load("h2|t8|s3", out));
}

TEST_F(RunCacheTest, ForeignFingerprintIsAMiss)
{
    const std::string key = "xalan|t4|s11";
    std::filesystem::create_directories(dir_);
    core::RunCache writer(dir_, "fp-1");
    writer.store(key, simulateOnce());

    // Same directory, differently configured campaign: never mix.
    core::RunCache reader(dir_, "fp-2");
    jvm::RunResult out;
    EXPECT_FALSE(reader.load(key, out));
}

TEST_F(RunCacheTest, CorruptRecordIsAMissNotAnAbort)
{
    const std::string key = "xalan|t4|s11";
    std::filesystem::create_directories(dir_);
    core::RunCache cache(dir_, "fp-1");
    cache.store(key, simulateOnce());

    const std::filesystem::path file =
        std::filesystem::path(dir_) /
        core::RunCache::recordFileName(key, "fp-1");
    // Truncate the record: the "end" trailer vanishes, as after a torn
    // write that somehow survived the atomic-rename protocol.
    const auto size = std::filesystem::file_size(file);
    std::filesystem::resize_file(file, size / 2);

    jvm::RunResult out;
    EXPECT_FALSE(cache.load(key, out));

    std::ofstream(file, std::ios::trunc) << "total garbage\n";
    EXPECT_FALSE(cache.load(key, out));
}

TEST_F(RunCacheTest, FailedMarkersRoundtrip)
{
    // Failed points are cached too, so retries do not re-run
    // deterministic aborts and merges render honest failure rows.
    jvm::RunResult marker;
    marker.app_name = "h2";
    marker.threads = 8;
    marker.run_error = "watchdog: no progress for 5000 ticks";
    std::filesystem::create_directories(dir_);
    core::RunCache cache(dir_, "fp-1");
    cache.store("h2|t8|s3", marker);

    jvm::RunResult out;
    ASSERT_TRUE(cache.load("h2|t8|s3", out));
    EXPECT_TRUE(out.failed());
    EXPECT_EQ(out.run_error, marker.run_error);
    EXPECT_EQ(out.app_name, "h2");
    EXPECT_EQ(out.threads, 8u);
}

TEST_F(RunCacheTest, CampaignsWithOneKeyKeepSeparateRecords)
{
    // The arms of a multi-arm study plan the same point keys under
    // different fingerprints; one arm's store must not evict another's.
    const std::string key = "xalan|t4|s11";
    const jvm::RunResult r = simulateOnce();
    jvm::RunResult other = r;
    other.total_tasks += 1;
    core::RunCache arm_a(dir_, "fp-a");
    core::RunCache arm_b(dir_, "fp-b");
    arm_a.store(key, r);
    arm_b.store(key, other);

    jvm::RunResult out;
    ASSERT_TRUE(arm_a.load(key, out));
    EXPECT_EQ(out.total_tasks, r.total_tasks);
    ASSERT_TRUE(arm_b.load(key, out));
    EXPECT_EQ(out.total_tasks, other.total_tasks);
}

/** Resume = re-running a campaign over the same run cache. */
class CacheResumeTest : public ::testing::Test
{
  protected:
    core::ExperimentConfig config() const
    {
        core::ExperimentConfig cfg;
        cfg.workload_scale = 0.05;
        cfg.heap_override = 32 * units::MiB; // calibration-free, faster
        cfg.jobs = 1;
        cfg.run_cache_dir = tmp_.path.string();
        return cfg;
    }

    /** Sweep sunflow once under @p cfg, counting how points resolved. */
    std::vector<jvm::RunResult>
    sweep(const core::ExperimentConfig &cfg,
          const std::vector<std::uint32_t> &threads)
    {
        core::resetCampaignPointStats();
        core::ExperimentRunner runner(cfg);
        return runner.sweep("sunflow", threads);
    }

    static std::string bytes(const jvm::RunResult &r)
    {
        std::ostringstream os;
        core::writeRunRecord(os, "k", "fp", r);
        return os.str();
    }

    jscale::testing::TempDir tmp_;
};

TEST_F(CacheResumeTest, ResumeSalvagesCompletedRunsAsRealResults)
{
    const auto first = sweep(config(), {2, 4});
    ASSERT_EQ(first.size(), 2u);
    EXPECT_EQ(core::campaignPointStats().executed.load(), 2u);

    // Same campaign again: nothing re-runs, and every point comes back
    // as the full result it produced, not a skipped marker.
    const auto again = sweep(config(), {2, 4});
    ASSERT_EQ(again.size(), 2u);
    EXPECT_EQ(core::campaignPointStats().executed.load(), 0u);
    EXPECT_EQ(core::campaignPointStats().salvaged.load(), 2u);
    for (std::size_t i = 0; i < again.size(); ++i) {
        EXPECT_FALSE(again[i].skipped);
        EXPECT_GT(again[i].total_tasks, 0u);
        EXPECT_EQ(bytes(again[i]), bytes(first[i]));
    }

    // A new point in the same campaign still runs.
    const auto grown = sweep(config(), {2, 8});
    EXPECT_EQ(core::campaignPointStats().salvaged.load(), 1u);
    EXPECT_EQ(core::campaignPointStats().executed.load(), 1u);
    EXPECT_GT(grown[1].total_tasks, 0u);
}

TEST_F(CacheResumeTest, ChangedSeedMissesTheCache)
{
    sweep(config(), {2});
    core::ExperimentConfig cfg = config();
    cfg.seed = 4711; // different campaign fingerprint
    const auto results = sweep(cfg, {2});
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(core::campaignPointStats().salvaged.load(), 0u);
    EXPECT_EQ(core::campaignPointStats().executed.load(), 1u);
    EXPECT_GT(results[0].total_tasks, 0u);
}

TEST_F(CacheResumeTest, CorruptRecordReRunsAndIsReplaced)
{
    const auto first = sweep(config(), {2});
    std::vector<std::filesystem::path> files;
    for (const auto &e : std::filesystem::directory_iterator(tmp_.path))
        files.push_back(e.path());
    ASSERT_EQ(files.size(), 1u);

    // An implausible count must read as a miss, never as a crash or a
    // permanent failure marker.
    std::ifstream in(files[0]);
    std::ostringstream text;
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("u gc.events ", 0) == 0)
            line = "u gc.events 99999999999999";
        text << line << '\n';
    }
    in.close();
    std::ofstream(files[0], std::ios::trunc) << text.str();

    const auto rerun = sweep(config(), {2});
    EXPECT_EQ(core::campaignPointStats().executed.load(), 1u);
    EXPECT_EQ(core::campaignPointStats().failed.load(), 0u);
    ASSERT_FALSE(rerun[0].failed()) << rerun[0].run_error;
    EXPECT_EQ(bytes(rerun[0]), bytes(first[0]));

    // The re-run replaced the bad record with a good one.
    sweep(config(), {2});
    EXPECT_EQ(core::campaignPointStats().salvaged.load(), 1u);
}

TEST(CampaignPointStatsTest, ResetZeroesEveryCounter)
{
    core::campaignPointStats().salvaged += 3;
    core::campaignPointStats().executed += 2;
    core::campaignPointStats().failed += 1;
    core::campaignPointStats().missing += 4;
    core::campaignPointStats().skipped += 5;
    core::resetCampaignPointStats();
    EXPECT_EQ(core::campaignPointStats().salvaged.load(), 0u);
    EXPECT_EQ(core::campaignPointStats().executed.load(), 0u);
    EXPECT_EQ(core::campaignPointStats().failed.load(), 0u);
    EXPECT_EQ(core::campaignPointStats().missing.load(), 0u);
    EXPECT_EQ(core::campaignPointStats().skipped.load(), 0u);
}

} // namespace
