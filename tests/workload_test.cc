/**
 * @file
 * Tests for the workload framework and the six DaCapo-like application
 * models: allocation profiles, action-stream protocol invariants and
 * model-specific concurrency structure.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "test_apps.hh"
#include "workload/alloc_profile.hh"
#include "workload/dacapo.hh"
#include "workload/source.hh"

namespace {

using namespace jscale;
using namespace jscale::workload;

TEST(AllocationProfile, SizesWithinBounds)
{
    AllocationProfile p;
    Rng rng(41);
    for (int i = 0; i < 20000; ++i) {
        const Bytes s = p.drawSize(rng);
        EXPECT_GE(s, p.size_min);
        EXPECT_LE(s, p.size_max);
    }
}

TEST(AllocationProfile, TtlMixtureFractions)
{
    AllocationProfile p;
    p.frac_tiny = 0.5;
    p.tiny_max = 24;
    Rng rng(42);
    const int n = 100000;
    int tiny = 0;
    for (int i = 0; i < n; ++i)
        tiny += p.drawTtl(rng) <= p.tiny_max;
    // At least the tiny fraction lands at or below tiny_max (the short
    // component cannot: it starts at 32 > tiny_max).
    EXPECT_NEAR(static_cast<double>(tiny) / n, 0.5, 0.02);
}

TEST(AllocationProfile, TtlLongTailBounded)
{
    AllocationProfile p;
    Rng rng(43);
    for (int i = 0; i < 50000; ++i)
        EXPECT_LE(p.drawTtl(rng), p.long_ttl.hi());
}

TEST(TaskPool, ClaimsExactlyTotal)
{
    TaskPool pool;
    pool.remaining = 100;
    std::uint64_t claimed = 0;
    while (true) {
        const auto n = pool.claim(7);
        if (n == 0)
            break;
        claimed += n;
    }
    EXPECT_EQ(claimed, 100u);
    EXPECT_EQ(pool.claim(7), 0u);
}

TEST(EmitTaskBody, ComputeAndAllocCountsPreserved)
{
    std::vector<jvm::Action> out;
    Rng rng(44);
    AllocationProfile prof;
    emitTaskBody(out, rng, prof, 100 * units::US, 10, 3);
    Ticks compute = 0;
    int allocs = 0;
    for (const auto &a : out) {
        if (a.kind == jvm::Action::Kind::Compute)
            compute += a.ticks;
        if (a.kind == jvm::Action::Kind::Allocate) {
            ++allocs;
            EXPECT_EQ(a.site, 3u);
        }
    }
    EXPECT_EQ(allocs, 10);
    EXPECT_EQ(compute, 100 * units::US);
}

TEST(EmitTaskBody, DrawsEachTtlBeforeItsSize)
{
    // Every recorded output drew an allocation's TTL before its size.
    // The order is spelled out, so no compiler's argument order moves it.
    std::vector<jvm::Action> out;
    Rng rng(45);
    AllocationProfile prof;
    emitTaskBody(out, rng, prof, 100 * units::US, 40, 3);
    Rng replay(45);
    int allocs = 0;
    for (const auto &a : out) {
        if (a.kind != jvm::Action::Kind::Allocate)
            continue;
        ++allocs;
        const Bytes ttl = prof.drawTtl(replay);
        EXPECT_EQ(a.ttl, ttl);
        EXPECT_EQ(a.bytes, prof.drawSize(replay));
    }
    EXPECT_EQ(allocs, 40);
    EXPECT_EQ(rng.next(), replay.next());
}

TEST(EmitPinnedData, TotalApproximatelyReached)
{
    std::vector<jvm::Action> out;
    Rng rng(45);
    emitPinnedData(out, rng, 64 * units::KiB, 16, 1);
    EXPECT_EQ(out.size(), 16u);
    Bytes total = 0;
    for (const auto &a : out) {
        EXPECT_EQ(a.kind, jvm::Action::Kind::Allocate);
        EXPECT_EQ(a.ttl, jvm::kImmortalTtl);
        total += a.bytes;
    }
    EXPECT_GT(total, 32 * units::KiB);
    EXPECT_LT(total, 128 * units::KiB);
}

TEST(Dacapo, FactoryKnowsAllSixApps)
{
    const auto &names = dacapoAppNames();
    ASSERT_EQ(names.size(), 6u);
    for (const auto &name : names) {
        auto app = makeDacapoApp(name);
        ASSERT_NE(app, nullptr);
        EXPECT_EQ(app->appName(), name);
    }
}

TEST(Dacapo, UnknownAppIsFatal)
{
    EXPECT_EXIT(makeDacapoApp("nosuchapp"),
                ::testing::ExitedWithCode(1), "unknown DaCapo app");
}

TEST(Dacapo, ClassificationMatchesPaper)
{
    EXPECT_TRUE(dacapoExpectedScalable("sunflow"));
    EXPECT_TRUE(dacapoExpectedScalable("lusearch"));
    EXPECT_TRUE(dacapoExpectedScalable("xalan"));
    EXPECT_FALSE(dacapoExpectedScalable("h2"));
    EXPECT_FALSE(dacapoExpectedScalable("eclipse"));
    EXPECT_FALSE(dacapoExpectedScalable("jython"));
}

/** Protocol invariants of every app's action stream, per app x threads. */
class AppStreamProtocol
    : public ::testing::TestWithParam<
          std::tuple<std::string, std::uint32_t>>
{
};

TEST_P(AppStreamProtocol, BalancedLocksAndTermination)
{
    const auto [name, threads] = GetParam();
    // Drain every thread's action stream directly (no simulation) and
    // check protocol invariants: balanced enter/exit per monitor, End
    // exactly once, bounded length.
    test::VmHarness h(std::min<std::uint32_t>(threads, 8));
    auto app = makeDacapoApp(name, /*scale=*/0.05);
    jvm::AppContext ctx(h.vm, threads, Rng(7));
    app->setup(ctx);

    std::uint64_t total_task_dones = 0;
    for (std::uint32_t i = 0; i < threads; ++i) {
        auto src = app->threadSource(i, ctx);
        ASSERT_NE(src, nullptr);
        std::map<std::uint32_t, int> depth;
        bool ended = false;
        for (std::uint64_t steps = 0; steps < 20'000'000; ++steps) {
            const jvm::Action a = src->next();
            if (a.kind == jvm::Action::Kind::MonitorEnter) {
                ++depth[a.id];
                EXPECT_EQ(depth[a.id], 1) << "recursive enter";
            } else if (a.kind == jvm::Action::Kind::MonitorExit) {
                --depth[a.id];
                EXPECT_EQ(depth[a.id], 0) << "unbalanced exit";
            } else if (a.kind == jvm::Action::Kind::TaskDone) {
                ++total_task_dones;
            } else if (a.kind == jvm::Action::Kind::End) {
                ended = true;
                break;
            }
        }
        EXPECT_TRUE(ended) << name << " thread " << i
                           << " stream did not terminate";
        for (const auto &[id, d] : depth)
            EXPECT_EQ(d, 0) << "monitor " << id << " left held";
    }
    EXPECT_GT(total_task_dones, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllApps, AppStreamProtocol,
    ::testing::Combine(::testing::Values("sunflow", "lusearch", "xalan",
                                         "h2", "eclipse", "jython"),
                       ::testing::Values(1u, 4u, 48u)),
    [](const auto &info) {
        return std::get<0>(info.param) + "_" +
               std::to_string(std::get<1>(info.param)) + "t";
    });

TEST(Dacapo, WorkVolumeIndependentOfThreadCount)
{
    // "Each application instantiates about the same number of objects
    // ... even as we increase the number of threads" (Sec. II-C): count
    // TaskDone actions across all streams for two thread settings.
    for (const std::string name :
         {"sunflow", "lusearch", "xalan", "h2", "jython"}) {
        std::map<std::uint32_t, std::uint64_t> tasks_by_threads;
        for (const std::uint32_t threads : {4u, 16u}) {
            test::VmHarness h(8);
            auto app = makeDacapoApp(name, 0.05);
            jvm::AppContext ctx(h.vm, threads, Rng(7));
            app->setup(ctx);
            std::uint64_t tasks = 0;
            for (std::uint32_t i = 0; i < threads; ++i) {
                auto src = app->threadSource(i, ctx);
                while (true) {
                    const jvm::Action a = src->next();
                    if (a.kind == jvm::Action::Kind::TaskDone)
                        ++tasks;
                    if (a.kind == jvm::Action::Kind::End)
                        break;
                }
            }
            tasks_by_threads[threads] = tasks;
        }
        EXPECT_EQ(tasks_by_threads[4], tasks_by_threads[16]) << name;
    }
}

TEST(Dacapo, JythonConcentratesWorkOnFourThreads)
{
    test::VmHarness h(8);
    auto app = makeDacapoApp("jython", 0.05);
    jvm::AppContext ctx(h.vm, 16, Rng(7));
    app->setup(ctx);
    int threads_with_tasks = 0;
    for (std::uint32_t i = 0; i < 16; ++i) {
        auto src = app->threadSource(i, ctx);
        bool has_task = false;
        while (true) {
            const jvm::Action a = src->next();
            if (a.kind == jvm::Action::Kind::TaskDone)
                has_task = true;
            if (a.kind == jvm::Action::Kind::End)
                break;
        }
        threads_with_tasks += has_task;
    }
    EXPECT_LE(threads_with_tasks, 4);
}

TEST(Dacapo, ScaleMultipliesWork)
{
    test::VmHarness h(8);
    auto count_tasks = [&h](double scale) {
        auto app = makeDacapoApp("sunflow", scale);
        jvm::AppContext ctx(h.vm, 2, Rng(7));
        app->setup(ctx);
        std::uint64_t tasks = 0;
        for (std::uint32_t i = 0; i < 2; ++i) {
            auto src = app->threadSource(i, ctx);
            while (true) {
                const jvm::Action a = src->next();
                if (a.kind == jvm::Action::Kind::TaskDone)
                    ++tasks;
                if (a.kind == jvm::Action::Kind::End)
                    break;
            }
        }
        return tasks;
    };
    const auto small = count_tasks(0.05);
    const auto large = count_tasks(0.10);
    EXPECT_NEAR(static_cast<double>(large),
                2.0 * static_cast<double>(small),
                static_cast<double>(small) * 0.1);
}

} // namespace
