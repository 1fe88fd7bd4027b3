/**
 * @file
 * Admission-policy tests: the policy machines in isolation (FIFO
 * order, the barging cursor's starvation bound, Malthusian culling and
 * rotation, the LCR capacity cap) and the policies driven through full
 * VM runs (stats accounting, listener events, coherence penalty,
 * determinism).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "jvm/locks/monitor.hh"
#include "jvm/locks/policy.hh"
#include "test_apps.hh"

namespace {

using namespace jscale;
using test::TinyApp;
using test::TinyAppParams;
using test::VmHarness;

/** Inert waiter for driving a policy directly. */
struct DummyWaiter : jvm::MonitorWaiter
{
    explicit DummyWaiter(jvm::MutatorIndex idx) : idx(idx) {}

    void monitorGranted(jvm::MonitorId) override {}
    void channelGranted(jvm::ChannelId) override {}
    os::OsThread *osThread() const override { return nullptr; }
    jvm::MutatorIndex mutatorIndex() const override { return idx; }

    jvm::MutatorIndex idx;
};

/** Records passivation/reactivation callbacks in firing order. */
struct EventLog : jvm::AdmissionPolicy::Events
{
    std::vector<std::pair<char, jvm::MutatorIndex>> events;

    void
    waiterPassivated(jvm::MonitorWaiter *w, Ticks) override
    {
        events.emplace_back('p', w->mutatorIndex());
    }

    void
    waiterReactivated(jvm::MonitorWaiter *w, Ticks) override
    {
        events.emplace_back('r', w->mutatorIndex());
    }
};

TEST(AdmissionPolicy, DescribeNamesPolicyAndClamp)
{
    jvm::LockPolicyConfig cfg;
    cfg.policy = jvm::LockPolicy::Lcr;
    const std::string desc = jvm::describeLockPolicyConfig(cfg);
    EXPECT_NE(desc.find("policy=lcr"), std::string::npos);
    EXPECT_NE(desc.find("max=8"), std::string::npos);
}

TEST(AdmissionPolicy, FifoGrantsInArrivalOrder)
{
    jvm::LockPolicyConfig cfg;
    auto policy = jvm::makeAdmissionPolicy(cfg, nullptr);
    std::vector<DummyWaiter> w;
    w.reserve(4);
    for (jvm::MutatorIndex i = 0; i < 4; ++i)
        w.emplace_back(i);
    for (auto &x : w)
        policy->enqueue(&x, 10 * x.idx);
    for (jvm::MutatorIndex i = 0; i < 4; ++i) {
        const auto g = policy->selectNext(100);
        EXPECT_EQ(g.waiter->mutatorIndex(), i);
        EXPECT_EQ(g.since, 10 * i);
        EXPECT_FALSE(g.bypassed_head);
    }
    EXPECT_TRUE(policy->empty());
}

TEST(AdmissionPolicy, BargingCursorRotatesAndBoundsHeadMisses)
{
    jvm::LockPolicyConfig cfg;
    cfg.policy = jvm::LockPolicy::Barging;
    cfg.barge_window = 4;
    auto policy = jvm::makeAdmissionPolicy(cfg, nullptr);
    std::vector<DummyWaiter> w;
    w.reserve(8);
    for (jvm::MutatorIndex i = 0; i < 8; ++i)
        w.emplace_back(i);
    for (auto &x : w)
        policy->enqueue(&x, 0);

    // Queue 0..7, window 4, cursor walking 0,1,2,3,0: the grants land
    // on 0, 2, 4, 6, then back on the (new) head 1.
    const jvm::MutatorIndex expect[] = {0, 2, 4, 6, 1};
    const bool bypassed[] = {false, true, true, true, false};
    for (std::size_t i = 0; i < 5; ++i) {
        const auto g = policy->selectNext(0);
        EXPECT_EQ(g.waiter->mutatorIndex(), expect[i]) << i;
        EXPECT_EQ(g.bypassed_head, bypassed[i]) << i;
    }
    // The head can never miss more than window-1 consecutive grants:
    // the cursor passes position 0 every 4th handoff by construction.
}

TEST(AdmissionPolicy, BargingClipsCursorToShallowQueues)
{
    jvm::LockPolicyConfig cfg;
    cfg.policy = jvm::LockPolicy::Barging;
    cfg.barge_window = 4;
    auto policy = jvm::makeAdmissionPolicy(cfg, nullptr);
    DummyWaiter a(0);
    DummyWaiter b(1);
    policy->enqueue(&a, 0);
    EXPECT_EQ(policy->selectNext(0).waiter, &a); // depth 1: clipped
    policy->enqueue(&a, 0);
    policy->enqueue(&b, 0);
    // cursor is now 1: grants position min(1, depth-1) = 1.
    const auto g = policy->selectNext(0);
    EXPECT_EQ(g.waiter, &b);
    EXPECT_TRUE(g.bypassed_head);
    EXPECT_EQ(policy->selectNext(0).waiter, &a);
    EXPECT_TRUE(policy->empty());
}

TEST(AdmissionPolicy, MalthusianCullsToTargetAndRotates)
{
    jvm::LockPolicyConfig cfg;
    cfg.policy = jvm::LockPolicy::Malthusian;
    cfg.active_target = 1;
    cfg.rotation_period = 3;
    EventLog log;
    auto policy = jvm::makeAdmissionPolicy(cfg, &log);
    std::vector<DummyWaiter> w;
    w.reserve(8);
    for (jvm::MutatorIndex i = 0; i < 8; ++i)
        w.emplace_back(i);

    for (jvm::MutatorIndex i = 0; i < 5; ++i)
        policy->enqueue(&w[i], 0);
    // Handoff 1: culls 4,3,2,1 from the tail, grants 0.
    auto g = policy->selectNext(100);
    EXPECT_EQ(g.waiter->mutatorIndex(), 0u);
    EXPECT_EQ(policy->passiveDepth(), 4u);
    ASSERT_EQ(log.events.size(), 4u);
    EXPECT_EQ(log.events[0], std::make_pair('p', jvm::MutatorIndex(4)));
    EXPECT_EQ(log.events[3], std::make_pair('p', jvm::MutatorIndex(1)));

    policy->enqueue(&w[5], 0);
    EXPECT_EQ(policy->selectNext(200).waiter->mutatorIndex(), 5u);

    // Handoff 3 is a rotation: passive head (4) re-enters at the
    // active *front* and is granted immediately.
    policy->enqueue(&w[6], 0);
    log.events.clear();
    g = policy->selectNext(300);
    EXPECT_EQ(g.waiter->mutatorIndex(), 4u);
    EXPECT_TRUE(g.bypassed_head); // waiter 1 (older) is still passive
    ASSERT_GE(log.events.size(), 1u);
    EXPECT_EQ(log.events[0], std::make_pair('r', jvm::MutatorIndex(4)));

    // Whenever the active set drains, the passive list refills it even
    // off-period.
    while (!policy->empty())
        policy->selectNext(400);
    EXPECT_EQ(policy->passiveDepth(), 0u);
}

TEST(AdmissionPolicy, LcrCapTracksMeasuredThinkHoldRatio)
{
    jvm::LockPolicyConfig cfg;
    cfg.policy = jvm::LockPolicy::Lcr;
    cfg.lcr_min_active = 1;
    cfg.lcr_max_active = 8;
    cfg.rotation_period = 0; // isolate the capacity cap
    EventLog log;
    auto policy = jvm::makeAdmissionPolicy(cfg, &log);
    std::vector<DummyWaiter> w;
    w.reserve(8);
    for (jvm::MutatorIndex i = 0; i < 8; ++i)
        w.emplace_back(i);

    // Measure: waiter 0 holds for 10 ticks, thinks for 30 ->
    // capacity = 1 + 30/10 = 4.
    policy->enqueue(&w[0], 0);
    EXPECT_EQ(policy->selectNext(0).waiter, &w[0]);
    policy->noteRelease(&w[0], 100, /*hold=*/10);
    policy->enqueue(&w[0], 130); // think = 30

    for (jvm::MutatorIndex i = 1; i < 6; ++i)
        policy->enqueue(&w[i], 130);
    // Six active waiters against a cap of 4: two are passivated.
    EXPECT_EQ(policy->selectNext(140).waiter, &w[0]);
    EXPECT_EQ(policy->passiveDepth(), 2u);
    ASSERT_EQ(log.events.size(), 2u);
    EXPECT_EQ(log.events[0], std::make_pair('p', jvm::MutatorIndex(5)));
    EXPECT_EQ(log.events[1], std::make_pair('p', jvm::MutatorIndex(4)));
}

TEST(AdmissionPolicy, CancelRemovesFromActiveAndPassiveLists)
{
    jvm::LockPolicyConfig cfg;
    cfg.policy = jvm::LockPolicy::Malthusian;
    cfg.active_target = 1;
    auto policy = jvm::makeAdmissionPolicy(cfg, nullptr);
    std::vector<DummyWaiter> w;
    w.reserve(4);
    for (jvm::MutatorIndex i = 0; i < 4; ++i)
        w.emplace_back(i);
    for (auto &x : w)
        policy->enqueue(&x, 0);
    policy->selectNext(0); // passivates 3, 2, 1; grants 0
    EXPECT_EQ(policy->passiveDepth(), 3u);

    EXPECT_TRUE(policy->cancel(&w[2]));  // passive
    EXPECT_EQ(policy->passiveDepth(), 2u);
    EXPECT_FALSE(policy->cancel(&w[0])); // already granted
    policy->enqueue(&w[0], 0);
    EXPECT_TRUE(policy->cancel(&w[0]));  // active
    EXPECT_EQ(policy->depth(), 2u);
}

/** Counts passivation/reactivation events on the listener chain. */
struct PolicyProbe : jvm::RuntimeListener
{
    std::uint64_t passivated = 0;
    std::uint64_t reactivated = 0;

    void
    onMonitorWaiterPassivated(jvm::MutatorIndex, jvm::MonitorId,
                              Ticks) override
    {
        ++passivated;
    }

    void
    onMonitorWaiterReactivated(jvm::MutatorIndex, jvm::MonitorId,
                               Ticks) override
    {
        ++reactivated;
    }
};

jvm::VmConfig
policyVmConfig(jvm::LockPolicy p, Ticks base = 0, Ticks coherence = 0)
{
    jvm::VmConfig cfg = VmHarness::defaultVmConfig();
    cfg.locks.policy = p;
    cfg.locks.active_target = 2;
    cfg.locks.rotation_period = 8;
    cfg.locks.handoff_base = base;
    cfg.locks.coherence_cost = coherence;
    return cfg;
}

TinyAppParams
hotLockParams()
{
    TinyAppParams p;
    p.tasks_per_thread = 40;
    p.compute_per_task = 1 * units::US;
    p.use_shared_lock = 5000; // hot: guaranteed contention
    return p;
}

TEST(LockPolicy, HotLockRunCompletesUnderEveryPolicy)
{
    for (const jvm::LockPolicy p : jvm::kAllLockPolicies) {
        VmHarness h(8, policyVmConfig(p));
        PolicyProbe probe;
        h.vm.listeners().add(&probe);
        TinyApp app(hotLockParams());
        const jvm::RunResult r = h.vm.run(app, 8);
        EXPECT_FALSE(r.failed()) << jvm::lockPolicyName(p);
        EXPECT_EQ(r.locks.acquisitions, 8u * 40u)
            << jvm::lockPolicyName(p);
        EXPECT_GT(r.locks.handoffs, 0u) << jvm::lockPolicyName(p);
        // The listener stream mirrors the totals exactly (the oracle
        // depends on this).
        EXPECT_EQ(probe.passivated, r.locks.waiters_passivated)
            << jvm::lockPolicyName(p);
        EXPECT_EQ(probe.reactivated, r.locks.waiters_reactivated)
            << jvm::lockPolicyName(p);
        switch (p) {
          case jvm::LockPolicy::Fifo:
            EXPECT_EQ(r.locks.barged_grants, 0u);
            EXPECT_EQ(r.locks.waiters_passivated, 0u);
            break;
          case jvm::LockPolicy::Barging:
            EXPECT_GT(r.locks.barged_grants, 0u);
            EXPECT_EQ(r.locks.waiters_passivated, 0u);
            break;
          case jvm::LockPolicy::Malthusian:
          case jvm::LockPolicy::Lcr:
            EXPECT_GT(r.locks.waiters_passivated, 0u)
                << jvm::lockPolicyName(p);
            EXPECT_GT(r.locks.waiters_reactivated, 0u)
                << jvm::lockPolicyName(p);
            break;
        }
    }
}

TEST(LockPolicy, CoherencePenaltyChargesWideCirculation)
{
    // Zero-cost config: byte-compatible with the pre-policy monitor.
    VmHarness base(8, policyVmConfig(jvm::LockPolicy::Fifo));
    TinyApp app1(hotLockParams());
    const jvm::RunResult r0 = base.vm.run(app1, 8);
    EXPECT_EQ(r0.locks.coherence_penalty, 0u);

    // Costed config: eight threads circulate over one hot lock, so
    // handoffs see distinct recent owners and the penalty accumulates
    // into a longer run.
    VmHarness costed(8, policyVmConfig(jvm::LockPolicy::Fifo, 250, 500));
    TinyApp app2(hotLockParams());
    const jvm::RunResult r1 = costed.vm.run(app2, 8);
    EXPECT_GT(r1.locks.coherence_penalty, 0u);
    EXPECT_GT(r1.locks.circulation_sum, r1.locks.handoffs)
        << "expected >1 distinct recent owner per handoff on average";
    EXPECT_GT(r1.wall_time, r0.wall_time);
}

TEST(LockPolicy, RunsAreDeterministicPerPolicy)
{
    for (const jvm::LockPolicy p : jvm::kAllLockPolicies) {
        auto once = [&] {
            VmHarness h(8, policyVmConfig(p, 250, 500));
            TinyApp app(hotLockParams());
            return h.vm.run(app, 8);
        };
        const jvm::RunResult a = once();
        const jvm::RunResult b = once();
        EXPECT_EQ(a.wall_time, b.wall_time) << jvm::lockPolicyName(p);
        EXPECT_EQ(a.locks.handoffs, b.locks.handoffs);
        EXPECT_EQ(a.locks.barged_grants, b.locks.barged_grants);
        EXPECT_EQ(a.locks.waiters_passivated, b.locks.waiters_passivated);
        EXPECT_EQ(a.locks.coherence_penalty, b.locks.coherence_penalty);
    }
}

TEST(LockPolicy, CullingNarrowsCirculationUnderContention)
{
    // The collapse mechanism in miniature: FIFO circulates all eight
    // threads over the hot lock; Malthusian restricts the active set,
    // so its average circulation width is strictly narrower.
    auto circulation = [](jvm::LockPolicy p) {
        VmHarness h(8, policyVmConfig(p, 250, 500));
        TinyApp app(hotLockParams());
        const jvm::RunResult r = h.vm.run(app, 8);
        return r.locks.handoffs == 0
                   ? 0.0
                   : static_cast<double>(r.locks.circulation_sum) /
                         static_cast<double>(r.locks.handoffs);
    };
    const double fifo = circulation(jvm::LockPolicy::Fifo);
    const double malthusian = circulation(jvm::LockPolicy::Malthusian);
    EXPECT_GT(fifo, 0.0);
    EXPECT_LT(malthusian, fifo);
}

} // namespace
