/**
 * @file
 * Tests for the NUMA machine model: topology, core enabling and the
 * memory cost model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "machine/machine.hh"

namespace {

using namespace jscale;
using machine::Machine;
using machine::MachineConfig;

TEST(Machine, PaperPresetTopology)
{
    Machine m(Machine::amd6168_4p48c());
    EXPECT_EQ(m.config().sockets, 4u);
    EXPECT_EQ(m.config().cores_per_socket, 12u);
    EXPECT_EQ(m.cores().size(), 48u);
    EXPECT_DOUBLE_EQ(m.config().freq_ghz, 1.9);
    EXPECT_EQ(m.totalMemory(), 64ULL * units::GiB);
}

TEST(Machine, SocketAssignmentIsCompact)
{
    Machine m(Machine::amd6168_4p48c());
    EXPECT_EQ(m.socketOf(0), 0u);
    EXPECT_EQ(m.socketOf(11), 0u);
    EXPECT_EQ(m.socketOf(12), 1u);
    EXPECT_EQ(m.socketOf(47), 3u);
}

TEST(Machine, EnableCoresFillsCompactly)
{
    Machine m(Machine::amd6168_4p48c());
    m.enableCores(14);
    EXPECT_EQ(m.enabledCores(), 14u);
    EXPECT_EQ(m.enabledSockets(), 2u);
    const auto &ids = m.enabledCoreIds();
    ASSERT_EQ(ids.size(), 14u);
    for (std::size_t i = 0; i < ids.size(); ++i)
        EXPECT_EQ(ids[i], i);
    EXPECT_TRUE(m.core(13).enabled());
    EXPECT_FALSE(m.core(14).enabled());
}

TEST(Machine, ReEnableShrinks)
{
    Machine m(Machine::amd6168_4p48c());
    m.enableCores(48);
    EXPECT_EQ(m.enabledSockets(), 4u);
    m.enableCores(4);
    EXPECT_EQ(m.enabledCores(), 4u);
    EXPECT_EQ(m.enabledSockets(), 1u);
    EXPECT_FALSE(m.core(4).enabled());
}

TEST(Machine, EnableBoundsChecked)
{
    Machine m(Machine::testMachine_2p8c());
    EXPECT_DEATH(m.enableCores(0), "at least one");
    EXPECT_DEATH(m.enableCores(9), "cannot enable");
}

TEST(Machine, CoreIdBoundsChecked)
{
    Machine m(Machine::testMachine_2p8c());
    EXPECT_DEATH(m.core(8), "out of range");
}

TEST(Machine, CyclesToTicksUsesFrequency)
{
    Machine m(Machine::testMachine_2p8c()); // 2 GHz
    EXPECT_EQ(m.core(0).cyclesToTicks(2000), 1000u);
}

TEST(Machine, MemCopyCostLocalVsRemote)
{
    Machine m(Machine::amd6168_4p48c());
    const Bytes bytes = 1 * units::MiB;
    const Ticks local = m.memCopyCost(0, 0, bytes);
    const Ticks remote = m.memCopyCost(0, 1, bytes);
    EXPECT_GT(local, 0u);
    EXPECT_NEAR(static_cast<double>(remote) / static_cast<double>(local),
                m.config().numa_remote_factor, 0.01);
}

TEST(Machine, MemCopyCostScalesWithBytes)
{
    Machine m(Machine::amd6168_4p48c());
    EXPECT_NEAR(static_cast<double>(m.memCopyCost(0, 0, 2048)),
                2.0 * static_cast<double>(m.memCopyCost(0, 0, 1024)),
                2.0);
}

TEST(Machine, ScatterPlacementSpreadsSockets)
{
    Machine m(Machine::amd6168_4p48c());
    m.enableCores(4, Machine::EnablePolicy::Scatter);
    EXPECT_EQ(m.enabledCores(), 4u);
    EXPECT_EQ(m.enabledSockets(), 4u); // one core per socket
    const auto &ids = m.enabledCoreIds();
    EXPECT_EQ(ids, (std::vector<machine::CoreId>{0, 12, 24, 36}));

    m.enableCores(6, Machine::EnablePolicy::Scatter);
    EXPECT_EQ(m.enabledSockets(), 4u);
    EXPECT_EQ(m.enabledCoreIds(),
              (std::vector<machine::CoreId>{0, 1, 12, 13, 24, 36}));
}

TEST(Machine, ScatterEqualsCompactWhenFull)
{
    Machine a(Machine::testMachine_2p8c());
    Machine b(Machine::testMachine_2p8c());
    a.enableCores(8, Machine::EnablePolicy::Compact);
    b.enableCores(8, Machine::EnablePolicy::Scatter);
    EXPECT_EQ(a.enabledCoreIds(), b.enabledCoreIds());
}

/** What enabledCoreIds() must equal: a fresh filter of cores(). */
std::vector<machine::CoreId>
filterEnabled(const Machine &m)
{
    std::vector<machine::CoreId> ids;
    for (const auto &c : m.cores()) {
        if (c.enabled())
            ids.push_back(c.id());
    }
    return ids;
}

/** The cached list against the filter: equal, ascending, counted. */
void
expectIdsExact(const Machine &m)
{
    const auto &ids = m.enabledCoreIds();
    EXPECT_EQ(ids, filterEnabled(m));
    EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
    EXPECT_EQ(ids.size(), m.enabledCores());
}

TEST(Machine, EnabledIdsTrackEnableCores)
{
    Machine m(Machine::amd6168_4p48c());
    for (const auto policy : {Machine::EnablePolicy::Compact,
                              Machine::EnablePolicy::Scatter}) {
        for (const std::uint32_t n : {1u, 5u, 13u, 30u, 48u, 2u}) {
            m.enableCores(n, policy);
            SCOPED_TRACE(n);
            expectIdsExact(m);
            EXPECT_EQ(m.enabledCoreIds().size(), n);
        }
    }
}

TEST(Machine, EnabledIdsTrackOnlineToggles)
{
    Machine m(Machine::amd6168_4p48c());
    m.enableCores(20, Machine::EnablePolicy::Scatter);
    const auto *list = &m.enabledCoreIds();
    const auto *storage = list->data();
    // Offline and online cores inside and outside the enabled set, in
    // an order that makes each toggle land in the middle of the list.
    const std::vector<std::pair<machine::CoreId, bool>> toggles = {
        {12, false}, {0, false}, {47, true}, {12, true}, {30, true},
        {47, false}, {1, false}, {0, true},  {13, false}, {1, true},
        {13, true},  {30, false},
    };
    for (const auto &[id, online] : toggles) {
        SCOPED_TRACE(id);
        EXPECT_TRUE(m.setCoreOnline(id, online));
        EXPECT_EQ(m.core(id).enabled(), online);
        expectIdsExact(m);
        // The same list object, never reallocated: callers may hold it.
        EXPECT_EQ(&m.enabledCoreIds(), list);
        EXPECT_EQ(m.enabledCoreIds().data(), storage);
    }
    m.enableCores(48);
    expectIdsExact(m);
    EXPECT_EQ(m.enabledCoreIds().data(), storage);
}

TEST(Machine, LastOnlineCoreIsRefused)
{
    Machine m(Machine::testMachine_2p8c());
    m.enableCores(2);
    EXPECT_TRUE(m.setCoreOnline(0, false));
    EXPECT_FALSE(m.setCoreOnline(1, false)); // the last one stays
    EXPECT_TRUE(m.core(1).enabled());
    EXPECT_EQ(m.enabledCoreIds(), (std::vector<machine::CoreId>{1}));
    EXPECT_EQ(m.enabledCores(), 1u);
    // Repeating a core's current state is a successful no-op.
    EXPECT_TRUE(m.setCoreOnline(0, false));
    EXPECT_TRUE(m.setCoreOnline(1, true));
    expectIdsExact(m);
    EXPECT_TRUE(m.setCoreOnline(0, true));
    EXPECT_EQ(m.enabledCoreIds(), (std::vector<machine::CoreId>{0, 1}));
}

/** Enabled-socket count follows compact fill. */
class EnabledSocketsTest
    : public ::testing::TestWithParam<std::pair<std::uint32_t, std::uint32_t>>
{
};

TEST_P(EnabledSocketsTest, MatchesCompactFill)
{
    const auto [cores, sockets] = GetParam();
    Machine m(Machine::amd6168_4p48c());
    m.enableCores(cores);
    EXPECT_EQ(m.enabledSockets(), sockets);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EnabledSocketsTest,
    ::testing::Values(std::make_pair(1u, 1u), std::make_pair(12u, 1u),
                      std::make_pair(13u, 2u), std::make_pair(24u, 2u),
                      std::make_pair(25u, 3u), std::make_pair(48u, 4u)));

} // namespace
