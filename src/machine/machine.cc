#include "machine/machine.hh"

#include <cmath>
#include <set>

#include "base/logging.hh"

namespace jscale::machine {

Machine::Machine(const MachineConfig &config)
    : config_(config)
{
    jscale_assert(config.sockets > 0 && config.cores_per_socket > 0,
                  "machine requires at least one core");
    cores_.reserve(config.totalCores());
    for (std::uint32_t s = 0; s < config.sockets; ++s) {
        for (std::uint32_t c = 0; c < config.cores_per_socket; ++c) {
            cores_.emplace_back(
                static_cast<CoreId>(cores_.size()), s, config.freq_ghz);
        }
    }
    // Full capacity up front: refreshing the list never reallocates.
    enabled_ids_.reserve(cores_.size());
    enabled_mask_.assign((cores_.size() + 63) / 64, 0);
}

MachineConfig
Machine::amd6168_4p48c()
{
    MachineConfig cfg;
    cfg.name = "amd6168-4p48c";
    cfg.sockets = 4;
    cfg.cores_per_socket = 12;
    cfg.freq_ghz = 1.9;
    cfg.mem_per_node = 16ULL * units::GiB;
    cfg.numa_remote_factor = 1.6;
    return cfg;
}

MachineConfig
Machine::testMachine_2p8c()
{
    MachineConfig cfg;
    cfg.name = "test-2p8c";
    cfg.sockets = 2;
    cfg.cores_per_socket = 4;
    cfg.freq_ghz = 2.0;
    cfg.mem_per_node = 1ULL * units::GiB;
    return cfg;
}

void
Machine::enableCores(std::uint32_t n, EnablePolicy policy)
{
    jscale_assert(n >= 1, "at least one core must be enabled");
    jscale_assert(n <= cores_.size(), "cannot enable ", n, " of ",
                  cores_.size(), " cores");
    for (auto &c : cores_)
        c.setEnabled(false);
    if (policy == EnablePolicy::Compact) {
        for (std::uint32_t i = 0; i < n; ++i)
            cores_[i].setEnabled(true);
    } else {
        // Scatter: socket 0 core 0, socket 1 core 0, ..., socket 0
        // core 1, ... — spreads load across memory controllers.
        std::uint32_t enabled = 0;
        for (std::uint32_t round = 0;
             round < config_.cores_per_socket && enabled < n; ++round) {
            for (std::uint32_t s = 0;
                 s < config_.sockets && enabled < n; ++s) {
                cores_[s * config_.cores_per_socket + round]
                    .setEnabled(true);
                ++enabled;
            }
        }
    }
    refreshEnabledIds();
}

bool
Machine::setCoreOnline(CoreId id, bool online)
{
    Core &c = core(id);
    if (c.enabled() == online)
        return true;
    if (!online && enabled_ids_.size() <= 1)
        return false; // never offline the last core
    c.setEnabled(online);
    if (online)
        c.setSpeedFactor(1.0);
    refreshEnabledIds();
    return true;
}

void
Machine::refreshEnabledIds()
{
    enabled_ids_.clear();
    enabled_mask_.assign(enabled_mask_.size(), 0);
    for (const auto &c : cores_) {
        if (c.enabled()) {
            enabled_ids_.push_back(c.id());
            enabled_mask_[c.id() / 64] |= std::uint64_t{1} << (c.id() % 64);
        }
    }
}

std::uint32_t
Machine::enabledSockets() const
{
    std::set<NodeId> sockets;
    for (const auto &c : cores_) {
        if (c.enabled())
            sockets.insert(c.socket());
    }
    return static_cast<std::uint32_t>(sockets.size());
}

Ticks
Machine::memCopyCost(NodeId from_node, NodeId mem_node, Bytes bytes) const
{
    double cost = static_cast<double>(bytes) /
                  config_.mem_bandwidth_bytes_per_ns;
    if (from_node != mem_node)
        cost *= config_.numa_remote_factor;
    return static_cast<Ticks>(std::llround(cost));
}

Bytes
Machine::totalMemory() const
{
    return config_.mem_per_node * config_.sockets;
}

} // namespace jscale::machine
