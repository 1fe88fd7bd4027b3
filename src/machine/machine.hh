/**
 * @file
 * Simulated manycore NUMA machine.
 *
 * Models the experimental platform of the paper: a multi-socket machine
 * (default preset: four AMD Opteron 6168 sockets, 12 cores each, 64 GB
 * RAM) where a configurable subset of cores is enabled per run. The
 * model carries what the study depends on: core counts, socket topology,
 * per-core frequency, and a first-order NUMA cost factor applied to
 * cross-node memory traffic (used by the GC copy-cost model).
 */

#ifndef JSCALE_MACHINE_MACHINE_HH
#define JSCALE_MACHINE_MACHINE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "base/units.hh"

namespace jscale::machine {

/** Index of a physical core. */
using CoreId = std::uint32_t;

/** Index of a socket / NUMA memory node. */
using NodeId = std::uint32_t;

/** Static description of one machine configuration. */
struct MachineConfig
{
    std::string name = "generic";
    std::uint32_t sockets = 4;
    std::uint32_t cores_per_socket = 12;
    /** Core clock in GHz; the AMD 6168 runs at 1.9 GHz. */
    double freq_ghz = 1.9;
    /** Installed RAM per NUMA node. */
    Bytes mem_per_node = 16ULL * units::GiB;
    /** Multiplier on memory cost for remote-node accesses. */
    double numa_remote_factor = 1.6;
    /** Local-node memory streaming bandwidth, bytes per tick (ns). */
    double mem_bandwidth_bytes_per_ns = 8.0;
    /** Direct cost of a context switch on a core. */
    Ticks context_switch_cost = 1500 * units::NS;
    /** Extra cost when a thread migrates across sockets (cache refill). */
    Ticks migration_cost = 12 * units::US;

    /** Total physical cores. */
    std::uint32_t totalCores() const { return sockets * cores_per_socket; }
};

/** One processing core: identity, socket, and cycle/tick conversion. */
class Core
{
  public:
    Core(CoreId id, NodeId socket, double freq_ghz)
        : id_(id), socket_(socket), freq_ghz_(freq_ghz)
    {}

    CoreId id() const { return id_; }
    NodeId socket() const { return socket_; }

    /** Convert a cycle count to simulated time on this core. */
    Ticks
    cyclesToTicks(Cycles c) const
    {
        return static_cast<Ticks>(static_cast<double>(c) / freq_ghz_);
    }

    /** Whether this core participates in the current experiment. */
    bool enabled() const { return enabled_; }

    /**
     * Current speed factor in (0, 1]: 1.0 is nominal frequency, lower
     * values model transient throttling (fault injection). Affects how
     * the scheduler stretches planned bursts, not cyclesToTicks.
     */
    double speedFactor() const { return speed_factor_; }
    void setSpeedFactor(double f) { speed_factor_ = f; }

  private:
    /** Only Machine flips a core, so its enabled-id list stays exact. */
    friend class Machine;
    void setEnabled(bool e) { enabled_ = e; }

    CoreId id_;
    NodeId socket_;
    double freq_ghz_;
    bool enabled_ = false;
    double speed_factor_ = 1.0;
};

/**
 * The machine: topology, enabled-core selection and the memory cost
 * model. Enabling follows the paper's methodology — the experiment
 * enables exactly as many cores as application threads, filling sockets
 * compactly (socket 0 first).
 */
class Machine
{
  public:
    explicit Machine(const MachineConfig &config);

    /** Preset matching the paper's testbed: 4 x AMD 6168 (48 cores). */
    static MachineConfig amd6168_4p48c();

    /** Small preset for fast unit tests: 2 sockets x 4 cores. */
    static MachineConfig testMachine_2p8c();

    const MachineConfig &config() const { return config_; }

    /** All physical cores. */
    const std::vector<Core> &cores() const { return cores_; }

    /** Mutable core access. */
    Core &
    core(CoreId id)
    {
        jscale_assert(id < cores_.size(), "core id ", id, " out of range");
        return cores_[id];
    }

    const Core &
    core(CoreId id) const
    {
        jscale_assert(id < cores_.size(), "core id ", id, " out of range");
        return cores_[id];
    }

    /** Socket (== NUMA node) owning a core. */
    NodeId socketOf(CoreId id) const { return core(id).socket(); }

    /** Core-enabling placement policies. */
    enum class EnablePolicy
    {
        /** Fill socket 0 first, then socket 1, ... (paper default). */
        Compact,
        /** Round-robin across sockets (OS-scheduler-like spread). */
        Scatter,
    };

    /**
     * Enable @p n cores under @p policy and disable the rest. @p n must
     * not exceed the physical core count.
     */
    void enableCores(std::uint32_t n,
                     EnablePolicy policy = EnablePolicy::Compact);

    /**
     * Take one core offline or bring it back online at runtime (fault
     * injection). Unlike enableCores this flips a single core and keeps
     * the enabled count consistent; no-op if already in that state.
     * Returns false when the request would offline the last online core.
     */
    bool setCoreOnline(CoreId id, bool online);

    /** Number of currently enabled cores. */
    std::uint32_t
    enabledCores() const
    {
        return static_cast<std::uint32_t>(enabled_ids_.size());
    }

    /**
     * Ids of the enabled cores, ascending. The list is kept, not built
     * per call. Only enableCores and setCoreOnline change it, and they
     * run at experiment setup and from fault events, never from inside
     * a loop over the list: the scheduler's stop-the-world and
     * lock-holder preemption loops iterate this reference directly.
     */
    const std::vector<CoreId> &enabledCoreIds() const { return enabled_ids_; }

    /** The same set as a bitmap: bit (id % 64) of word id / 64. */
    const std::vector<std::uint64_t> &enabledMask() const
    {
        return enabled_mask_;
    }

    /** Number of distinct sockets with at least one enabled core. */
    std::uint32_t enabledSockets() const;

    /**
     * Cost in ticks for a core on @p from_node to stream @p bytes from
     * memory on @p mem_node (NUMA factor applied when the nodes differ).
     */
    Ticks memCopyCost(NodeId from_node, NodeId mem_node, Bytes bytes) const;

    /** Total installed memory across nodes. */
    Bytes totalMemory() const;

  private:
    /** Rebuild enabled_ids_ and enabled_mask_ from the cores' flags. */
    void refreshEnabledIds();

    MachineConfig config_;
    std::vector<Core> cores_;
    /** Ascending ids of the enabled cores; its size is the count. */
    std::vector<CoreId> enabled_ids_;
    /** Bitmap of the enabled cores, one bit per core id. */
    std::vector<std::uint64_t> enabled_mask_;
};

} // namespace jscale::machine

#endif // JSCALE_MACHINE_MACHINE_HH
