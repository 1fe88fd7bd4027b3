/**
 * @file
 * FaultPlan: a deterministic, seed-driven schedule of fault injections.
 *
 * A plan is a list of FaultSpec entries, each naming a fault kind, an
 * injection time relative to run start, a magnitude and (for transient
 * faults) a recovery delay. Plans come from two sources:
 *
 *  - an explicit spec string, e.g.
 *      "coreoff@100:n=2:for=200,kill@250,heap@300:mb=24:for=100"
 *  - an intensity dial, "intensity=0.6:seed=7:horizon=2000", which
 *    expands into a reproducible mixed-fault schedule scaled by the
 *    intensity (fromIntensity) — the x-axis of the resilience study.
 *
 * The plan itself is pure data; fault::FaultInjector turns it into
 * ordinary simulation events, so an identical plan produces
 * byte-identical runs at any host parallelism.
 *
 * Spec grammar (times in simulated milliseconds, decimals allowed; keys
 * are strict: unknown, duplicate or out-of-range keys are errors):
 *
 *   spec      := event ("," event)* | intensity
 *   event     := kind "@" time (":" key "=" value)*
 *   kind      := "coreoff" | "slow" | "preempt" | "kill" | "stall"
 *              | "heap" | "gcworkers"
 *   intensity := "intensity=" float [":seed=" int] [":horizon=" time]
 *
 * The option keys and their bounds are one table, faultFields(): n is
 * a whole count >= 1, factor a number in (0, 1], mb a MiB size, for and
 * every ms values that fit the tick clock. The dial's keys are
 * intensityFields(): intensity in [0, 1], a whole seed, a horizon in ms.
 *
 * Options per kind (defaults in parentheses):
 *   coreoff   n=cores(1)      for=ms(0 = rest of run)
 *   slow      n=cores(1)      factor=f(0.5)   for=ms(0)
 *   preempt   n=bursts(1)     every=ms(5)     for=hold-ms(1)
 *   kill      n=mutators(1)
 *   stall     n=mutators(1)   for=ms(10)
 *   heap      mb=MiB(16)      for=ms(0)
 *   gcworkers n=workers(1)    for=ms(0)
 */

#ifndef JSCALE_FAULT_FAULT_HH
#define JSCALE_FAULT_FAULT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "base/fields.hh"
#include "base/units.hh"

namespace jscale::fault {

/** Kinds of injectable faults. */
enum class FaultKind : std::uint8_t
{
    CoreOffline,        ///< take cores offline (scheduler migrates work)
    CoreSlowdown,       ///< throttle core frequency by a factor
    PreemptLockHolders, ///< lock-holder preemption burst(s)
    MutatorKill,        ///< kill mutators (task abandoned, objects die)
    MutatorStall,       ///< hold mutators off-CPU for a while
    HeapPressure,       ///< external eden reservation (pressure spike)
    GcWorkerLoss,       ///< remove GC workers (collector degrades)
};

/** Spec-grammar name of a fault kind ("coreoff", "slow", ...). */
const char *faultKindName(FaultKind kind);

/** One scheduled fault. */
struct FaultSpec
{
    FaultKind kind = FaultKind::CoreOffline;
    /** Injection time relative to run start. */
    Ticks at = 0;
    /** Recovery delay; 0 = permanent (kind-dependent meaning). */
    Ticks duration = 0;
    /** Cores / mutators / workers / bursts affected. */
    std::uint32_t count = 1;
    /** CoreSlowdown speed factor in (0, 1]. */
    double factor = 0.5;
    /** HeapPressure reservation. */
    Bytes bytes = 0;
    /** PreemptLockHolders burst spacing. */
    Ticks period = 0;

    /** One-line human-readable description. */
    std::string describe() const;
};

/** The intensity dial's parameters (see FaultPlan::fromIntensity). */
struct IntensityDial
{
    double intensity = 0.0;
    std::uint64_t seed = 1;
    Ticks horizon = 2000 * units::MS;
};

/** The option keys of a fault event, one row each. */
const FieldTable<FaultSpec> &faultFields();

/** The keys of an intensity dial, one row each. */
const FieldTable<IntensityDial> &intensityFields();

/** A full, ordered fault schedule for one run. */
struct FaultPlan
{
    std::vector<FaultSpec> faults;
    /** The originating spec string (reporting / reproduction). */
    std::string spec;

    bool empty() const { return faults.empty(); }

    /** Multi-line human-readable description of the schedule. */
    std::string describe() const;

    /**
     * Parse a spec string (grammar above). On failure returns false and
     * sets @p err; @p out is unspecified. An empty spec parses to an
     * empty plan.
     */
    static bool parse(const std::string &spec, FaultPlan &out,
                      std::string &err);

    /**
     * Expand an intensity dial into a reproducible mixed schedule:
     * @p intensity in [0, 1] scales both how many faults fire within
     * @p horizon and how hard each one hits. Identical arguments yield
     * an identical plan.
     */
    static FaultPlan fromIntensity(double intensity, std::uint64_t seed,
                                   Ticks horizon);
};

} // namespace jscale::fault

#endif // JSCALE_FAULT_FAULT_HH
