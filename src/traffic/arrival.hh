/**
 * @file
 * Open-loop arrival processes.
 *
 * A closed-loop run (the classic DaCapo harness) keeps a fixed number
 * of threads busy: offered load adapts to the system's speed, so
 * saturation shows up as lower throughput, never as queueing delay. An
 * open-loop run injects requests on a schedule *independent* of the
 * system's state — the configuration every latency-sensitive server
 * actually faces — which is what makes tail latency and the
 * offered-load knee observable at all.
 *
 * Three seeded processes are modeled:
 *
 *  - poisson: memoryless arrivals at a fixed mean rate (M/G/k).
 *  - burst:   Markov-modulated on/off Poisson (MMPP-2); dwell times in
 *             each phase are exponential, the on phase multiplies the
 *             base rate by `factor` and the off phase divides by it.
 *  - diurnal: sinusoidally ramping rate between `rate` (trough) and
 *             `rate * peak` (crest) with period `period_ms`, sampled by
 *             thinning against the crest rate.
 *
 * All gap sampling draws from one forked Rng stream in arrival order,
 * so a (seed, spec) pair yields one exact arrival schedule regardless
 * of what the serving system does — byte-identical across --jobs
 * modes by construction.
 *
 * Spec grammar (strict: unknown, duplicate or out-of-bounds keys are
 * errors; each process's keys and bounds are one table, arrivalFields()):
 *
 *   poisson:rate=<req/s>[:requests=<n>][:queue=<cap>][:shed=drop|oldest]
 *   burst:rate=<req/s>:factor=<f>[:on_ms=<ms>][:off_ms=<ms>][...]
 *   diurnal:rate=<req/s>:peak=<f>[:period_ms=<ms>][...]
 */

#ifndef JSCALE_TRAFFIC_ARRIVAL_HH
#define JSCALE_TRAFFIC_ARRIVAL_HH

#include <cstddef>
#include <cstdint>
#include <string>

#include "base/fields.hh"
#include "base/random.hh"
#include "base/units.hh"

namespace jscale::traffic {

/** The modeled arrival process families, in spec-name order. */
enum class ArrivalKind : std::uint8_t
{
    Poisson,
    Bursty,
    Diurnal,
};

/** Number of ArrivalKind values. */
inline constexpr std::size_t kArrivalKinds = 3;

/** Spec-grammar name of @p kind ("poisson", "burst", "diurnal"). */
const char *arrivalKindName(ArrivalKind kind);

/** What a full admission queue does with the overflow. */
enum class ShedPolicy : std::uint8_t
{
    /** Reject the arriving request (classic admission control). */
    DropNewest,
    /** Evict the oldest queued request in favour of the new one. */
    DropOldest,
};

/** One parsed arrival stream description. */
struct ArrivalSpec
{
    ArrivalKind kind = ArrivalKind::Poisson;
    /** Mean offered rate in requests per second (base rate for the
     *  modulated processes). */
    double rate = 1000.0;
    /** Total requests the stream offers before ending. */
    std::uint64_t requests = 1000;
    /** Admission-queue capacity; 0 = unbounded. */
    std::uint64_t queue_limit = 0;
    ShedPolicy shed = ShedPolicy::DropNewest;

    /** @name Bursty (MMPP-2) parameters */
    /** @{ */
    /** On-phase rate multiplier (off phase divides by it). */
    double burst_factor = 4.0;
    /** Mean dwell time in the on phase. */
    Ticks on_mean = 20 * units::MS;
    /** Mean dwell time in the off phase. */
    Ticks off_mean = 20 * units::MS;
    /** @} */

    /** @name Diurnal parameters */
    /** @{ */
    /** Crest rate multiplier (>= 1). */
    double peak_factor = 3.0;
    /** Full trough-to-trough period. */
    Ticks period = 1 * units::SEC;
    /** @} */

    /**
     * Parse the grammar above. On failure returns false and sets
     * @p err; @p out is unspecified.
     */
    static bool parse(const std::string &spec, ArrivalSpec &out,
                      std::string &err);

    /** Canonical one-line spec string (reporting / reproduction),
     *  printed from arrivalFields(kind). */
    std::string describe() const;
};

/** The keys of process @p kind, one row each, in describe() order. */
const FieldTable<ArrivalSpec> &arrivalFields(ArrivalKind kind);

/**
 * Deterministic gap sampler for one arrival stream. Consumes the Rng
 * strictly in arrival order; nothing else may share the stream.
 */
class ArrivalProcess
{
  public:
    ArrivalProcess(const ArrivalSpec &spec, Rng rng);

    /**
     * Sample the next inter-arrival gap (>= 1 tick). @p now is the
     * current arrival time, used only by the time-varying processes.
     */
    Ticks nextGap(Ticks now);

  private:
    Ticks poissonGap(double rate);

    ArrivalSpec spec_;
    Rng rng_;
    /** Bursty: current phase and its remaining dwell time. */
    bool phase_on_ = true;
    Ticks phase_left_ = 0;
};

} // namespace jscale::traffic

#endif // JSCALE_TRAFFIC_ARRIVAL_HH
