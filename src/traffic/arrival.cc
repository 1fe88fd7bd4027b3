#include "traffic/arrival.hh"

#include <cmath>
#include <sstream>

#include "base/logging.hh"

namespace jscale::traffic {

namespace {

/** Spec-grammar names, in ArrivalKind and ShedPolicy order. */
constexpr const char *kKindNames[kArrivalKinds] = {"poisson", "burst",
                                                   "diurnal"};
constexpr const char *kShedNames[] = {"drop", "oldest"};

const char *
shedName(ShedPolicy p)
{
    return kShedNames[static_cast<std::size_t>(p)];
}

bool
queued(const ArrivalSpec &s)
{
    return s.queue_limit > 0;
}

/** Request and queue counts up to 2^53 stay exact in a double, the
 *  number type of JSON and of the Python report readers. */
constexpr std::uint64_t kMaxCount = 1ULL << 53;

} // namespace

const char *
arrivalKindName(ArrivalKind kind)
{
    return kKindNames[static_cast<std::size_t>(kind)];
}

const FieldTable<ArrivalSpec> &
arrivalFields(ArrivalKind kind)
{
    using F = Field<ArrivalSpec>;
    // The common rows around the process's own, in describe() order;
    // only a bounded queue prints its capacity and shed policy.
    const auto table = [](FieldTable<ArrivalSpec> rows) {
        F queue =
            F::number("queue", &ArrivalSpec::queue_limit, 0, kMaxCount);
        F shed = F::choice("shed", &ArrivalSpec::shed, shedName,
                           std::size(kShedNames));
        queue.shown = shed.shown = queued;
        rows.insert(rows.begin(), F::number("rate", &ArrivalSpec::rate,
                                            kPositive)
                                      .require());
        rows.push_back(
            F::number("requests", &ArrivalSpec::requests, 1, kMaxCount));
        rows.push_back(queue);
        rows.push_back(shed);
        return rows;
    };
    static const FieldTable<ArrivalSpec> tables[kArrivalKinds] = {
        table({}),
        table({F::number("factor", &ArrivalSpec::burst_factor, 1.0),
               F::millis("on_ms", &ArrivalSpec::on_mean, true),
               F::millis("off_ms", &ArrivalSpec::off_mean, true)}),
        table({F::number("peak", &ArrivalSpec::peak_factor, 1.0),
               F::millis("period_ms", &ArrivalSpec::period, true)}),
    };
    return tables[static_cast<std::size_t>(kind)];
}

bool
ArrivalSpec::parse(const std::string &spec, ArrivalSpec &out,
                   std::string &err)
{
    static const Field<ArrivalSpec> process = Field<ArrivalSpec>::choice(
        "process", &ArrivalSpec::kind, arrivalKindName, kArrivalKinds);
    out = ArrivalSpec{};
    const SpecText text{"arrivals", spec};
    const std::vector<std::string> fields = splitFields(spec, ':');
    return readField(text, process, fields[0], out, err) &&
           readFields(text, {fields.begin() + 1, fields.end()},
                      arrivalFields(out.kind), out, err);
}

std::string
ArrivalSpec::describe() const
{
    std::ostringstream os;
    os << arrivalKindName(kind) << ':';
    writeFields(os, arrivalFields(kind), *this, ':');
    return os.str();
}

ArrivalProcess::ArrivalProcess(const ArrivalSpec &spec, Rng rng)
    : spec_(spec), rng_(rng)
{}

Ticks
ArrivalProcess::poissonGap(double rate)
{
    jscale_assert(rate > 0.0, "arrival rate must be positive");
    const double mean_gap = static_cast<double>(units::SEC) / rate;
    const auto gap =
        static_cast<Ticks>(std::llround(rng_.exponential(mean_gap)));
    return gap > 0 ? gap : 1;
}

Ticks
ArrivalProcess::nextGap(Ticks now)
{
    switch (spec_.kind) {
      case ArrivalKind::Poisson:
        return poissonGap(spec_.rate);

      case ArrivalKind::Bursty: {
        // Walk simulated phase time until a candidate gap, drawn at the
        // current phase's rate, fits inside the phase's remaining dwell.
        Ticks gap = 0;
        for (;;) {
            if (phase_left_ == 0) {
                const Ticks mean =
                    phase_on_ ? spec_.on_mean : spec_.off_mean;
                phase_left_ = static_cast<Ticks>(std::llround(
                    rng_.exponential(static_cast<double>(mean))));
                if (phase_left_ == 0)
                    phase_left_ = 1;
            }
            const double rate = phase_on_
                                    ? spec_.rate * spec_.burst_factor
                                    : spec_.rate / spec_.burst_factor;
            const Ticks candidate = poissonGap(rate);
            if (candidate <= phase_left_) {
                phase_left_ -= candidate;
                return gap + candidate;
            }
            gap += phase_left_;
            phase_left_ = 0;
            phase_on_ = !phase_on_;
        }
      }

      case ArrivalKind::Diurnal: {
        // Thinning (Lewis-Shedler): sample at the crest rate, accept
        // with probability rate(t) / crest.
        constexpr double kTwoPi = 6.283185307179586;
        const double crest = spec_.rate * spec_.peak_factor;
        Ticks t = now;
        for (;;) {
            t += poissonGap(crest);
            const double phase =
                kTwoPi * (static_cast<double>(t % spec_.period) /
                          static_cast<double>(spec_.period));
            const double rate =
                spec_.rate *
                (1.0 + (spec_.peak_factor - 1.0) * 0.5 *
                           (1.0 - std::cos(phase)));
            if (rng_.chance(rate / crest))
                return t - now;
        }
      }
    }
    jscale_fatal("bad arrival kind");
}

} // namespace jscale::traffic
