#include "traffic/arrival.hh"

#include <sstream>
#include <vector>

#include "base/logging.hh"

namespace jscale::traffic {

const char *
arrivalKindName(ArrivalKind kind)
{
    switch (kind) {
      case ArrivalKind::Poisson:
        return "poisson";
      case ArrivalKind::Bursty:
        return "burst";
      case ArrivalKind::Diurnal:
        return "diurnal";
    }
    return "?";
}

bool
ArrivalSpec::parse(const std::string &spec, ArrivalSpec &out,
                   std::string &err)
{
    out = ArrivalSpec{};
    const std::vector<std::string> fields = splitFields(spec, ':');
    const std::string &kind = fields[0];
    if (kind == "poisson") {
        out.kind = ArrivalKind::Poisson;
    } else if (kind == "burst") {
        out.kind = ArrivalKind::Bursty;
    } else if (kind == "diurnal") {
        out.kind = ArrivalKind::Diurnal;
    } else {
        err = "arrivals '" + spec + "': unknown process '" + kind +
              "' (expected poisson|burst|diurnal)";
        return false;
    }

    bool have_rate = false;
    std::vector<std::string> seen;
    for (std::size_t i = 1; i < fields.size(); ++i) {
        const std::string &field = fields[i];
        const auto eq = field.find('=');
        if (eq == std::string::npos || eq == 0) {
            err = "arrivals '" + spec + "': expected key=value, got '" +
                  field + "'";
            return false;
        }
        const std::string key = field.substr(0, eq);
        const std::string value = field.substr(eq + 1);
        for (const std::string &s : seen) {
            if (s == key) {
                err = "arrivals '" + spec + "': duplicate key '" + key +
                      "'";
                return false;
            }
        }
        seen.push_back(key);

        double num = 0.0;
        const bool numeric = parseNonNegative(value, num);
        const auto need = [&](bool ok, const char *what) {
            if (!ok)
                err = "arrivals '" + spec + "': " + key + " needs " +
                      what + ", got '" + value + "'";
            return ok;
        };

        if (key == "rate") {
            if (!need(numeric && num > 0.0, "a positive req/s number"))
                return false;
            out.rate = num;
            have_rate = true;
        } else if (key == "requests") {
            if (!need(numeric && num >= 1.0, "a count >= 1"))
                return false;
            out.requests = static_cast<std::uint64_t>(num);
        } else if (key == "queue") {
            if (!need(numeric, "a capacity (0 = unbounded)"))
                return false;
            out.queue_limit = static_cast<std::uint64_t>(num);
        } else if (key == "shed") {
            if (value == "drop") {
                out.shed = ShedPolicy::DropNewest;
            } else if (value == "oldest") {
                out.shed = ShedPolicy::DropOldest;
            } else {
                err = "arrivals '" + spec + "': shed must be " +
                      "drop|oldest, got '" + value + "'";
                return false;
            }
        } else if (key == "factor" && out.kind == ArrivalKind::Bursty) {
            if (!need(numeric && num >= 1.0, "a multiplier >= 1"))
                return false;
            out.burst_factor = num;
        } else if (key == "on_ms" && out.kind == ArrivalKind::Bursty) {
            if (!need(numeric && num > 0.0 && msToTicks(num, out.on_mean),
                      "a positive ms duration"))
                return false;
        } else if (key == "off_ms" && out.kind == ArrivalKind::Bursty) {
            if (!need(numeric && num > 0.0 && msToTicks(num, out.off_mean),
                      "a positive ms duration"))
                return false;
        } else if (key == "peak" && out.kind == ArrivalKind::Diurnal) {
            if (!need(numeric && num >= 1.0, "a multiplier >= 1"))
                return false;
            out.peak_factor = num;
        } else if (key == "period_ms" &&
                   out.kind == ArrivalKind::Diurnal) {
            if (!need(numeric && num > 0.0 && msToTicks(num, out.period),
                      "a positive ms period"))
                return false;
        } else {
            err = "arrivals '" + spec + "': unknown key '" + key +
                  "' for process '" + kind + "'";
            return false;
        }
    }

    if (!have_rate) {
        err = "arrivals '" + spec + "': missing required key 'rate'";
        return false;
    }
    return true;
}

std::string
ArrivalSpec::describe() const
{
    std::ostringstream os;
    os << arrivalKindName(kind) << ":rate=" << rate;
    if (kind == ArrivalKind::Bursty) {
        os << ":factor=" << burst_factor
           << ":on_ms=" << on_mean / units::MS
           << ":off_ms=" << off_mean / units::MS;
    } else if (kind == ArrivalKind::Diurnal) {
        os << ":peak=" << peak_factor
           << ":period_ms=" << period / units::MS;
    }
    os << ":requests=" << requests;
    if (queue_limit > 0) {
        os << ":queue=" << queue_limit << ":shed="
           << (shed == ShedPolicy::DropOldest ? "oldest" : "drop");
    }
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
