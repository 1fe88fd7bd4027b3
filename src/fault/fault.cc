#include "fault/fault.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "base/random.hh"

namespace jscale::fault {

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::CoreOffline:
        return "coreoff";
      case FaultKind::CoreSlowdown:
        return "slow";
      case FaultKind::PreemptLockHolders:
        return "preempt";
      case FaultKind::MutatorKill:
        return "kill";
      case FaultKind::MutatorStall:
        return "stall";
      case FaultKind::HeapPressure:
        return "heap";
      case FaultKind::GcWorkerLoss:
        return "gcworkers";
    }
    return "?";
}

namespace {

bool
kindFromName(const std::string &name, FaultKind &out)
{
    static const struct
    {
        const char *name;
        FaultKind kind;
    } kTable[] = {
        {"coreoff", FaultKind::CoreOffline},
        {"slow", FaultKind::CoreSlowdown},
        {"preempt", FaultKind::PreemptLockHolders},
        {"kill", FaultKind::MutatorKill},
        {"stall", FaultKind::MutatorStall},
        {"heap", FaultKind::HeapPressure},
        {"gcworkers", FaultKind::GcWorkerLoss},
    };
    for (const auto &e : kTable) {
        if (name == e.name) {
            out = e.kind;
            return true;
        }
    }
    return false;
}

/** Set per-kind defaults not expressible as static initializers. */
void
applyDefaults(FaultSpec &f)
{
    switch (f.kind) {
      case FaultKind::PreemptLockHolders:
        f.period = 5 * units::MS;
        f.duration = 1 * units::MS;
        break;
      case FaultKind::MutatorStall:
        f.duration = 10 * units::MS;
        break;
      case FaultKind::HeapPressure:
        f.bytes = 16 * units::MiB;
        break;
      default:
        break;
    }
}

bool
parseEvent(const std::string &text, FaultSpec &out, std::string &err)
{
    const auto at_pos = text.find('@');
    if (at_pos == std::string::npos) {
        err = "fault '" + text + "': missing '@<time-ms>'";
        return false;
    }
    const std::string kind_name = text.substr(0, at_pos);
    if (!kindFromName(kind_name, out.kind)) {
        err = "unknown fault kind '" + kind_name + "'";
        return false;
    }
    applyDefaults(out);

    const std::vector<std::string> parts =
        splitFields(text.substr(at_pos + 1), ':');
    double time_ms = 0;
    if (!parseNonNegative(parts[0], time_ms) ||
        !msToTicks(time_ms, out.at)) {
        err = "fault '" + text + "': bad injection time '" + parts[0] +
              "'";
        return false;
    }

    for (std::size_t i = 1; i < parts.size(); ++i) {
        const auto eq = parts[i].find('=');
        if (eq == std::string::npos) {
            err = "fault '" + text + "': option '" + parts[i] +
                  "' is not key=value";
            return false;
        }
        const std::string key = parts[i].substr(0, eq);
        double value = 0;
        Ticks *const ms = key == "for"     ? &out.duration
                          : key == "every" ? &out.period
                                           : nullptr;
        if (!parseNonNegative(parts[i].substr(eq + 1), value) ||
            (ms != nullptr && !msToTicks(value, *ms))) {
            err = "fault '" + text + "': bad value in '" + parts[i] +
                  "'";
            return false;
        }
        if (ms != nullptr) {
            // A duration, converted above.
        } else if (key == "n") {
            if (value < 1) {
                err = "fault '" + text + "': n must be >= 1";
                return false;
            }
            out.count = static_cast<std::uint32_t>(value);
        } else if (key == "factor") {
            if (value <= 0.0 || value > 1.0) {
                err = "fault '" + text +
                      "': factor must be in (0, 1]";
                return false;
            }
            out.factor = value;
        } else if (key == "mb") {
            out.bytes = static_cast<Bytes>(value *
                                           static_cast<double>(units::MiB));
        } else {
            err = "fault '" + text + "': unknown option '" + key + "'";
            return false;
        }
    }

    if (out.kind == FaultKind::PreemptLockHolders && out.duration == 0) {
        err = "fault '" + text + "': preempt needs for > 0";
        return false;
    }
    if (out.kind == FaultKind::MutatorStall && out.duration == 0) {
        err = "fault '" + text + "': stall needs for > 0";
        return false;
    }
    if (out.kind == FaultKind::HeapPressure && out.bytes == 0) {
        err = "fault '" + text + "': heap needs mb > 0";
        return false;
    }
    return true;
}

bool
parseIntensity(const std::string &text, FaultPlan &out, std::string &err)
{
    double intensity = -1.0;
    std::uint64_t seed = 1;
    Ticks horizon = 2000 * units::MS;
    for (const std::string &part : splitFields(text, ':')) {
        const auto eq = part.find('=');
        const std::string key =
            eq == std::string::npos ? part : part.substr(0, eq);
        const std::string val =
            eq == std::string::npos ? "" : part.substr(eq + 1);
        double value = 0;
        if (!parseNonNegative(val, value) ||
            (key == "horizon" && !msToTicks(value, horizon))) {
            err = "intensity spec: bad value in '" + part + "'";
            return false;
        }
        if (key == "intensity") {
            intensity = value;
        } else if (key == "seed") {
            seed = static_cast<std::uint64_t>(value);
        } else if (key != "horizon") {
            err = "intensity spec: unknown option '" + key + "'";
            return false;
        }
    }
    if (intensity < 0.0 || intensity > 1.0) {
        err = "intensity must be in [0, 1]";
        return false;
    }
    out = FaultPlan::fromIntensity(intensity, seed, horizon);
    return true;
}

} // namespace

std::string
FaultSpec::describe() const
{
    std::ostringstream os;
    os << faultKindName(kind) << " @ " << formatTicks(at);
    switch (kind) {
      case FaultKind::CoreOffline:
        os << ": " << count << " core(s) offline";
        break;
      case FaultKind::CoreSlowdown:
        os << ": " << count << " core(s) at x" << factor;
        break;
      case FaultKind::PreemptLockHolders:
        os << ": " << count << " burst(s) every " << formatTicks(period)
           << ", holders held " << formatTicks(duration);
        break;
      case FaultKind::MutatorKill:
        os << ": " << count << " mutator(s) killed";
        break;
      case FaultKind::MutatorStall:
        os << ": " << count << " mutator(s) stalled "
           << formatTicks(duration);
        break;
      case FaultKind::HeapPressure:
        os << ": " << formatBytes(bytes) << " eden reservation";
        break;
      case FaultKind::GcWorkerLoss:
        os << ": " << count << " GC worker(s) lost";
        break;
    }
    if (duration > 0 && kind != FaultKind::PreemptLockHolders &&
        kind != FaultKind::MutatorStall) {
        os << ", recovers after " << formatTicks(duration);
    }
    return os.str();
}

std::string
FaultPlan::describe() const
{
    if (faults.empty())
        return "(no faults)";
    std::ostringstream os;
    for (std::size_t i = 0; i < faults.size(); ++i) {
        if (i > 0)
            os << '\n';
        os << faults[i].describe();
    }
    return os.str();
}

bool
FaultPlan::parse(const std::string &spec, FaultPlan &out,
                 std::string &err)
{
    out = FaultPlan{};
    out.spec = spec;
    if (spec.empty())
        return true;
    if (spec.rfind("intensity=", 0) == 0) {
        const bool ok = parseIntensity(spec, out, err);
        out.spec = spec;
        return ok;
    }
    for (const std::string &part : splitFields(spec, ',')) {
        FaultSpec f;
        if (!parseEvent(part, f, err))
            return false;
        out.faults.push_back(f);
    }
    // Keep the schedule sorted by injection time (stable: equal times
    // preserve spec order) so arming is reproducible regardless of how
    // the spec was written.
    std::stable_sort(out.faults.begin(), out.faults.end(),
                     [](const FaultSpec &a, const FaultSpec &b) {
                         return a.at < b.at;
                     });
    return true;
}

FaultPlan
FaultPlan::fromIntensity(double intensity, std::uint64_t seed,
                         Ticks horizon)
{
    FaultPlan plan;
    plan.spec = "intensity=" + std::to_string(intensity);
    intensity = std::clamp(intensity, 0.0, 1.0);
    if (intensity == 0.0 || horizon == 0)
        return plan;

    // Mild kinds first so low intensities degrade gently; capacity loss
    // and kills only appear as the dial rises.
    static const FaultKind kLadder[] = {
        FaultKind::CoreSlowdown,       FaultKind::PreemptLockHolders,
        FaultKind::HeapPressure,       FaultKind::MutatorStall,
        FaultKind::CoreOffline,        FaultKind::GcWorkerLoss,
        FaultKind::MutatorKill,
    };
    const std::size_t n_kinds = std::size(kLadder);
    const auto n_events = static_cast<std::size_t>(std::max(
        1.0, std::round(intensity * static_cast<double>(n_kinds))));

    std::uint64_t state = seed ^ 0xfa17'5eedULL;
    const auto unit = [&state] {
        // 53-bit mantissa draw in [0, 1).
        return static_cast<double>(splitMix64(state) >> 11) *
               0x1.0p-53;
    };

    for (std::size_t i = 0; i < n_events; ++i) {
        FaultSpec f;
        f.kind = kLadder[i % n_kinds];
        applyDefaults(f);
        // Spread injections over the horizon with +-25% slot jitter.
        const double slot = static_cast<double>(horizon) /
                            static_cast<double>(n_events + 1);
        const double base = slot * static_cast<double>(i + 1);
        f.at = static_cast<Ticks>(
            std::llround(base + slot * 0.5 * (unit() - 0.5)));
        const Ticks dwell = static_cast<Ticks>(
            std::llround(static_cast<double>(horizon) / 4.0 *
                         (0.5 + 0.5 * intensity)));
        switch (f.kind) {
          case FaultKind::CoreSlowdown:
            f.count = 1 + static_cast<std::uint32_t>(
                              std::llround(intensity * 3.0));
            f.factor = std::max(0.2, 1.0 - 0.6 * intensity);
            f.duration = dwell;
            break;
          case FaultKind::PreemptLockHolders:
            f.count = 2 + static_cast<std::uint32_t>(
                              std::llround(intensity * 6.0));
            f.period = 5 * units::MS;
            f.duration = static_cast<Ticks>(std::llround(
                (0.5 + 1.5 * intensity) * static_cast<double>(units::MS)));
            break;
          case FaultKind::HeapPressure:
            f.bytes = static_cast<Bytes>(
                (8.0 + 24.0 * intensity) *
                static_cast<double>(units::MiB));
            f.duration = dwell;
            break;
          case FaultKind::MutatorStall:
            f.count = 1 + static_cast<std::uint32_t>(
                              std::llround(intensity * 2.0));
            f.duration = static_cast<Ticks>(std::llround(
                (5.0 + 20.0 * intensity) * static_cast<double>(units::MS)));
            break;
          case FaultKind::CoreOffline:
            f.count = 1 + static_cast<std::uint32_t>(
                              std::llround(intensity * 2.0));
            f.duration = dwell;
            break;
          case FaultKind::GcWorkerLoss:
            f.count = 1 + static_cast<std::uint32_t>(
                              std::llround(intensity * 2.0));
            f.duration = dwell;
            break;
          case FaultKind::MutatorKill:
            f.count = 1;
            break;
        }
        plan.faults.push_back(f);
    }
    std::stable_sort(plan.faults.begin(), plan.faults.end(),
                     [](const FaultSpec &a, const FaultSpec &b) {
                         return a.at < b.at;
                     });
    return plan;
}

} // namespace jscale::fault
