#include "fault/fault.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "base/random.hh"

namespace jscale::fault {

namespace {

/** Spec-grammar names, in FaultKind order. */
constexpr const char *kKindNames[] = {"coreoff", "slow",  "preempt",
                                      "kill",    "stall", "heap",
                                      "gcworkers"};

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
    using F = Field<FaultSpec>;
    static const F kind = F::choice("kind", &FaultSpec::kind, faultKindName,
                                    std::size(kKindNames));
    static const F at = F::millis("injection time", &FaultSpec::at);
    const SpecText spec{"fault", text};
    const auto at_pos = text.find('@');
    if (at_pos == std::string::npos) {
        err = spec.diagnose("missing '@<time-ms>'");
        return false;
    }
    if (!readField(spec, kind, text.substr(0, at_pos), out, err))
        return false;
    applyDefaults(out);
    const std::vector<std::string> parts =
        splitFields(text.substr(at_pos + 1), ':');
    if (!readField(spec, at, parts[0], out, err) ||
        !readFields(spec, {parts.begin() + 1, parts.end()}, faultFields(),
                    out, err))
        return false;

    const char *need = nullptr;
    if (out.kind == FaultKind::PreemptLockHolders && out.duration == 0)
        need = "preempt needs for > 0";
    else if (out.kind == FaultKind::MutatorStall && out.duration == 0)
        need = "stall needs for > 0";
    else if (out.kind == FaultKind::HeapPressure && out.bytes == 0)
        need = "heap needs mb > 0";
    if (need != nullptr)
        err = spec.diagnose(need);
    return need == nullptr;
}

} // namespace

const char *
faultKindName(FaultKind kind)
{
    return kKindNames[static_cast<std::size_t>(kind)];
}

const FieldTable<FaultSpec> &
faultFields()
{
    using F = Field<FaultSpec>;
    static const FieldTable<FaultSpec> table = {
        F::number("n", &FaultSpec::count, 1),
        F::number("factor", &FaultSpec::factor, kPositive, 1.0),
        F::scaled("mb", &FaultSpec::bytes, units::MiB, false, false,
                  "a MiB size below 2^64 bytes"),
        F::millis("for", &FaultSpec::duration),
        F::millis("every", &FaultSpec::period),
    };
    return table;
}

const FieldTable<IntensityDial> &
intensityFields()
{
    using F = Field<IntensityDial>;
    static const FieldTable<IntensityDial> table = {
        F::number("intensity", &IntensityDial::intensity, 0.0, 1.0).require(),
        F::number("seed", &IntensityDial::seed, 0),
        F::millis("horizon", &IntensityDial::horizon),
    };
    return table;
}

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
        IntensityDial dial;
        if (!readFields(SpecText{"intensity spec", spec},
                        splitFields(spec, ':'), intensityFields(), dial, err))
            return false;
        out = FaultPlan::fromIntensity(dial.intensity, dial.seed,
                                       dial.horizon);
        out.spec = spec;
        return true;
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
