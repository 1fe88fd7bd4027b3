#include "control/governor.hh"

#include <algorithm>
#include <cmath>

#include "base/logging.hh"
#include "jvm/runtime/vm.hh"
#include "jvm/threads/mutator.hh"
#include "os/scheduler.hh"
#include "sim/simulation.hh"

namespace jscale::control {

const char *
governorModeName(GovernorMode mode)
{
    constexpr const char *kNames[kGovernorModes] = {"off", "hill", "usl"};
    return kNames[static_cast<std::size_t>(mode)];
}

ConcurrencyGovernor::ConcurrencyGovernor(sim::Simulation &sim,
                                         jvm::JavaVm &vm,
                                         const GovernorConfig &config)
    : sim_(sim), vm_(vm), config_(config)
{
    jscale_assert(config_.interval > 0,
                  "governor interval must be positive");
    jscale_assert(config_.calib_ticks_per_level >= 1,
                  "calibration needs at least one tick per level");
    tick_event_ = std::make_unique<sim::RecurringEvent>(
        sim_.queue(), static_cast<TickDelta>(config_.interval),
        [this] { decide(); }, "governor-decide");
}

ConcurrencyGovernor::~ConcurrencyGovernor() = default;

void
ConcurrencyGovernor::setTarget(std::uint32_t t)
{
    const std::uint32_t floor =
        std::max<std::uint32_t>(config_.min_active, 1);
    target_ = std::clamp(t, floor, n_threads_);
    min_target_seen_ = std::min(min_target_seen_, target_);
    max_target_seen_ = std::max(max_target_seen_, target_);
}

void
ConcurrencyGovernor::onRunStart(std::uint32_t n_threads, Ticks now)
{
    n_threads_ = n_threads;
    live_ = n_threads;
    start_online_ = vm_.scheduler().onlineCores();

    std::uint32_t initial = n_threads;
    switch (config_.mode) {
      case GovernorMode::Off:
        break;
      case GovernorMode::HillClimb:
        // First probe moves downward with a coarse step: restriction is
        // the direction that pays off on collapsing workloads, and a
        // too-low probe is corrected within two intervals.
        direction_ = -1;
        step_ = std::max<std::uint32_t>(1, n_threads / 4);
        break;
      case GovernorMode::UslGuided:
        // Calibration ladder: powers of two up to the full complement.
        calib_levels_.clear();
        for (std::uint32_t l = 1; l < n_threads; l *= 2)
            calib_levels_.push_back(l);
        calib_levels_.push_back(n_threads);
        calib_tput_.assign(calib_levels_.size(), 0);
        calib_level_idx_ = 0;
        calib_ticks_at_level_ = 0;
        initial = calib_levels_.front();
        break;
    }
    min_target_seen_ = max_target_seen_ =
        std::clamp(initial, std::max<std::uint32_t>(config_.min_active, 1),
                   n_threads_);
    setTarget(initial);

    last_tasks_ = vm_.tasksCompleted();
    last_gc_pause_ = vm_.gcPauseSoFar();
    last_lock_block_ = vm_.monitors().totalBlockTime();
    if (config_.mode != GovernorMode::Off)
        tick_event_->start(now + config_.interval);
}

bool
ConcurrencyGovernor::admitTask(jvm::MutatorThread &t, Ticks now)
{
    (void)now;
    if (config_.mode == GovernorMode::Off)
        return true;
    const std::uint32_t floor =
        std::max<std::uint32_t>(config_.min_active, 1);
    // Park only while doing so leaves at least max(target, floor)
    // admitted mutators — the floor guarantees the last runnable
    // mutator is never parked.
    if (admitted() <= std::max(target_, floor))
        return true;
    parked_.push_back(&t);
    ++parks_;
    vm_.scheduler().noteAdmissionPark(t.osThread());
    return false;
}

void
ConcurrencyGovernor::onMutatorFinished(jvm::MutatorThread &t, Ticks now)
{
    (void)now;
    jscale_assert(std::find(parked_.begin(), parked_.end(), &t) ==
                      parked_.end(),
                  "a parked mutator cannot finish");
    jscale_assert(live_ > 0, "mutator finish underflow");
    --live_;
    // Backfill the freed slot immediately so the admitted population
    // never idles below target while work remains.
    unparkToTarget();
}

bool
ConcurrencyGovernor::cancelPark(jvm::MutatorThread &t, Ticks now)
{
    (void)now;
    const auto it = std::find(parked_.begin(), parked_.end(), &t);
    if (it == parked_.end())
        return false;
    parked_.erase(it);
    ++unparks_;
    // Wake through the admission API so the scheduler's park/unpark
    // counters stay balanced; the caller kills the thread at its next
    // burst.
    vm_.scheduler().unparkAdmitted(t.osThread());
    return true;
}

void
ConcurrencyGovernor::unparkToTarget()
{
    while (!parked_.empty() && admitted() < target_) {
        jvm::MutatorThread *t = parked_.front();
        parked_.pop_front();
        ++unparks_;
        vm_.scheduler().unparkAdmitted(t->osThread());
    }
}

void
ConcurrencyGovernor::decide()
{
    const Ticks now = sim_.now();

    // Interval deltas of the three sampled signals.
    const std::uint64_t tasks = vm_.tasksCompleted();
    const std::uint64_t tput = tasks - last_tasks_;
    last_tasks_ = tasks;
    const Ticks gc_pause = vm_.gcPauseSoFar();
    const Ticks gc_delta = gc_pause - last_gc_pause_;
    last_gc_pause_ = gc_pause;
    const Ticks lock_block = vm_.monitors().totalBlockTime();
    const Ticks lock_delta = lock_block - last_lock_block_;
    last_lock_block_ = lock_block;

    // GC share of the interval's wall time plus lock-block share of the
    // admitted threads' aggregate CPU capacity — the paper's two loss
    // channels, folded into one overload signal.
    const double wall = static_cast<double>(config_.interval);
    const double gc_share =
        std::min(1.0, static_cast<double>(gc_delta) / wall);
    const double capacity =
        wall * static_cast<double>(std::max<std::uint32_t>(admitted(), 1));
    const double lock_share =
        std::min(1.0, static_cast<double>(lock_delta) / capacity);
    const double pressure = gc_share + lock_share;

    ++decisions_;
    switch (config_.mode) {
      case GovernorMode::Off:
        break;
      case GovernorMode::HillClimb:
        decideHillClimb(tput, pressure);
        break;
      case GovernorMode::UslGuided:
        decideUslGuided(tput);
        break;
    }
    // Capacity-aware re-targeting: when cores were lost at runtime
    // (fault injection) there is no point admitting more mutators than
    // online cores — drop the target with the capacity. Only engages
    // after an actual loss so unfaulted runs are untouched.
    const std::uint32_t online = vm_.scheduler().onlineCores();
    if (config_.mode != GovernorMode::Off && online < start_online_ &&
        target_ > online) {
        setTarget(online);
    }
    unparkToTarget();
    prev_tput_ = tput;

    vm_.listeners().dispatch([&](jvm::RuntimeListener &l) {
        l.onGovernorDecision(target_, admitted(), parkedCount(), tput,
                             now);
    });
}

void
ConcurrencyGovernor::decideHillClimb(std::uint64_t tput, double pressure)
{
    if (!have_baseline_) {
        // The first interval only establishes the throughput baseline.
        have_baseline_ = true;
        return;
    }
    if (tput == 0) {
        // Starved: every admitted thread is stuck (e.g. behind a parked
        // pipeline stage or a long collection). Widening is the only
        // move that can restore progress — and it must not be blocked
        // by the pressure heuristic below.
        direction_ = +1;
        step_ = std::max<std::uint32_t>(step_, 1);
    } else if (pressure > config_.pressure_limit) {
        // Losses dominate the interval: restrict regardless of the
        // local throughput gradient.
        direction_ = -1;
    } else if (static_cast<double>(tput) <
               static_cast<double>(prev_tput_) *
                   (1.0 - config_.tolerance)) {
        // The last move regressed throughput: reverse and refine.
        direction_ = -direction_;
        step_ = std::max<std::uint32_t>(1, step_ / 2);
    }
    // Within the deadband (or improving): keep moving the same way.
    std::int64_t moved = static_cast<std::int64_t>(target_) +
                         static_cast<std::int64_t>(direction_) *
                             static_cast<std::int64_t>(step_);
    moved = std::max<std::int64_t>(moved, 1);
    setTarget(static_cast<std::uint32_t>(moved));
}

void
ConcurrencyGovernor::decideUslGuided(std::uint64_t tput)
{
    if (calibrated_)
        return; // the fitted clamp holds for the rest of the run
    ++calib_ticks_at_level_;
    if (calib_ticks_at_level_ < config_.calib_ticks_per_level)
        return; // settling interval at this level
    calib_tput_[calib_level_idx_] = tput;
    ++calib_level_idx_;
    calib_ticks_at_level_ = 0;
    if (calib_level_idx_ < calib_levels_.size()) {
        setTarget(calib_levels_[calib_level_idx_]);
        return;
    }

    // Ladder complete: normalize to the single-thread level and fit.
    calibrated_ = true;
    if (calib_tput_.front() == 0) {
        // No usable baseline (the run barely started); fail open.
        setTarget(n_threads_);
        return;
    }
    std::vector<UslPoint> pts;
    pts.reserve(calib_levels_.size());
    const double base = static_cast<double>(calib_tput_.front());
    for (std::size_t i = 0; i < calib_levels_.size(); ++i) {
        pts.push_back({static_cast<double>(calib_levels_[i]),
                       static_cast<double>(calib_tput_[i]) / base});
    }
    fit_ = UslModel::fit(pts);
    if (!fit_.valid || fit_.n_star <= 0.0) {
        // Unfittable or no interior peak within any finite n: run wide.
        setTarget(n_threads_);
        return;
    }
    setTarget(static_cast<std::uint32_t>(
        std::lround(std::max(fit_.n_star, 1.0))));
}

void
ConcurrencyGovernor::onRunEnd(Ticks now)
{
    (void)now;
    tick_event_->stop();
    jscale_assert(parked_.empty(),
                  "run ended with admission-parked mutators");
    jscale_assert(unparks_ == parks_,
                  "park/unpark bookkeeping out of balance at run end");
}

void
ConcurrencyGovernor::summarize(jvm::GovernorSummary &out) const
{
    out.enabled = config_.mode != GovernorMode::Off;
    out.policy = governorModeName(config_.mode);
    out.final_target = target_;
    out.min_target = min_target_seen_;
    out.max_target = max_target_seen_;
    out.decisions = decisions_;
    out.parks = parks_;
    out.unparks = unparks_;
    if (fit_.valid) {
        out.usl_sigma = fit_.sigma;
        out.usl_kappa = fit_.kappa;
        out.usl_nstar = fit_.n_star;
    }
}

} // namespace jscale::control
