/**
 * @file
 * RandomApp: a seeded random application generator shared by the
 * randomized property tests and the fuzz driver.
 *
 * Each thread executes a pre-generated balanced script of compute,
 * allocation bursts, ordered nested locking, channel round-trips and
 * pinned allocations drawn from a seeded stream. The scripts are
 * protocol-correct by construction — locks acquire in ascending id
 * order (no deadlocks) and release before the next acquisition round,
 * channel permits always return — so any failure an armed oracle
 * reports is a simulator bug, not a workload bug. The same seed always
 * produces the same application, which makes shrunk fuzz failures
 * replayable from a one-line reproducer.
 */

#ifndef JSCALE_CHECK_RANDOM_APP_HH
#define JSCALE_CHECK_RANDOM_APP_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "base/random.hh"
#include "base/units.hh"
#include "jvm/runtime/app.hh"

namespace jscale::check {

/**
 * A randomized application: each thread executes a random script of
 * balanced actions drawn from a seeded stream. Task volume and locking
 * vary per seed, covering interleavings hand-written tests never reach.
 */
class RandomApp : public jvm::ApplicationModel
{
  public:
    RandomApp(std::uint64_t seed, std::uint32_t monitors,
              std::uint32_t tasks)
        : seed_(seed), n_monitors_(monitors), tasks_(tasks)
    {}

    std::string appName() const override { return "random-app"; }

    void
    setup(jvm::AppContext &ctx) override
    {
        monitors_.clear();
        for (std::uint32_t i = 0; i < n_monitors_; ++i) {
            std::string name = "m";
            name += std::to_string(i); // not "m" + ...: GCC 12 -Wrestrict
            monitors_.push_back(ctx.createMonitor(name));
        }
        channel_ = ctx.createChannel("permits", /*permits=*/3);
    }

    std::unique_ptr<jvm::ActionSource>
    threadSource(std::uint32_t idx, jvm::AppContext &) override
    {
        return std::make_unique<Src>(*this, Rng(seed_ * 977 + idx));
    }

  private:
    class Src : public jvm::ActionSource
    {
      public:
        Src(const RandomApp &app, Rng rng)
        {
            using jvm::Action;
            // Pre-generate a balanced random script. Locks are always
            // acquired in ascending id order (no deadlocks) and
            // released before the next acquisition round.
            for (std::uint32_t t = 0; t < app.tasks_; ++t) {
                const int shape = static_cast<int>(rng.below(5));
                switch (shape) {
                  case 0: // pure compute
                    script_.push_back(Action::compute(
                        1 + rng.below(40 * units::US)));
                    break;
                  case 1: { // allocation burst
                    const int n = 1 + static_cast<int>(rng.below(8));
                    for (int i = 0; i < n; ++i) {
                        script_.push_back(Action::allocate(
                            16 + rng.below(2048), rng.below(16384)));
                    }
                    break;
                  }
                  case 2: { // nested ordered locks around work
                    const std::size_t first =
                        rng.below(app.monitors_.size());
                    const bool two =
                        rng.chance(0.4) &&
                        first + 1 < app.monitors_.size();
                    script_.push_back(
                        Action::monitorEnter(app.monitors_[first]));
                    if (two) {
                        script_.push_back(Action::monitorEnter(
                            app.monitors_[first + 1]));
                    }
                    script_.push_back(Action::compute(
                        1 + rng.below(4 * units::US)));
                    if (two) {
                        script_.push_back(Action::monitorExit(
                            app.monitors_[first + 1]));
                    }
                    script_.push_back(
                        Action::monitorExit(app.monitors_[first]));
                    break;
                  }
                  case 3: // channel round-trip (bounded: permits return)
                    script_.push_back(
                        Action::channelAcquire(app.channel_));
                    script_.push_back(Action::compute(
                        1 + rng.below(2 * units::US)));
                    script_.push_back(Action::channelPost(app.channel_));
                    break;
                  default: // pinned data
                    script_.push_back(Action::allocatePinned(
                        64 + rng.below(1024)));
                    break;
                }
                script_.push_back(Action::taskDone());
            }
            script_.push_back(Action::end());
        }

        const jvm::Action &
        next() override
        {
            return script_[pos_ < script_.size() ? pos_++
                                                 : script_.size() - 1];
        }

      private:
        std::vector<jvm::Action> script_;
        std::size_t pos_ = 0;
    };

    std::uint64_t seed_;
    std::uint32_t n_monitors_;
    std::uint32_t tasks_;
    std::vector<jvm::MonitorId> monitors_;
    jvm::ChannelId channel_ = 0;
};

} // namespace jscale::check

#endif // JSCALE_CHECK_RANDOM_APP_HH
