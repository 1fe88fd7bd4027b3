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
        return std::make_unique<jvm::ScriptSource>(
            script(Rng(seed_ * 977 + idx)));
    }

  private:
    /**
     * A balanced random script. Locks are always acquired in ascending
     * id order (no deadlocks) and released before the next acquisition
     * round.
     */
    std::vector<jvm::Action>
    script(Rng rng) const
    {
        using jvm::Action;
        std::vector<Action> script;
        for (std::uint32_t t = 0; t < tasks_; ++t) {
            const int shape = static_cast<int>(rng.below(5));
            switch (shape) {
              case 0: // pure compute
                script.push_back(Action::compute(
                    1 + rng.below(40 * units::US)));
                break;
              case 1: { // allocation burst
                const int n = 1 + static_cast<int>(rng.below(8));
                for (int i = 0; i < n; ++i) {
                    // TTL first: the draw order of every recorded case.
                    const Bytes ttl = rng.below(16384);
                    const Bytes size = 16 + rng.below(2048);
                    script.push_back(Action::allocate(size, ttl));
                }
                break;
              }
              case 2: { // nested ordered locks around work
                const std::size_t first = rng.below(monitors_.size());
                const bool two =
                    rng.chance(0.4) && first + 1 < monitors_.size();
                script.push_back(Action::monitorEnter(monitors_[first]));
                if (two) {
                    script.push_back(Action::monitorEnter(
                        monitors_[first + 1]));
                }
                script.push_back(Action::compute(
                    1 + rng.below(4 * units::US)));
                if (two) {
                    script.push_back(Action::monitorExit(
                        monitors_[first + 1]));
                }
                script.push_back(Action::monitorExit(monitors_[first]));
                break;
              }
              case 3: // channel round-trip (bounded: permits return)
                script.push_back(Action::channelAcquire(channel_));
                script.push_back(Action::compute(
                    1 + rng.below(2 * units::US)));
                script.push_back(Action::channelPost(channel_));
                break;
              default: // pinned data
                script.push_back(
                    Action::allocatePinned(64 + rng.below(1024)));
                break;
            }
            script.push_back(Action::taskDone());
        }
        return script;
    }

    std::uint64_t seed_;
    std::uint32_t n_monitors_;
    std::uint32_t tasks_;
    std::vector<jvm::MonitorId> monitors_;
    jvm::ChannelId channel_ = 0;
};

} // namespace jscale::check

#endif // JSCALE_CHECK_RANDOM_APP_HH
