/**
 * @file
 * E21 — open-system tail latency: p99 sojourn vs. offered load vs.
 * thread count, and what admission control buys back.
 *
 * Closed-loop experiments (E1..E20) measure completion time of a fixed
 * work volume; an open system instead faces an arrival process that
 * does not slow down when the server saturates. This study measures,
 * per (app, threads):
 *
 *   1. the closed-loop capacity (tasks/s with the task pool always
 *      full) — the service rate the arrival ladder is scaled against;
 *   2. open-loop runs at an offered-load ladder (fractions of that
 *      capacity), recording p50/p99/p999 of the sojourn time and its
 *      exact decomposition into queueing delay + attributed service
 *      buckets;
 *   3. the offered-load *knee*: the smallest rung whose p99 sojourn is
 *      at least `knee_ratio` times the p99 half a ladder-step below —
 *      the open-system signature of saturation, which arrives well
 *      before throughput collapses;
 *   4. governed and biased-scheduling arms at the top rungs, comparing
 *      tail latency (not throughput) against the ungoverned baseline —
 *      the paper's remedies re-evaluated on the metric open systems
 *      actually care about.
 */

#ifndef JSCALE_CORE_TRAFFIC_STUDY_HH
#define JSCALE_CORE_TRAFFIC_STUDY_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "base/output.hh"
#include "core/experiment.hh"
#include "jvm/runtime/vm.hh"

namespace jscale::core {

/** Configuration of the E21 traffic study. */
struct TrafficStudyConfig
{
    /** Apps on the study's rows. */
    std::vector<std::string> apps = {"sunflow", "h2", "jython"};
    /** Thread counts per app (clipped to the machine). */
    std::vector<std::uint32_t> threads = {8, 16};
    /** Offered-load ladder, as fractions of closed-loop capacity. */
    std::vector<double> load_factors = {0.25, 0.5, 1.0, 2.0};
    /** Requests per open-loop run. */
    std::uint64_t requests = 2000;
    /** p99 growth ratio between adjacent rungs that marks the knee. */
    double knee_ratio = 5.0;
    /** Re-run the top two rungs with the HillClimb governor. */
    bool governed_arm = true;
    /** Re-run the top two rungs with biased (phase-staggered)
     *  scheduling. */
    bool biased_arm = true;
    /**
     * Base campaign settings (machine, seed, scale). The study forces
     * the arrival spec per rung and the governor / biased flags per
     * arm; everything else passes through.
     */
    ExperimentConfig base;
};

/** Closed-loop capacity of one (app, threads) cell. */
struct TrafficCapacity
{
    std::string app;
    std::uint32_t threads = 0;
    /** Tasks per second with the task pool always full. */
    double rate = 0.0;
};

/** One open-loop run of the study. */
struct TrafficPoint
{
    std::string app;
    std::uint32_t threads = 0;
    /** Rung of the ladder (fraction of closed-loop capacity). */
    double load_factor = 0.0;
    /** Offered arrival rate (req/s) this rung resolves to. */
    double offered_rate = 0.0;
    /** "open", "governed" or "biased". */
    std::string arm;
    jvm::RunResult run;
};

/** One cell's detected knee. */
struct TrafficKnee
{
    std::string app;
    std::uint32_t threads = 0;
    /** Smallest rung with p99 >= knee_ratio x p99(previous rung);
     *  0 = no knee inside the ladder. */
    double knee_factor = 0.0;
    /** p99 sojourn at the knee rung and the rung below it. */
    Ticks p99_at_knee = 0;
    Ticks p99_below = 0;
};

/** The full study result. */
struct TrafficStudy
{
    std::vector<TrafficCapacity> capacities;
    /** Runs in (app, threads, arm, ascending load) order. */
    std::vector<TrafficPoint> points;
    std::vector<TrafficKnee> knees;
};

/** Run the study: every cell's capacity run as one batch, then every
 *  rung and remedy arm of the cells with a capacity as a second. */
TrafficStudy runTrafficStudy(const TrafficStudyConfig &config);

/** Aligned-text report: capacities, the ladder and the knees. */
void printTrafficStudyTable(std::ostream &os, const TrafficStudy &study);

/**
 * The ladder's table, one row per open-loop run; a point without
 * traffic data shows only its key and status in the text.
 */
TextTable trafficStudyTable(const TrafficStudy &study);

} // namespace jscale::core

#endif // JSCALE_CORE_TRAFFIC_STUDY_HH
