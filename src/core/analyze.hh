/**
 * @file
 * ScalabilityAnalyzer: derives the paper's classifications and derived
 * metrics from raw RunResults — speedups, scalable/non-scalable
 * labeling, effective worker counts (workload distribution), and
 * lifespan CDF summaries.
 */

#ifndef JSCALE_CORE_ANALYZE_HH
#define JSCALE_CORE_ANALYZE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "control/usl.hh"
#include "jvm/runtime/vm.hh"

namespace jscale::core {

/** Analysis helpers over RunResults. */
class ScalabilityAnalyzer
{
  public:
    /** Speedup of @p r relative to @p base (wall-clock). */
    static double speedup(const jvm::RunResult &base,
                          const jvm::RunResult &r);

    /** Mutator-only speedup (GC time excluded), per Fig. 2's argument. */
    static double mutatorSpeedup(const jvm::RunResult &base,
                                 const jvm::RunResult &r);

    /**
     * The paper's classification: an application is scalable when its
     * execution time keeps dropping as threads and cores are added.
     * Operationally: speedup at the largest setting >= @p threshold AND
     * the largest setting is (within 5%) the fastest point of the sweep
     * (no rebound past an earlier optimum).
     * @p sweep must be ordered by ascending thread count.
     */
    static bool isScalable(const std::vector<jvm::RunResult> &sweep,
                           double threshold = 3.0);

    /**
     * Smallest number of threads accounting for @p coverage of all
     * completed tasks (workload-distribution metric; jython reports 3-4
     * regardless of the requested thread count).
     */
    static std::uint32_t effectiveWorkers(const jvm::RunResult &r,
                                          double coverage = 0.90);

    /** Largest single-thread share of completed tasks. */
    static double topThreadShare(const jvm::RunResult &r);

    /**
     * Coefficient of variation of per-thread task counts over mutator
     * threads (0 = perfectly uniform distribution).
     */
    static double taskDistributionCv(const jvm::RunResult &r);

    /** GC share of wall time. */
    static double gcShare(const jvm::RunResult &r);

    /** Tasks per second of simulated time (0 for failed/empty runs). */
    static double throughput(const jvm::RunResult &r);

    /**
     * Fit the Universal Scalability Law to a sweep's wall-clock
     * speedups (relative to the sweep's first, lowest-thread point).
     * @p sweep must be ordered by ascending thread count.
     */
    static control::UslFit
    uslFit(const std::vector<jvm::RunResult> &sweep);

    /**
     * The observed knee: the thread count of the sweep's highest
     * speedup point (earliest on ties). For a sweep still rising at its
     * largest setting this is that largest thread count — the knee is
     * then *at or beyond* the measured range, which is how the USL
     * table should read it.
     */
    static std::uint32_t
    observedKnee(const std::vector<jvm::RunResult> &sweep);

    /** Fraction of objects with lifespan below @p threshold bytes. */
    static double lifespanFractionBelow(const jvm::RunResult &r,
                                        Bytes threshold);

    /** Mean and 95% confidence half-width of a metric over replicas. */
    struct Confidence
    {
        double mean = 0.0;
        double stddev = 0.0;
        double ci95 = 0.0;
        std::size_t n = 0;
    };

    /** Confidence summary of @p samples (normal approximation). */
    static Confidence confidence(const std::vector<double> &samples);

    /** Confidence over wall times of replicated runs. */
    static Confidence
    wallTimeConfidence(const std::vector<jvm::RunResult> &replicas);
};

} // namespace jscale::core

#endif // JSCALE_CORE_ANALYZE_HH
