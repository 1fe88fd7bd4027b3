/**
 * @file
 * Calibrated models of the paper's six DaCapo-9.12 applications.
 *
 * The factory returns WorkloadApps whose concurrency structure,
 * locking profile and allocation behaviour reproduce each benchmark's
 * published characteristics at the fidelity the study needs:
 *
 *  - sunflow  (scalable): embarrassingly parallel raytracing; heavy
 *    per-task compute, tiny short-lived allocations, light shared state.
 *  - lusearch (scalable): parallel text queries over a shared index;
 *    striped index-cache locks with skewed popularity.
 *  - xalan    (scalable): parallel XSLT transforms; allocation-heavy,
 *    contended shared output buffer + DTM cache.
 *  - h2       (non-scalable): transactions serialized by a coarse
 *    database lock with long critical sections.
 *  - eclipse  (non-scalable): fixed-width compile pipeline; long-lived
 *    AST/index data; thread-count-insensitive allocator set.
 *  - jython   (non-scalable): interpreter-lock runtime using at most
 *    3-4 worker threads regardless of the requested count.
 */

#ifndef JSCALE_WORKLOAD_DACAPO_HH
#define JSCALE_WORKLOAD_DACAPO_HH

#include <memory>
#include <string>
#include <vector>

#include "workload/source.hh"

namespace jscale::workload {

/** Names of the six modeled applications, paper order. */
const std::vector<std::string> &dacapoAppNames();

/** Whether the paper classifies @p name as scalable. */
bool dacapoExpectedScalable(const std::string &name);

/**
 * Build the model for @p name ("sunflow", "lusearch", "xalan", "h2",
 * "eclipse", "jython", plus the non-DaCapo "hotlock" E19
 * microbenchmark). @p scale multiplies the fixed work volume
 * (task/unit/transaction counts) without changing the live footprint.
 * Fatal on an unknown name.
 */
std::unique_ptr<WorkloadApp> makeDacapoApp(const std::string &name,
                                           double scale = 1.0);

} // namespace jscale::workload

#endif // JSCALE_WORKLOAD_DACAPO_HH
