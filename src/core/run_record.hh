/**
 * @file
 * RunResult codec: the exact, text-based serialization behind the shard
 * result cache.
 *
 * A "jscale-run v1" record captures every field of a RunResult that any
 * renderer or stat snapshot reads — counters, Welford summaries (their
 * internal recurrence state included), log and HDR histograms, thread
 * rows, profile and traffic sections — so a run restored from a record
 * renders byte-identically to the in-memory original. Doubles are
 * written as C hexfloats (%a) for lossless round-trips; strings are
 * backslash-escaped one-liners.
 *
 * Records are keyed by the run's point key and bound to the
 * campaign fingerprint: a reader rejects records from a differently
 * configured campaign instead of silently mixing incompatible results.
 */

#ifndef JSCALE_CORE_RUN_RECORD_HH
#define JSCALE_CORE_RUN_RECORD_HH

#include <iosfwd>
#include <string>

#include "jvm/runtime/vm.hh"

namespace jscale::core {

/** Backslash-escape newlines, carriage returns and backslashes, so
 *  @p s fits on one record line. */
std::string escapeLine(const std::string &s);

/** Inverse of escapeLine(). */
std::string unescapeLine(const std::string &s);

/** Serialize @p r as a complete "jscale-run v1" record. */
void writeRunRecord(std::ostream &os, const std::string &key,
                    const std::string &fingerprint,
                    const jvm::RunResult &r);

/**
 * Parse one record. Fails (returning false with @p err) on a missing
 * or wrong version header, a key or fingerprint mismatch, a malformed
 * or out-of-range field, an implausibly large element count, or a
 * record missing its newline-terminated "end" trailer (torn write).
 * Never throws. @p out is only valid when true is returned.
 */
bool readRunRecord(std::istream &is, const std::string &expect_key,
                   const std::string &expect_fingerprint,
                   jvm::RunResult &out, std::string &err);

} // namespace jscale::core

#endif // JSCALE_CORE_RUN_RECORD_HH
