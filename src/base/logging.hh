/**
 * @file
 * Status and error reporting helpers, modeled on the gem5 logging
 * conventions: panic() for internal invariant violations, fatal() for
 * user/configuration errors, warn()/inform() for status messages.
 */

#ifndef JSCALE_BASE_LOGGING_HH
#define JSCALE_BASE_LOGGING_HH

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>

namespace jscale {

/** Verbosity levels for runtime status messages. */
enum class LogLevel { Quiet = 0, Warn = 1, Inform = 2, Debug = 3 };

namespace detail {

/** Process-wide log verbosity; default shows warnings only. */
LogLevel &logLevel();

/** Stream used for status messages (replaceable for tests). */
std::ostream *&logStream();

/** Concatenate a pack of arguments into one string via operator<<. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream oss;
    (oss << ... << std::forward<Args>(args));
    return oss.str();
}

[[noreturn]] void panicImpl(const char *file, int line, const std::string &msg);

/**
 * Format a panic message and panic. Cold and out of line, so a check's
 * formatting stays off its caller's hot path and small asserting
 * accessors inline.
 */
template <typename... Args>
[[noreturn, gnu::cold, gnu::noinline]] void
panicWith(const char *file, int line, const Args &...args)
{
    panicImpl(file, line, concat(args...));
}
[[noreturn]] void fatalImpl(const char *file, int line, const std::string &msg);
void logImpl(LogLevel level, const char *tag, const std::string &msg);

} // namespace detail

/** Set process-wide verbosity for warn()/inform()/debugLog(). */
void setLogLevel(LogLevel level);

/** Current process-wide verbosity. */
LogLevel logLevel();

/** Redirect status messages (returns the previous stream). */
std::ostream *setLogStream(std::ostream *os);

/**
 * Report an internal invariant violation and abort. Use for conditions
 * that indicate a bug in the simulator itself, never for user error.
 */
#define jscale_panic(...) \
    ::jscale::detail::panicWith(__FILE__, __LINE__, __VA_ARGS__)

/**
 * Report an unrecoverable user/configuration error and exit(1). Use when
 * the simulation cannot continue due to bad input, not a simulator bug.
 */
#define jscale_fatal(...) \
    ::jscale::detail::fatalImpl(__FILE__, __LINE__, \
                                ::jscale::detail::concat(__VA_ARGS__))

/** Assert a simulator invariant; panics with the condition text on failure. */
#define jscale_assert(cond, ...)                                      \
    do {                                                              \
        if (!(cond)) {                                                \
            ::jscale::detail::panicWith(__FILE__, __LINE__,           \
                                        "assertion '", #cond,         \
                                        "' failed ", ##__VA_ARGS__);  \
        }                                                             \
    } while (0)

/** Emit a warning about questionable but non-fatal conditions. */
template <typename... Args>
void
warn(Args &&...args)
{
    detail::logImpl(LogLevel::Warn, "warn",
                    detail::concat(std::forward<Args>(args)...));
}

/** Emit an informational status message. */
template <typename... Args>
void
inform(Args &&...args)
{
    detail::logImpl(LogLevel::Inform, "info",
                    detail::concat(std::forward<Args>(args)...));
}

/** Emit a high-verbosity debugging message. */
template <typename... Args>
void
debugLog(Args &&...args)
{
    detail::logImpl(LogLevel::Debug, "debug",
                    detail::concat(std::forward<Args>(args)...));
}

} // namespace jscale

#endif // JSCALE_BASE_LOGGING_HH
