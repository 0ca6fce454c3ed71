/**
 * @file
 * Status and error reporting in the gem5 style: panic() for internal
 * invariant violations, fatal() for user/configuration errors, warn()
 * and inform() for non-fatal diagnostics.
 *
 * Thread safety: every macro may be called from host worker threads
 * (see src/host). Lines are emitted atomically (never interleaved
 * mid-line), but the relative order of lines from concurrent workers
 * is unspecified — deterministic artifacts (JSON reports, tables)
 * must go through their renderers, never through this logger.
 */
#ifndef DIAG_COMMON_LOG_HPP
#define DIAG_COMMON_LOG_HPP

#include <cstdio>
#include <cstdlib>
#include <string>

namespace diag
{

namespace detail
{
/** Format a printf-style message into a std::string. */
std::string vformat(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);
} // namespace detail

} // namespace diag

/**
 * Report an internal simulator bug (a condition that should never occur
 * regardless of user input) and abort.
 */
#define panic(...) \
    ::diag::detail::panicImpl(__FILE__, __LINE__, \
                              ::diag::detail::vformat(__VA_ARGS__))

/**
 * Report an unrecoverable user-level error (bad configuration, malformed
 * input) and exit(1).
 */
#define fatal(...) \
    ::diag::detail::fatalImpl(::diag::detail::vformat(__VA_ARGS__))

/** Report suspicious but survivable conditions. */
#define warn(...) \
    ::diag::detail::warnImpl(::diag::detail::vformat(__VA_ARGS__))

/** Report normal operating status; callers decide whether to narrate. */
#define inform(...) \
    ::diag::detail::informImpl(::diag::detail::vformat(__VA_ARGS__))

/** panic() unless @p cond holds. */
#define panic_if(cond, ...) \
    do { \
        if (cond) \
            panic(__VA_ARGS__); \
    } while (0)

/** fatal() unless @p cond holds. */
#define fatal_if(cond, ...) \
    do { \
        if (cond) \
            fatal(__VA_ARGS__); \
    } while (0)

#endif // DIAG_COMMON_LOG_HPP
