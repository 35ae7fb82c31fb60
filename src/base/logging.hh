/**
 * @file
 * Status-message and error-reporting helpers, following the gem5
 * panic()/fatal()/warn()/inform() convention.
 *
 * panic() is for internal invariant violations (library bugs): it
 * aborts. fatal() is for unrecoverable user errors (bad configuration,
 * invalid arguments): it exits with status 1. warn() and inform() are
 * non-fatal status channels.
 */

#ifndef TDFE_BASE_LOGGING_HH
#define TDFE_BASE_LOGGING_HH

#include <atomic>
#include <sstream>
#include <string>

namespace tdfe
{

/** Severity levels used by the logging backend. */
enum class LogLevel
{
    Inform,
    Warn,
    Fatal,
    Panic,
};

namespace detail
{

/** Concatenate a parameter pack into one message string. */
template <typename... Args>
std::string
concatMessage(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

/** Emit one log record to stderr (Inform/Warn) and terminate when
 *  the level is Fatal (exit(1)) or Panic (abort()). */
[[gnu::cold]] void emitLog(LogLevel level, const char *file, int line,
                           const std::string &message);

/** As emitLog for terminal levels; never returns. */
[[noreturn, gnu::cold]] void emitTerminal(LogLevel level,
                                          const char *file, int line,
                                          const std::string &message);

} // namespace detail

/** Suppress (or re-enable) Inform/Warn output, e.g. in benchmarks. */
void setLogQuiet(bool quiet);

/** @return true if Inform/Warn output is currently suppressed. */
bool logQuiet();

/**
 * One-shot degrade warning: the shared convention behind every
 * "warn once, then stay quiet" sticky-degrade path (store writer
 * failure, checkpoint degrade, comm watchdog).
 *
 * The first caller to flip @p fired warns with @p message and
 * counts one `degrade_total.<subsystem>` metric (obs::addDegrade);
 * later calls are silent no-ops. @p fired is the caller's latch —
 * typically a member next to the degraded state it describes — so
 * independent subsystems (or writer instances) each warn once.
 *
 * @return true when this call fired (useful for extra bookkeeping
 * the caller wants to do exactly once).
 */
bool warnOnce(std::atomic<bool> &fired, const char *subsystem,
              const std::string &message);

/**
 * As warnOnce but for sites that already guard one-shot-ness
 * themselves (e.g. behind an existing degraded flag + mutex): warn
 * unconditionally and count the `degrade_total.<subsystem>` metric.
 */
void warnDegraded(const char *subsystem, const std::string &message);

} // namespace tdfe

/**
 * Report an internal library bug and abort. Use only for conditions
 * that cannot be caused by user input.
 */
#define TDFE_PANIC(...)                                                 \
    ::tdfe::detail::emitTerminal(                                       \
        ::tdfe::LogLevel::Panic, __FILE__, __LINE__,                    \
        ::tdfe::detail::concatMessage(__VA_ARGS__))

/** Report an unrecoverable user-facing error and exit(1). */
#define TDFE_FATAL(...)                                                 \
    ::tdfe::detail::emitTerminal(                                       \
        ::tdfe::LogLevel::Fatal, __FILE__, __LINE__,                    \
        ::tdfe::detail::concatMessage(__VA_ARGS__))

/** Report a suspicious-but-survivable condition. */
#define TDFE_WARN(...)                                                  \
    ::tdfe::detail::emitLog(::tdfe::LogLevel::Warn, __FILE__, __LINE__, \
                            ::tdfe::detail::concatMessage(__VA_ARGS__))

/** Report normal operating status. */
#define TDFE_INFORM(...)                                                \
    ::tdfe::detail::emitLog(::tdfe::LogLevel::Inform, __FILE__,         \
                            __LINE__,                                   \
                            ::tdfe::detail::concatMessage(__VA_ARGS__))

/** Panic unless @p cond holds; message describes the invariant. */
#define TDFE_ASSERT(cond, ...)                                          \
    do {                                                                \
        if (!(cond)) {                                                  \
            TDFE_PANIC("assertion failed: ", #cond, ": ",               \
                       ::tdfe::detail::concatMessage(__VA_ARGS__));     \
        }                                                               \
    } while (0)

#endif // TDFE_BASE_LOGGING_HH
