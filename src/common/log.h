/**
 * @file
 * Minimal logging / error-termination helpers in the gem5 spirit:
 * fatal() for user errors, panic() for internal invariant violations.
 */

#ifndef GPUSHIELD_COMMON_LOG_H
#define GPUSHIELD_COMMON_LOG_H

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace gpushield {

/**
 * Recoverable simulation failure (cycle-budget exhaustion, scheduler
 * deadlock, malformed sweep cell). Unlike fatal()/panic(), these are
 * thrown so a harness can record a structured failure for one run and
 * keep the rest of a sweep alive.
 */
class SimulationError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

namespace detail {

[[noreturn]] inline void
die(const char *kind, const std::string &msg, bool abort_process)
{
    std::fprintf(stderr, "%s: %s\n", kind, msg.c_str());
    if (abort_process)
        std::abort();
    std::exit(1);
}

} // namespace detail

/**
 * Terminates the process due to a user-level error (bad configuration,
 * invalid workload parameters). Exits with status 1.
 */
[[noreturn]] inline void
fatal(const std::string &msg)
{
    detail::die("fatal", msg, /*abort_process=*/false);
}

/**
 * Terminates the process due to an internal simulator bug. Calls abort()
 * so that a core dump / debugger break is possible.
 */
[[noreturn]] inline void
panic(const std::string &msg)
{
    detail::die("panic", msg, /*abort_process=*/true);
}

} // namespace gpushield

#endif // GPUSHIELD_COMMON_LOG_H
