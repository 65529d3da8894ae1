/**
 * @file
 * The `prophet` CLI's process exit codes. One enum, one help blurb,
 * one ErrorCode mapping: the documented list cannot drift from what
 * the commands return because --help prints, and every command
 * computes its exit from, this module.
 */

#ifndef PROPHET_COMMON_EXIT_CODES_HH
#define PROPHET_COMMON_EXIT_CODES_HH

#include "common/error.hh"

namespace prophet
{

/** Documented process exit codes (1 is left to the OS/sanitizers). */
enum class ExitCode : int
{
    Success = 0,        ///< everything ran and every sink wrote
    Usage = 2,          ///< bad command line
    SpecInvalid = 3,    ///< spec parse/validation error
    RuntimeFailure = 4, ///< a job or sink failed
    PartialFailure = 5, ///< keep-going: some jobs failed, rest wrote
    Interrupted = 6,    ///< a signal drained the run
};

/** The canonical --help "exit codes:" block. Ends with a newline. */
const char *exitCodesHelp();

/**
 * The exit code a structured error maps onto: spec problems are the
 * documented spec-error code, cooperative cancellation is the
 * interrupt code, everything else is a runtime failure.
 */
ExitCode exitCodeForError(ErrorCode code);

} // namespace prophet

#endif // PROPHET_COMMON_EXIT_CODES_HH
