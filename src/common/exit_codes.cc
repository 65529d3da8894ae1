#include "common/exit_codes.hh"

namespace prophet
{

const char *
exitCodesHelp()
{
    return "exit codes:\n"
           "  0  success\n"
           "  2  usage error\n"
           "  3  spec parse/validation error\n"
           "  4  runtime failure (job, pipeline, or sink)\n"
           "  5  partial failure (--keep-going: some jobs failed,\n"
           "     the rest completed)\n"
           "  6  interrupted (SIGINT/SIGTERM drained the run;\n"
           "     completed jobs are in the result store, so\n"
           "     rerunning the same command continues)\n";
}

ExitCode
exitCodeForError(ErrorCode code)
{
    switch (code) {
      case ErrorCode::Ok:
        return ExitCode::Success;
      case ErrorCode::SpecParse:
        return ExitCode::SpecInvalid;
      case ErrorCode::Cancelled:
        return ExitCode::Interrupted;
      default:
        return ExitCode::RuntimeFailure;
    }
}

} // namespace prophet
