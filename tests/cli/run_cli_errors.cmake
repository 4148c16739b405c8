# CLI flag-validation battery: every malformed flag value must be a
# usage error (exit 2) with a diagnostic on stderr — never a silent
# saturation or a crash. Invoked by ctest (see tests/CMakeLists.txt)
# with -DPORTEND=<path to the portend binary>.
#
# The out-of-range rows pin the --ma 99999999999999999999 regression:
# strtoll used to saturate without an ERANGE check, so an absurd
# budget silently became INT64_MAX (then truncated through an int
# cast) instead of being rejected.

if(NOT DEFINED PORTEND)
    message(FATAL_ERROR "run_cli_errors.cmake needs -DPORTEND=...")
endif()

# Each case: a semicolon-free command line that must exit 2.
set(bad_cases
    "classify avv --ma 99999999999999999999"
    "classify avv --mp 99999999999999999999"
    "classify avv --k 9223372036854775808"
    "classify avv --mp -3"
    "classify avv --ma 0"
    "classify avv --jobs 0"
    "classify avv --jobs 2147483648"
    "classify avv --seed -1"
    "classify avv --seed 1x"
    "classify avv --k banana"
    "campaign run ignored --abort-after -1"
    "fuzz --budget -5"
    "fuzz --fuzz-seed -2"
    )

foreach(case IN LISTS bad_cases)
    separate_arguments(args UNIX_COMMAND "${case}")
    execute_process(
        COMMAND ${PORTEND} ${args}
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 2)
        message(FATAL_ERROR
            "expected usage error (exit 2) for `portend ${case}`, "
            "got exit ${rc}\nstdout:\n${out}\nstderr:\n${err}")
    endif()
    if(NOT err MATCHES "portend: ")
        message(FATAL_ERROR
            "no diagnostic on stderr for `portend ${case}`:\n${err}")
    endif()
endforeach()

# And the good-value boundary cases must NOT be rejected by flag
# parsing (they may fail later for other reasons, but never with the
# parse diagnostics above).
execute_process(
    COMMAND ${PORTEND} classify avv --ma 1 --mp 1 --seed 0
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR
        "boundary values rejected: exit ${rc}\n${err}")
endif()
