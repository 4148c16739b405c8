# Golden diff: run `portend <ARGS>` and compare its stdout bytes
# against the pinned golden file. Invoked by ctest (see
# tests/CMakeLists.txt) with:
#   -DPORTEND=<path to the portend binary>
#   -DARGS=<space-separated arguments, e.g. "classify rw --json">
#   -DGOLDEN=<path to the golden file>
#
# The comparison is byte-exact on purpose: verdict classes, k
# counts, distinct-schedule ledgers, and evidence inputs, seeds,
# schedules and signatures are all deterministic (across --jobs
# values and sanitizer builds), so any diff is a behavior change
# that must be reviewed. Regenerate with tools/update_goldens.sh and
# commit the diff.

foreach(var PORTEND ARGS GOLDEN)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "run_golden.cmake needs -D${var}=...")
    endif()
endforeach()

separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(
    COMMAND ${PORTEND} ${args}
    OUTPUT_VARIABLE got
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "portend ${ARGS} exited with ${rc}")
endif()

if(NOT EXISTS ${GOLDEN})
    message(FATAL_ERROR "missing golden file ${GOLDEN} "
        "(run tools/update_goldens.sh)")
endif()
file(READ ${GOLDEN} want)

if(NOT got STREQUAL want)
    # Show the fresh output so the ctest log carries the full diff
    # context without needing a rerun.
    message(FATAL_ERROR
        "golden mismatch for 'portend ${ARGS}'.\n"
        "--- expected (${GOLDEN}) ---\n${want}\n"
        "--- got ---\n${got}\n"
        "If the change is intentional, regenerate with "
        "tools/update_goldens.sh and review the git diff.")
endif()
