# `portend --help` must print exactly the fenced code block under
# `## Usage` in docs/CLI.md, so the reference cannot drift from the
# binary. Invoked by ctest (see tests/CMakeLists.txt) with:
#   -DPORTEND=<path to the portend binary>
#   -DDOC=<path to docs/CLI.md>

foreach(var PORTEND DOC)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "run_cli_help_doc.cmake needs -D${var}=...")
    endif()
endforeach()

execute_process(
    COMMAND ${PORTEND} --help
    OUTPUT_VARIABLE got
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "portend --help exited with ${rc}")
endif()

# The block runs from the line after the first ``` fence that follows
# the heading up to (and including the newline before) the next one.
file(READ ${DOC} doc)
string(FIND "${doc}" "\n## Usage\n" at)
if(at EQUAL -1)
    message(FATAL_ERROR "${DOC} has no '## Usage' heading")
endif()
string(SUBSTRING "${doc}" ${at} -1 rest)
string(FIND "${rest}" "\n```\n" open)
if(open EQUAL -1)
    message(FATAL_ERROR "no fenced block under '## Usage' in ${DOC}")
endif()
math(EXPR start "${open} + 5")
string(SUBSTRING "${rest}" ${start} -1 rest)
string(FIND "${rest}" "\n```\n" close)
if(close EQUAL -1)
    message(FATAL_ERROR "unterminated fenced block in ${DOC}")
endif()
math(EXPR len "${close} + 1")
string(SUBSTRING "${rest}" 0 ${len} want)

if(NOT got STREQUAL want)
    message(FATAL_ERROR
        "`portend --help` differs from the Usage block of ${DOC}.\n"
        "--- docs/CLI.md ---\n${want}\n"
        "--- portend --help ---\n${got}\n"
        "Update both kUsage in tools/portend_cli.cc and docs/CLI.md.")
endif()
