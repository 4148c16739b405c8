# Counter consistency at every CLI entry point that runs the
# pipeline: each command writes --metrics-out, and the counters must
# agree with each other. A counter that an entry point forgets to
# populate (a permanent 0) breaks one of these equations. Invoked by
# ctest (see tests/CMakeLists.txt) with:
#   -DPORTEND=<path to the portend binary>
#   -DCORPUS=<path to corpus/seed>
#   -DWORKDIR=<scratch directory, wiped first>
#
# For every export:
#   - the verdicts.* counters sum to classify.clusters;
#   - classify.clusters equals detect.clusters when no unit was a
#     cache hit (a hit runs detection but not classification);
#   - detect.runs equals pipeline.workloads, which equals the number
#     of pipelines the command ran: fuzz.programs, corpus.entries, or
#     the campaign's executed units (cache hits + misses);
#   - campaign.cache_hits + cache_misses + resume_skips equals
#     campaign.units.

cmake_minimum_required(VERSION 3.19) # string(JSON)

foreach(var PORTEND CORPUS WORKDIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR
            "run_metrics_consistency.cmake needs -D${var}=...")
    endif()
endforeach()

file(REMOVE_RECURSE ${WORKDIR})
file(MAKE_DIRECTORY ${WORKDIR})

# check(<label> <runs-from> <portend args...>): run portend with
# --metrics-out and check the export. <runs-from> names what the
# pipeline count must equal: FUZZ, CORPUS, or CAMPAIGN.
function(check label runs_from)
    set(out ${WORKDIR}/${label}.json)
    execute_process(
        COMMAND ${PORTEND} ${ARGN} --metrics-out ${out}
        OUTPUT_QUIET
        ERROR_VARIABLE err
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR
            "[${label}] `portend ${ARGN}` exited with ${rc}\n${err}")
    endif()
    file(READ ${out} json)

    set(names
        campaign.cache_hits campaign.cache_misses campaign.resume_skips
        campaign.units classify.clusters corpus.entries detect.clusters
        detect.runs fuzz.programs pipeline.workloads)
    foreach(n IN LISTS names)
        string(JSON v GET "${json}" counters ${n})
        set(${n} ${v})
    endforeach()

    set(verdicts 0)
    string(JSON count LENGTH "${json}" counters)
    math(EXPR last "${count} - 1")
    foreach(i RANGE ${last})
        string(JSON n MEMBER "${json}" counters ${i})
        if(n MATCHES "^verdicts\\.")
            string(JSON v GET "${json}" counters ${n})
            math(EXPR verdicts "${verdicts} + ${v}")
        endif()
    endforeach()

    if(runs_from STREQUAL "FUZZ")
        set(runs ${fuzz.programs})
    elseif(runs_from STREQUAL "CORPUS")
        set(runs ${corpus.entries})
    else()
        math(EXPR runs "${campaign.cache_hits} + ${campaign.cache_misses}")
    endif()
    math(EXPR accounted
        "${campaign.cache_hits} + ${campaign.cache_misses} + ${campaign.resume_skips}")

    set(errors "")
    if(NOT verdicts EQUAL classify.clusters)
        string(APPEND errors "  verdicts.* sum ${verdicts} != "
            "classify.clusters ${classify.clusters}\n")
    endif()
    if(campaign.cache_hits EQUAL 0 AND
       NOT classify.clusters EQUAL detect.clusters)
        string(APPEND errors "  classify.clusters ${classify.clusters} "
            "!= detect.clusters ${detect.clusters} with no cache hit\n")
    endif()
    if(NOT detect.runs EQUAL pipeline.workloads OR
       NOT pipeline.workloads EQUAL runs)
        string(APPEND errors "  detect.runs ${detect.runs}, "
            "pipeline.workloads ${pipeline.workloads} and "
            "${runs_from} pipeline count ${runs} differ\n")
    endif()
    if(NOT accounted EQUAL campaign.units)
        string(APPEND errors "  campaign hits + misses + resume skips "
            "${accounted} != campaign.units ${campaign.units}\n")
    endif()
    if(runs EQUAL 0 AND NOT runs_from STREQUAL "CAMPAIGN")
        string(APPEND errors "  no pipeline ran\n")
    endif()
    if(errors)
        message(FATAL_ERROR
            "[${label}] inconsistent counters in ${out}:\n${errors}")
    endif()
endfunction()

check(classify_all CAMPAIGN classify --all)
check(run_all CAMPAIGN run --all)
check(campaign_cold CAMPAIGN campaign run ${WORKDIR}/campaign)
check(campaign_warm CAMPAIGN campaign run ${WORKDIR}/campaign)
check(fuzz FUZZ fuzz --fuzz-seed 42 --budget 50 --quiet)
check(corpus CORPUS corpus run ${CORPUS} --quiet)
