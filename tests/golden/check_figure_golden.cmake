# Diff one table/figure/ablation binary's stdout against its checked-in
# snapshot, under --jobs 1 and --jobs 4: both runs must exit 0 and
# print exactly the snapshot. Binaries that take no flags ignore their
# arguments, so every one is given --jobs.
#   -DBENCH=<binary>   the bench to run
#   -DGOLDEN=<file>    the snapshot, tests/golden/figures/<binary>.txt
#   -DTAKES_JOBS=ON    the bench parses --jobs: --help must exit 0 and
#                      --jobs abc must exit 1
#   -DUPDATE=ON        rewrite the snapshot instead (tools/update_goldens.sh)
get_filename_component(name ${BENCH} NAME)
foreach(jobs 1 4)
    execute_process(
        COMMAND ${BENCH} --jobs ${jobs}
        OUTPUT_VARIABLE out_${jobs}
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "${name} --jobs ${jobs} exited ${rc}")
    endif()
endforeach()
if(NOT out_1 STREQUAL out_4)
    message(FATAL_ERROR
        "${name} prints different output for --jobs 1 and --jobs 4")
endif()

if(UPDATE)
    file(WRITE ${GOLDEN} "${out_1}")
    return()
endif()
file(READ ${GOLDEN} expected)
if(NOT out_1 STREQUAL expected)
    set(actual_file ${CMAKE_CURRENT_BINARY_DIR}/${name}.actual.txt)
    file(WRITE ${actual_file} "${out_1}")
    message(FATAL_ERROR
        "${name} output diverged from ${GOLDEN} "
        "(diff it against ${actual_file}); if the change is intentional, "
        "run tools/update_goldens.sh <build-dir> and commit the diff")
endif()

if(TAKES_JOBS)
    foreach(check "0;--help" "1;--jobs;abc")
        list(POP_FRONT check want)
        execute_process(COMMAND ${BENCH} ${check}
            OUTPUT_QUIET ERROR_QUIET RESULT_VARIABLE rc)
        if(NOT rc EQUAL want)
            string(REPLACE ";" " " args "${check}")
            message(FATAL_ERROR
                "${name} ${args} exited ${rc}, expected ${want}")
        endif()
    endforeach()
endif()
