# Diff the engines' `diag-run --stats-json` counter dumps for every
# bundled workload against the checked-in snapshot. Runs per workload:
# the OoO baseline on one thread and on 12 threads; DiAG on the
# default preset (serial, the simt variant where the workload has
# one, and 16 software threads) and on the two-cluster F4C2 preset.
# Host-speed work on either engine must leave every simulated counter
# byte-identical.
#   -DTOOL=<diag-run>  the simulator driver
#   -DGOLDEN=<file>    the snapshot to compare byte-for-byte
#   -DUPDATE=ON        rewrite the snapshot instead (tools/update_goldens.sh)
execute_process(
    COMMAND ${TOOL} --list-workloads
    OUTPUT_VARIABLE listing
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${TOOL} --list-workloads exited ${rc}")
endif()
string(REGEX MATCHALL "\n  [a-z0-9_]+ " rows "\n${listing}")
set(workloads "")
foreach(row ${rows})
    string(STRIP "${row}" name)
    list(APPEND workloads ${name})
endforeach()
list(LENGTH workloads count)
if(count EQUAL 0)
    message(FATAL_ERROR "no workloads listed by ${TOOL}")
endif()

get_filename_component(golden_name ${GOLDEN} NAME_WE)
set(scratch ${CMAKE_CURRENT_BINARY_DIR}/${golden_name}.tmp.json)
set(args_ooo --engine ooo)
set(args_ooo-threads12 --engine ooo --threads 12)
set(args_diag --engine diag)
set(args_diag-simt --engine diag --simt)
set(args_diag-f4c2 --engine diag --config F4C2)
set(args_diag-threads16 --engine diag --threads 16)

set(actual "{\n")
set(sep "")
foreach(w ${workloads})
    set(modes "ooo" "ooo-threads12" "diag")
    string(REGEX MATCH "\n  ${w} [^\n]*\\[simt\\]" simt "\n${listing}")
    if(simt)
        list(APPEND modes "diag-simt")
    endif()
    list(APPEND modes "diag-f4c2" "diag-threads16")
    foreach(mode ${modes})
        file(REMOVE ${scratch})
        execute_process(
            COMMAND ${TOOL} --workload ${w} ${args_${mode}}
                    --stats-json ${scratch}
            OUTPUT_QUIET
            RESULT_VARIABLE rc)
        if(NOT rc EQUAL 0)
            message(FATAL_ERROR "${TOOL} --workload ${w} "
                                "${args_${mode}} exited ${rc}")
        endif()
        file(READ ${scratch} dump)
        string(STRIP "${dump}" dump)
        string(APPEND actual "${sep}\"${w}/${mode}\": ${dump}")
        set(sep ",\n")
    endforeach()
endforeach()
string(APPEND actual "\n}\n")
file(REMOVE ${scratch})

if(UPDATE)
    file(WRITE ${GOLDEN} "${actual}")
    return()
endif()
file(READ ${GOLDEN} expected)
if(NOT actual STREQUAL expected)
    set(actual_file ${CMAKE_CURRENT_BINARY_DIR}/${golden_name}.actual.json)
    file(WRITE ${actual_file} "${actual}")
    message(FATAL_ERROR
        "engine counters diverged from ${GOLDEN} "
        "(diff it against ${actual_file}); if the change is intentional, "
        "run tools/update_goldens.sh <build-dir> and commit the diff")
endif()
