# The analyzer sweeps print the same bytes for any host job count, and
# every bundled workload passes them: each command below must exit 0
# and print identical stdout under --jobs 1 and --jobs 4.
#   -DTOOL_DIR=<dir>   where diag-bound, diag-stream and diag-verify live
foreach(cmd "diag-bound --all-workloads --validate"
            "diag-stream --all-workloads --validate"
            "diag-verify --all-workloads")
    separate_arguments(args UNIX_COMMAND "${cmd}")
    list(POP_FRONT args tool)
    foreach(jobs 1 4)
        execute_process(
            COMMAND ${TOOL_DIR}/${tool} ${args} --jobs ${jobs}
            OUTPUT_VARIABLE out_${jobs}
            RESULT_VARIABLE rc)
        if(NOT rc EQUAL 0)
            message(FATAL_ERROR "${cmd} --jobs ${jobs} exited ${rc}")
        endif()
    endforeach()
    if(NOT out_1 STREQUAL out_4)
        message(FATAL_ERROR
            "${cmd} prints different output for --jobs 1 and --jobs 4")
    endif()
endforeach()
