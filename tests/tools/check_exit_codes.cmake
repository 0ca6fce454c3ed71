# The analyzers' exit-status contract: 0 when clean, 1 when findings
# fail the bar, 2 on a usage mistake (no input, unknown flag).
#   -DTOOL_DIR=<dir>     where the four analyzers live
#   -DNO_EBREAK=<file>   a program that falls off the end of its image
function(expect_status want)
    execute_process(COMMAND ${ARGN}
        OUTPUT_QUIET ERROR_QUIET RESULT_VARIABLE rc)
    if(NOT rc EQUAL want)
        string(REPLACE ";" " " cmd "${ARGN}")
        message(SEND_ERROR "`${cmd}` exited ${rc}, expected ${want}")
    endif()
endfunction()

foreach(tool diag-lint diag-bound diag-stream diag-verify)
    set(bin ${TOOL_DIR}/${tool})
    expect_status(2 ${bin})
    expect_status(2 ${bin} --no-such-flag)
    expect_status(0 ${bin} --workload srad)
    expect_status(1 ${bin} ${NO_EBREAK})
endforeach()
