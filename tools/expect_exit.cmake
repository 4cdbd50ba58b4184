# Runs EXE with the single argument ARG and fails unless it exits
# with status EXPECT. Usage:
#   cmake -DEXE=... -DARG=... -DEXPECT=2 -P expect_exit.cmake
execute_process(COMMAND "${EXE}" "${ARG}"
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc STREQUAL "${EXPECT}")
    message(FATAL_ERROR
        "${EXE} ${ARG}: expected exit ${EXPECT}, got '${rc}'\n${out}${err}")
endif()
