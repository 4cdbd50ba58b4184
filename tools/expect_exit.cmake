# Runs EXE with the space-separated arguments ARG and fails unless it
# exits with status EXPECT. Usage:
#   cmake -DEXE=... -DARG=... -DEXPECT=2 -P expect_exit.cmake
separate_arguments(args UNIX_COMMAND "${ARG}")
execute_process(COMMAND "${EXE}" ${args}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc STREQUAL "${EXPECT}")
    message(FATAL_ERROR
        "${EXE} ${ARG}: expected exit ${EXPECT}, got '${rc}'\n${out}${err}")
endif()
