# Runs CMD (a ;-list) and fails unless it exits with EXPECT.
# Usage: cmake -DCMD=<prog;arg;...> -DEXPECT=<code> -P expect_exit.cmake
execute_process(COMMAND ${CMD} RESULT_VARIABLE rc)
if(NOT rc EQUAL EXPECT)
  message(FATAL_ERROR "expected exit ${EXPECT}, got ${rc}")
endif()
