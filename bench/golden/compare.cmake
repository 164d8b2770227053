# Runs EXPERIMENTS with no arguments and compares its stdout with GOLDEN byte
# for byte. On a mismatch the actual output is left in ACTUAL for diffing.
execute_process(COMMAND ${EXPERIMENTS}
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${EXPERIMENTS} exited with ${status}")
endif()
file(READ ${GOLDEN} expected)
if(NOT actual STREQUAL expected)
  file(WRITE ${ACTUAL} "${actual}")
  message(FATAL_ERROR "experiments output differs from ${GOLDEN}; "
                      "compare with: diff ${GOLDEN} ${ACTUAL}")
endif()
