# Runs one CLI invocation and passes only if the program rejected it up
# front: exit code exactly 2 and the offending flag or value named in its
# output. A program that exits non-zero for some other reason (a missing
# input file, a crash, a lax parser failing later) fails the check.
#
#   cmake -DARBOR_CLI=<program> -DARBOR_ARGS="a|b|c" -DARBOR_OFFENDER=<text> \
#         -P scripts/expect_reject.cmake
#
# ARBOR_ARGS holds the arguments separated by '|'. The program runs in the
# current directory.
foreach(var ARBOR_CLI ARBOR_ARGS ARBOR_OFFENDER)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "expect_reject: ${var} is not set")
  endif()
endforeach()
string(REPLACE "|" ";" args "${ARBOR_ARGS}")
execute_process(COMMAND ${ARBOR_CLI} ${args}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                TIMEOUT 30)
set(output "${out}${err}")
if(NOT code STREQUAL "2")
  message(FATAL_ERROR "expect_reject: ${ARBOR_CLI} ${args} exited with "
                      "'${code}', want 2; output:\n${output}")
endif()
string(FIND "${output}" "${ARBOR_OFFENDER}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "expect_reject: ${ARBOR_CLI} ${args} exited 2 but "
                      "did not name '${ARBOR_OFFENDER}'; output:\n${output}")
endif()
