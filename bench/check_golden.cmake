# Runs one paper bench and compares its stdout with a golden file.
#
#   cmake -DBENCH=<binary> -DGOLDEN=<golden.txt> -DACTUAL=<out.txt> -P check_golden.cmake
#
# Line 1 of the output is the provenance banner, which names the commit
# and build type; everything after it must equal GOLDEN byte for byte.
# On a mismatch the output is kept in ACTUAL and diffed against GOLDEN.
execute_process(COMMAND ${BENCH} OUTPUT_VARIABLE out RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${rc}")
endif()
string(FIND "${out}" "\n" banner_end)
math(EXPR body_start "${banner_end} + 1")
string(SUBSTRING "${out}" ${body_start} -1 body)
file(READ ${GOLDEN} golden)
if(body STREQUAL golden)
  file(REMOVE ${ACTUAL})
  return()
endif()
file(WRITE ${ACTUAL} "${body}")
find_program(DIFF diff)
if(DIFF)
  execute_process(COMMAND ${DIFF} -u ${GOLDEN} ${ACTUAL})
endif()
message(FATAL_ERROR "${BENCH}: output differs from ${GOLDEN} (actual output in ${ACTUAL})")
