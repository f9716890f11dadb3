# REPL smoke test: runs the shell REPL on SCRIPT and checks the EXPLAIN /
# EXPLAIN ANALYZE renderer end to end. Fails when the shell exits non-zero,
# prints any "error:" line, or misses a stage-table line. Nothing here
# depends on cache temperature or the thread count.
#
#   cmake -DREPL=<example_repl binary> -DSCRIPT=<script> -P repl_smoke.cmake
execute_process(
  COMMAND ${REPL}
  INPUT_FILE ${SCRIPT}
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "repl exited with ${rc}\n${out}${err}")
endif()
if(out MATCHES "error:")
  message(FATAL_ERROR "repl reported an error\n${out}")
endif()
foreach(expected "INSTANTIATION" "QUANTIFIER ELIMINATION" "EXPLAIN ANALYZE"
                 "span tree:")
  string(FIND "${out}" "${expected}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "missing \"${expected}\" in repl output\n${out}")
  endif()
endforeach()
