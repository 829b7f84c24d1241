# Runs micro_mpisim with each rejected --ranks value: every one must exit 2
# with --ranks on stderr and nothing on stdout, so no world has started.
#
#   cmake -DBIN=<micro_mpisim> "-DVALUES=<value|value|...>" -P bad_ranks.cmake

string(REPLACE "|" ";" values "${VALUES}")
set(failures)
foreach(value IN LISTS values)
  execute_process(COMMAND ${BIN} --ranks=${value}
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err
                  TIMEOUT 60)
  string(FIND "${err}" "--ranks" at)
  if(NOT code STREQUAL "2")
    list(APPEND failures "--ranks=${value}: exit '${code}', want 2; stderr: ${err}")
  elseif(at EQUAL -1)
    list(APPEND failures "--ranks=${value}: stderr lacks '--ranks': ${err}")
  elseif(NOT out STREQUAL "")
    list(APPEND failures "--ranks=${value}: wrote to stdout: ${out}")
  endif()
endforeach()

if(failures)
  string(JOIN "\n  " report ${failures})
  message(FATAL_ERROR "micro_mpisim accepted or crashed on:\n  ${report}")
endif()
