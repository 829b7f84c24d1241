# Runs a program with each value it must reject for one option: every run
# must exit 2 with the option's name on stderr and nothing on stdout, so
# the program stopped before doing any work.
#
#   cmake -DBIN=<program> -DOPTION=<--option> "-DVALUES=<value|value|...>"
#         -P bad_values.cmake

string(REPLACE "|" ";" values "${VALUES}")
set(failures)
foreach(value IN LISTS values)
  execute_process(COMMAND ${BIN} ${OPTION}=${value}
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err
                  TIMEOUT 60)
  string(FIND "${err}" "${OPTION}" at)
  if(NOT code STREQUAL "2")
    list(APPEND failures "${OPTION}=${value}: exit '${code}', want 2; stderr: ${err}")
  elseif(at EQUAL -1)
    list(APPEND failures "${OPTION}=${value}: stderr lacks '${OPTION}': ${err}")
  elseif(NOT out STREQUAL "")
    list(APPEND failures "${OPTION}=${value}: wrote to stdout: ${out}")
  endif()
endforeach()

if(failures)
  string(JOIN "\n  " report ${failures})
  message(FATAL_ERROR "${BIN} accepted or crashed on:\n  ${report}")
endif()
