# Runs pioblast_cli on a small job and requires a clean run: exit 0,
# `result=ok` on every CONFORM and CHECK line, and each REQUIRE text on
# stdout.
#
#   cmake -DCLI=<pioblast_cli> "-DARGS=<space-separated arguments>"
#         "-DREQUIRE=<text|text|...>" -P cli_run.cmake

set(base --procs 4 --db-residues 20000 --query-bytes 500)
separate_arguments(args UNIX_COMMAND "${ARGS}")
string(REPLACE "|" ";" require "${REQUIRE}")
execute_process(COMMAND ${CLI} ${base} ${args}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                TIMEOUT 300)

set(failures)
if(NOT code STREQUAL "0")
  list(APPEND failures "exit '${code}', want 0; stderr: ${err}")
endif()
string(REGEX MATCHALL "(CONFORM|CHECK) [^\n]*" lines "${out}")
foreach(line IN LISTS lines)
  string(FIND "${line}" "result=ok" at)
  if(at EQUAL -1)
    list(APPEND failures "not ok: ${line}")
  endif()
endforeach()
foreach(text IN LISTS require)
  string(FIND "${out}" "${text}" at)
  if(at EQUAL -1)
    list(APPEND failures "stdout lacks '${text}'")
  endif()
endforeach()

if(failures)
  string(JOIN "\n  " report ${failures})
  message(FATAL_ERROR "pioblast_cli ${ARGS}:\n  ${report}")
endif()
