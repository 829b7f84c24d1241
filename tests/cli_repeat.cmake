# Runs pioblast_cli three times on each '|'-separated argument string in
# COMMANDS and requires every run to exit 0 and print the same stdout as
# the first run of its command: a run that names no backend must not
# depend on host scheduling.
#
#   cmake -DCLI=<pioblast_cli> "-DCOMMANDS=<args>|<args>|..."
#         -P cli_repeat.cmake

string(REPLACE "|" ";" commands "${COMMANDS}")
set(failures)
foreach(command IN LISTS commands)
  separate_arguments(args UNIX_COMMAND "${command}")
  foreach(run RANGE 1 3)
    execute_process(COMMAND ${CLI} ${args}
                    RESULT_VARIABLE code
                    OUTPUT_VARIABLE out
                    ERROR_VARIABLE err
                    TIMEOUT 600)
    if(NOT code STREQUAL "0")
      list(APPEND failures
           "${command}: run ${run} exit '${code}', want 0; stderr: ${err}")
      break()
    endif()
    if(run EQUAL 1)
      set(first "${out}")
    elseif(NOT out STREQUAL first)
      list(APPEND failures
           "${command}: run ${run} printed\n${out}\nrun 1 printed\n${first}")
      break()
    endif()
  endforeach()
endforeach()

if(failures)
  string(JOIN "\n  " report ${failures})
  message(FATAL_ERROR "pioblast_cli output changed between runs:\n  ${report}")
endif()
