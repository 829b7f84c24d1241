# Runs pioblast_cli on malformed or unknown option values, an invalid
# fault plan, too few processes, an unreadable input file and the removed
# --kernel option. Every case must exit 2 with the option's name on stderr
# and nothing on stdout: it is rejected before any driver runs, instead of
# aborting or running with a half-parsed value.
#
#   cmake -DCLI=<pioblast_cli> -DMISSING=<a path that does not exist>
#         -P cli_bad_options.cmake

set(base --procs 4 --db-residues 20000 --query-bytes 500)

# "<argument>|<text stderr must contain>"
set(cases
  "--fault=rank=x|--fault"
  "--exec-model=fibers|--exec-model"
  "--scheduler=bogus|--scheduler"
  "--queries-fasta=${MISSING}|--queries-fasta"
  "--procs=abc|--procs"
  "--hitlist=1e3|--hitlist"
  "--check=schedules=abc|--check: schedules"
  "--check=max=99999999999|--check: max"
  "--check=schedules=5x|--check: schedules"
  "--pario-hints=bogus|--pario-hints"
  "--kernel=fast|unknown option --kernel"
  "--driver=bogus|--driver"
  "--type=protien|--type"
  "--cluster=bladee|--cluster"
  "--verify=maybe|--verify"
  "--fault=rank=9,crash_at=3|--fault"
  "--fault=rank=0,crash_at=3|--fault"
  "--procs=1|--procs"
  "--procs=0|--procs")

set(failures)
foreach(case IN LISTS cases)
  string(REPLACE "|" ";" parts "${case}")
  list(GET parts 0 arg)
  list(GET parts 1 needle)
  execute_process(COMMAND ${CLI} ${base} ${arg}
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err
                  TIMEOUT 60)
  string(FIND "${err}" "${needle}" at)
  if(NOT code STREQUAL "2")
    list(APPEND failures "${arg}: exit '${code}', want 2; stderr: ${err}")
  elseif(at EQUAL -1)
    list(APPEND failures "${arg}: stderr lacks '${needle}': ${err}")
  elseif(NOT out STREQUAL "")
    list(APPEND failures "${arg}: wrote to stdout before failing: ${out}")
  endif()
endforeach()

if(failures)
  string(JOIN "\n  " report ${failures})
  message(FATAL_ERROR "pioblast_cli accepted or crashed on:\n  ${report}")
endif()
