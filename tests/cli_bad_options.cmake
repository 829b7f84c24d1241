# Runs pioblast_cli on malformed or unknown option values (--check keys
# and --schedule traces among them), an invalid fault plan, too few
# processes, unreadable and malformed FASTA files, a --conformance run
# wider than the protocol monitor's bound, out-of-range sizes and counts,
# more fragments than database sequences and the removed --kernel and
# --exec-model options.
# Every case must exit 2 with the option's name on stderr and nothing on
# stdout: it is rejected before any driver runs, instead of aborting or
# running with a half-parsed value.
#
#   cmake -DCLI=<pioblast_cli> -DMISSING=<a path that does not exist>
#         -DDATA=<tests/data> -P cli_bad_options.cmake

set(base --procs 4 --db-residues 20000 --query-bytes 500)

# "<argument>|...|<text stderr must contain>"
set(cases
  "--queries-fasta=${DATA}/fasta_data_before_defline.fa|--queries-fasta: FASTA line 1"
  "--queries-fasta=${DATA}/fasta_empty_record.fa|--queries-fasta: FASTA line 1"
  "--db-fasta=${DATA}/fasta_data_before_defline.fa|--db-fasta: FASTA line 1"
  "--db-fasta=${DATA}/fasta_empty_record.fa|--db-fasta: FASTA line 1"
  "--queries-fasta=${DATA}/fasta_no_records.fa|--queries-fasta: ${DATA}/fasta_no_records.fa: no FASTA records"
  "--db-fasta=${DATA}/fasta_no_records.fa|--db-fasta: ${DATA}/fasta_no_records.fa: no FASTA records"
  "--conformance|--procs=40|--conformance: the protocol monitor checks at most protospec::Env::kMaxRanks"
  "--fault=rank=x|--fault"
  "--exec-model=events|unknown option --exec-model"
  "--scheduler=bogus|--scheduler"
  "--queries-fasta=${MISSING}|--queries-fasta"
  "--procs=abc|--procs"
  "--hitlist=1e3|--hitlist"
  "--check=schedules=abc|--check: schedules"
  "--check=max=99999999999|--check: max"
  "--check=schedules=5x|--check: schedules"
  "--check=schedules=-3|--check: schedules"
  "--check=max=-1|--check: max"
  "--check=dpor=maybe|--check: dpor"
  "--check=races=maybe|--check: races"
  "--check=shrink=nope|--check: shrink"
  "--schedule=abc|--schedule"
  "--schedule=1,,2|--schedule"
  "--schedule=-1|--schedule"
  "--pario-hints=bogus|--pario-hints"
  "--pario-hints=cb_buffer_size=-1|--pario-hints"
  "--pario-hints=ds_buffer_size=-1|--pario-hints"
  "--pario-hints=cb_buffer_size=17179869184g|--pario-hints"
  "--fragments=100000|--fragments"
  "--fragments=-1|--fragments"
  "--db-residues=100|--procs: 3 fragments need as many database sequences"
  "--db-fasta=${DATA}/fasta_two_records.fa|--procs: 3 fragments need as many database sequences"
  "--db-residues=0|--db-residues"
  "--query-bytes=0|--query-bytes"
  "--evalue=0|--evalue"
  "--evalue=-1|--evalue"
  "--evalue=nan|--evalue"
  "--evalue=inf|--evalue"
  "--hitlist=-5|--hitlist"
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
  string(REPLACE "|" ";" args "${case}")
  list(POP_BACK args needle)
  string(JOIN " " arg ${args})
  execute_process(COMMAND ${CLI} ${base} ${args}
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
