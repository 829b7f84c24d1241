# Runs pioblast_cli on malformed or unknown option values (--check keys,
# --fault and --pario-hints fields and --schedule traces among them, and
# a flag given a value), an invalid fault plan, too few
# processes, unreadable and malformed FASTA files, a --conformance run
# wider than the protocol monitor's bound, out-of-range sizes and counts,
# more fragments than database sequences, a blastp query record too long
# for the kernel's position tag (in --queries-fasta, or sampled from
# --db-fasta), the removed --kernel and --exec-model options, and
# arguments that do not start with "--".
# Every case must exit 2 with the option's name on stderr and nothing on
# stdout: it is rejected before any driver runs, instead of aborting or
# running with a half-parsed value.
#
#   cmake -DCLI=<pioblast_cli> -DMISSING=<a path that does not exist>
#         -DDATA=<tests/data> -DWORK=<a writable directory>
#         -P cli_bad_options.cmake

set(base --procs 4 --db-residues 20000 --query-bytes 500)

# One protein record of 2^22 residues, one more than BatchNeighborhood::
# kMaxQueryResidues: written here rather than committed (4 MiB).
string(REPEAT "A" 4194304 long_record)
set(long_fasta "${WORK}/long_protein_query.fa")
file(WRITE "${long_fasta}" ">long\n${long_record}\n")

# A database of a 4194314-residue record and eight short ones: a sampled
# query set of 5000000 bytes takes every record, the long one included.
string(APPEND long_record "AAAAAAAAAA")
set(long_db_text ">long\n${long_record}\n")
foreach(i RANGE 1 8)
  string(APPEND long_db_text ">short${i}\nMKVLAARNDCQEGHILKMFPSTWYV\n")
endforeach()
set(long_db "${WORK}/long_protein_db.fa")
file(WRITE "${long_db}" "${long_db_text}")

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
  "--queries-fasta=${long_fasta}|--queries-fasta: ${long_fasta}: record 'long' has 4194304 residues, more than the 4194303 a blastp query may have"
  "--db-fasta=${long_db}|--query-bytes=5000000|--query-bytes: the sampled query set: record 'query_5' (sampled from long) has 4194314 residues, more than the 4194303 a blastp query may have"
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
  "--pario-hints=ds_density=nan|--pario-hints"
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
  "--procs=0|--procs"
  "--procs=4294967298|--procs"
  # Values that must not be misread: a rank or an ordinal outside its
  # type, a flag given a value, spaces and '+' signs, a trace rank outside
  # the job, and spellings the languages no longer take.
  "--fault=rank=4294967297,crash_at=3|--fault: rank"
  "--fault=rank=-4294967295,crash_at=3|--fault: rank"
  "--fault=rank=1,crash_at=-1|--fault: crash_at"
  "--fault=rank=1,drop_send=-1|--fault: drop_send"
  "--fault=rank=1, crash_at=3|--fault: key: expects rank"
  "--metrics=on|option --metrics is a flag"
  "--pario-hints=cb_nodes= +8|--pario-hints: cb_nodes"
  "--pario-hints=list=true|--pario-hints: list"
  "--pario-hints=ds_read=on|--pario-hints: ds_read"
  "--pario-hints=list_io=off|--pario-hints: key: expects cb_nodes"
  "--schedule| 1,+2|--schedule"
  "--fragments| 3|--fragments"
  "--schedule=0,99|--schedule: expects an integer in [0, 3], got '99'"
  "--seed=-1|--seed"
  # A rank record that injects nothing (arm the detector with "arm"), and
  # arguments that are not options: a one-dash option and a flag's value
  # given after a space.
  "--fault=rank=2|--fault: fault plan: rank 2 injects nothing"
  "-procs|4|unexpected argument '-procs'"
  "--metrics|on|unexpected argument 'on'")

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
