# Runs tools/bench_to_json.py --check on two bench outputs against one
# results file: the unchanged output must exit 0, and the output with one
# drifted field must exit 1 and name the field with both values.
#
#   cmake -DPYTHON=<python3> -DTOOL=<bench_to_json.py> -DDATA=<tests/data>
#         -P bench_to_json_check.cmake

execute_process(
  COMMAND ${PYTHON} ${TOOL} --check ${DATA}/bench_rows.json
          ${DATA}/bench_rows.txt
  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT code STREQUAL "0")
  message(FATAL_ERROR "unchanged rows: exit '${code}', want 0:\n${out}${err}")
endif()

execute_process(
  COMMAND ${PYTHON} ${TOOL} --check ${DATA}/bench_rows.json
          ${DATA}/bench_rows_drift.txt
  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
string(FIND "${out}" "total_s: want 15.763624, got 15.763625" at)
if(NOT code STREQUAL "1")
  message(FATAL_ERROR "drifted row: exit '${code}', want 1:\n${out}${err}")
elseif(at EQUAL -1)
  message(FATAL_ERROR "drifted row: output does not name the total_s "
                      "drift:\n${out}${err}")
endif()
