# The C++ report writer against the Python checker (ctest
# bench_report_roundtrip, label tooling): bench_report_fixture writes one
# passing and one failing report through bench::Report; the checker must
# accept the first and reject the second, and must also reject a hand-edited
# copy of the failing report whose failing gate declares status "pass".
#
#   cmake -DFIXTURE=<bench_report_fixture> -DPYTHON=<python3>
#         -DCHECKER=<tools/check_bench_json.py> -DDIR=<scratch dir>
#         -P bench_report_roundtrip.cmake
file(REMOVE_RECURSE "${DIR}")
file(MAKE_DIRECTORY "${DIR}")
execute_process(COMMAND "${FIXTURE}" WORKING_DIRECTORY "${DIR}"
                RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bench_report_fixture exited with ${rc}")
endif()

# Runs the checker on DIR/file; it must exit 0 iff `accept`, and its output
# must match `pattern`.
function(expect file accept pattern)
  execute_process(COMMAND "${PYTHON}" "${CHECKER}" "${DIR}/${file}"
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE out)
  message(STATUS "${file}: exit ${rc}: ${out}")
  if((accept AND NOT rc EQUAL 0) OR (NOT accept AND rc EQUAL 0)
     OR NOT out MATCHES "${pattern}")
    message(FATAL_ERROR "${file}: unexpected checker verdict")
  endif()
endfunction()

expect(BENCH_report_pass.json TRUE "5 gate\\(s\\) passed \\(1 skipped\\)")
expect(BENCH_report_fail.json FALSE "failing gate\\(s\\): reduction = 1.5")

file(READ "${DIR}/BENCH_report_fail.json" text)
string(REPLACE "\"status\": \"fail\"" "\"status\": \"pass\"" edited "${text}")
if(edited STREQUAL text)
  message(FATAL_ERROR "no failing gate status to edit in BENCH_report_fail.json")
endif()
file(WRITE "${DIR}/BENCH_report_edited.json" "${edited}")
expect(BENCH_report_edited.json FALSE "declared status 'pass' disagrees")
