# Runs `propane campaign merge` with the destination named as a source and
# checks that it fails with exit 1 and prints the check's message alone,
# without the source location of the check.
#
#   cmake -DCLI=<propane> -DJOURNAL=<work dir> -P check_merge_self.cmake
file(REMOVE_RECURSE "${JOURNAL}")
execute_process(
  COMMAND "${CLI}" campaign run --journal "${JOURNAL}" --scale small
          --no-telemetry --no-progress --processes 16 --index 0
  RESULT_VARIABLE rc
  OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "campaign run into ${JOURNAL} failed: '${rc}'")
endif()
execute_process(
  COMMAND "${CLI}" campaign merge --journal "${JOURNAL}" "${JOURNAL}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "expected exit 1, got '${rc}'\n${out}${err}")
endif()
if(NOT err MATCHES "duplicates a shard already merged")
  message(FATAL_ERROR "missing the merge check's message:\n${err}")
endif()
if(err MATCHES "\\.cpp:")
  message(FATAL_ERROR "the message names a source location:\n${err}")
endif()
