# Runs `propane campaign run` with one bad count flag and checks that it is
# a usage error (exit 2) caught before the journal directory is created.
#
#   cmake -DCLI=<propane> -DJOURNAL=<dir> -DFLAGS="--processes 0"
#         -P check_bad_count.cmake
file(REMOVE_RECURSE "${JOURNAL}")
separate_arguments(flag_list UNIX_COMMAND "${FLAGS}")
execute_process(
  COMMAND "${CLI}" campaign run --journal "${JOURNAL}" --scale small
          --no-telemetry --no-progress ${flag_list}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "'${FLAGS}': expected exit 2, got '${rc}'\n${out}${err}")
endif()
if(EXISTS "${JOURNAL}")
  message(FATAL_ERROR "'${FLAGS}': usage error left ${JOURNAL} behind")
endif()
