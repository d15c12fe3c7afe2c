# Runs the paper-scale campaign, bootstraps it at one and at four threads
# and checks that the two artifact sets are byte-identical and that
# summary.json carries its pinned SHA-256.
#
#   cmake -DCLI=<propane> -DJOURNAL=<work dir> -P check_bootstrap_full.cmake
set(expected_summary
    "cc287deed55aff3aca0ff6129a98c4f47572ec5997d40e37b0561e9bffcb3eee")
file(REMOVE_RECURSE "${JOURNAL}")
execute_process(
  COMMAND "${CLI}" campaign run --journal "${JOURNAL}/journal" --scale full
          --no-telemetry --no-progress
  RESULT_VARIABLE rc
  OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "campaign run into ${JOURNAL}/journal failed: '${rc}'")
endif()
foreach(threads 1 4)
  execute_process(
    COMMAND "${CLI}" campaign bootstrap --journal "${JOURNAL}/journal"
            --no-telemetry -B 200 --seed 42 --threads ${threads}
            --out "${JOURNAL}/threads${threads}"
    RESULT_VARIABLE rc
    OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "campaign bootstrap --threads ${threads} failed: "
                        "'${rc}'")
  endif()
endforeach()
foreach(artifact summary.json bands.svg confidence.dot)
  file(SHA256 "${JOURNAL}/threads1/${artifact}" one)
  file(SHA256 "${JOURNAL}/threads4/${artifact}" four)
  if(NOT one STREQUAL four)
    message(FATAL_ERROR "${artifact} differs between 1 and 4 threads")
  endif()
endforeach()
file(SHA256 "${JOURNAL}/threads1/summary.json" summary)
if(NOT summary STREQUAL expected_summary)
  message(FATAL_ERROR "summary.json SHA-256 ${summary}, expected "
                      "${expected_summary}")
endif()
