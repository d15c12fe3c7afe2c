# Runs every analysis command of the CLI on the shipped arrestment model and
# permeability CSV and checks each command's stdout against its pinned
# SHA-256. The paper fixes one analysis configuration (zero arcs and zero
# paths kept, direct errors only), so these outputs must not move.
#
#   cmake -DCLI=<propane> -DMODELS=<examples/models dir> -DWORK=<work dir>
#         -P check_analysis_outputs.cmake
#
# The commands run inside MODELS on bare file names, because `report`
# titles itself with the model path as given. Each stdout goes through a
# file, not a CMake variable, so the digest covers its exact bytes.
set(expected_analyze
    "dace2275c9d69366ae6f0099a53846f1348198f3423cb7a4317468993e52e2fb")
set(expected_paths
    "7037a2b8ebd9a3fdc72fcd475ffcef626aab1a0dc16cfcba0e853413f3a56ddb")
set(expected_advise
    "ee912bbf4a4d3fa074a3e743abb42af101f1a8a00d3df9225643f50f1a7dee53")
set(expected_tree
    "ee4e6114ab5fbe1ce762705d5e7e4c281fa886c7fccbc04089274cd1d82f4dd3")
set(expected_dot
    "41818f3a5aa98f8d3c4801adcc6aa820a9647c2f07464a7f8a318f20f1d3e4dd")
set(expected_influence
    "c07d731f83831f4f09d0aeb2e62139d181b8d595caf5ddf694c74e87de671721")
set(expected_report
    "c80fa46904551889c001a2e1216c4f605bef924fedaa56d7a7abca95d82c895c")

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")
set(failures "")
foreach(command analyze paths advise tree dot influence report)
  execute_process(
    COMMAND "${CLI}" ${command} arrestment.model arrestment_permeability.csv
    WORKING_DIRECTORY "${MODELS}"
    RESULT_VARIABLE rc
    OUTPUT_FILE "${WORK}/${command}.out")
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "propane ${command} failed: '${rc}'")
  endif()
  file(SHA256 "${WORK}/${command}.out" digest)
  if(NOT digest STREQUAL expected_${command})
    string(APPEND failures "\n  ${command}: ${digest}, expected "
                           "${expected_${command}}")
  endif()
endforeach()
if(failures)
  message(FATAL_ERROR "analysis output SHA-256 mismatch:${failures}")
endif()
