# Runs `BIN FLAG VALUE` and passes iff it exits with EXPECT_EXIT and its
# stderr matches EXPECT_STDERR. Used by the bench CLI cases in
# tests/CMakeLists.txt, which pin an exit code rather than just "nonzero".
execute_process(COMMAND "${BIN}" "${FLAG}" "${VALUE}"
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc STREQUAL "${EXPECT_EXIT}")
  message(FATAL_ERROR "${BIN} ${FLAG} ${VALUE}: exit '${rc}', expected "
                      "${EXPECT_EXIT}; stderr: ${err}")
endif()
if(NOT err MATCHES "${EXPECT_STDERR}")
  message(FATAL_ERROR "${BIN} ${FLAG} ${VALUE}: stderr '${err}' does not "
                      "match '${EXPECT_STDERR}'")
endif()
