# Runs BIN with ARGS (a `|`-separated argument list) and passes iff it exits
# with EXPECT_EXIT and its stderr matches EXPECT_STDERR. Used by the CLI
# cases in tests/CMakeLists.txt, which pin an exit code rather than just
# "nonzero".
string(REPLACE "|" ";" argv "${ARGS}")
execute_process(COMMAND "${BIN}" ${argv}
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
list(JOIN argv " " shown)
if(NOT rc STREQUAL "${EXPECT_EXIT}")
  message(FATAL_ERROR "${BIN} ${shown}: exit '${rc}', expected "
                      "${EXPECT_EXIT}; stderr: ${err}")
endif()
if(NOT err MATCHES "${EXPECT_STDERR}")
  message(FATAL_ERROR "${BIN} ${shown}: stderr '${err}' does not "
                      "match '${EXPECT_STDERR}'")
endif()
