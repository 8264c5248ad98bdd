# Runs BIN with ARGS (a `|`-separated argument list) and compares its output
# byte for byte with GOLDEN: stdout by default, or the file the binary wrote
# at ACTUAL when OUT_FILE is set (shsweep --out). The output is kept at
# ACTUAL so a failure can be inspected with `diff GOLDEN ACTUAL`.
# Goldens change only through tests/repro/regen.sh.
if(ARGS)
  string(REPLACE "|" ";" argv "${ARGS}")
endif()
if(OUT_FILE)
  file(REMOVE "${ACTUAL}")
  execute_process(COMMAND "${BIN}" ${argv}
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
else()
  execute_process(COMMAND "${BIN}" ${argv}
    RESULT_VARIABLE rc OUTPUT_FILE "${ACTUAL}" ERROR_VARIABLE err)
endif()
list(JOIN argv " " shown)
if(NOT rc STREQUAL "0")
  message(FATAL_ERROR "${BIN} ${shown}: exit '${rc}'; stderr: ${err}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
  "${GOLDEN}" "${ACTUAL}" RESULT_VARIABLE differs)
if(differs)
  message(FATAL_ERROR "${BIN} ${shown}: output differs from the golden.\n"
                      "  diff ${GOLDEN} ${ACTUAL}\n"
                      "If the change is intended, rewrite the goldens with "
                      "tests/repro/regen.sh and say why in the commit.")
endif()
