# Runs `${GSIGHT} ${ARGS}` (ARGS is one space-separated string) and passes
# only if the command exits 1 with an "error: " line on stderr: a bad
# option value must be refused cleanly, not abort or run on defaults.
#   cmake -DGSIGHT=<gsight binary> "-DARGS=<arguments>" -P expect_cli_error.cmake
separate_arguments(argv UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${GSIGHT}" ${argv}
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc STREQUAL "1")
  message(FATAL_ERROR "gsight ${ARGS}: want exit 1, got '${rc}'\n${err}")
endif()
if(NOT err MATCHES "(^|\n)error: ")
  message(FATAL_ERROR "gsight ${ARGS}: no 'error: ' line on stderr\n${err}")
endif()
