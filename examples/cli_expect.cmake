# Runs openspace_cli once and checks how it exits. Used by the ctest cases in
# examples/CMakeLists.txt:
#
#   cmake -DCLI=<openspace_cli> -DARGS=<args separated by |>
#         -DEXPECT=success|failure [-DSTDOUT_FILE=<path>]
#         [-DSTDOUT_MATCH=<regex>] [-DSTDERR_MATCH=<regex>] -P cli_expect.cmake
#
# STDOUT_FILE receives the command's stdout (e.g. a generated fleet file);
# STDOUT_MATCH must match stdout, so a run that succeeds with the wrong
# answer fails; STDERR_MATCH must match stderr, so a failure for an
# unrelated reason (a missing file, a usage error) does not pass as the
# expected rejection. In both regexes `.` also matches a newline.
string(REPLACE "|" ";" cli_args "${ARGS}")
execute_process(COMMAND "${CLI}" ${cli_args}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(STDOUT_FILE)
  file(WRITE "${STDOUT_FILE}" "${out}")
endif()
if(EXPECT STREQUAL "success" AND NOT rc EQUAL 0)
  message(FATAL_ERROR "openspace_cli ${cli_args}: exit ${rc}, expected 0\n${err}")
endif()
if(EXPECT STREQUAL "failure" AND rc EQUAL 0)
  message(FATAL_ERROR "openspace_cli ${cli_args}: exit 0, expected failure")
endif()
if(STDOUT_MATCH AND NOT out MATCHES "${STDOUT_MATCH}")
  message(FATAL_ERROR "openspace_cli ${cli_args}: stdout does not match "
    "'${STDOUT_MATCH}'\n${out}")
endif()
if(STDERR_MATCH AND NOT err MATCHES "${STDERR_MATCH}")
  message(FATAL_ERROR "openspace_cli ${cli_args}: stderr does not match "
    "'${STDERR_MATCH}'\n${err}")
endif()
