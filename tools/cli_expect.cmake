# Runs the sustainai CLI once and checks its exit status and output:
#
#   cmake -DCLI=<sustainai> "-DARGS=<args>" -DFAIL=ON|OFF "-DEXPECT=<regex>"
#         [-DGOLDEN=<file>] -P cli_expect.cmake
#
# FAIL=ON requires a non-zero exit, FAIL=OFF a zero one; a crash or a run
# past 5 s fails either way. stdout and stderr together must match EXPECT
# (when given) and equal the GOLDEN file byte for byte (when given).
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${CLI}" ${args}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE out TIMEOUT 5)
if(NOT rc MATCHES "^[0-9]+$")
  message(FATAL_ERROR "sustainai ${ARGS}: did not exit normally (${rc})\n${out}")
endif()
if(FAIL AND rc EQUAL 0)
  message(FATAL_ERROR "sustainai ${ARGS}: expected a non-zero exit\n${out}")
endif()
if(NOT FAIL AND NOT rc EQUAL 0)
  message(FATAL_ERROR "sustainai ${ARGS}: exit ${rc}\n${out}")
endif()
if(NOT EXPECT STREQUAL "" AND NOT out MATCHES "${EXPECT}")
  message(FATAL_ERROR "sustainai ${ARGS}: output does not match '${EXPECT}'\n${out}")
endif()
if(DEFINED GOLDEN)
  file(READ "${GOLDEN}" want)
  if(NOT out STREQUAL want)
    message(FATAL_ERROR "sustainai ${ARGS}: output differs from ${GOLDEN}\n${out}")
  endif()
endif()
