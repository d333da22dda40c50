# Resumes a checked-in snapshot and checks the sha256 of the result.json it
# finishes with against the uninterrupted run's:
#
#   cmake -DCLI=<sustainai> -DSPEC=<spec.json> -DSNAPSHOT=<file> -DOUT=<dir>
#         -DTHREADS=<n> -DSHA256=<file> -P resume_fixture.cmake
#
# The run writes its own snapshots under OUT, never over SNAPSHOT. SHA256
# holds one `<sha256>  result.json` line (sha256sum's format).
file(REMOVE_RECURSE "${OUT}")
file(MAKE_DIRECTORY "${OUT}")
set(ENV{SUSTAINAI_THREADS} "${THREADS}")
execute_process(COMMAND "${CLI}" run "${SPEC}" --resume "${SNAPSHOT}"
    --checkpoint "${OUT}/checkpoint.json" --out "${OUT}/bundle"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "resuming ${SNAPSHOT}: exit ${rc}\n${out}")
endif()
file(SHA256 "${OUT}/bundle/result.json" sha)
file(READ "${SHA256}" want)
if(NOT "${sha}  result.json\n" STREQUAL want)
  message(FATAL_ERROR "${SNAPSHOT} resumed (SUSTAINAI_THREADS=${THREADS}) to "
    "result.json ${sha}; the uninterrupted run gives\n${want}")
endif()
