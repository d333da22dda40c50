# Runs one scenario into a fresh bundle directory and checks the sha256 of
# every file the bundle holds against a checked-in digest list:
#
#   cmake -DCLI=<sustainai> -DSPEC=<spec.json> -DOUT=<dir> -DTHREADS=<n>
#         -DDIGESTS=<file> ["-DARGS=<extra run args>"] [-DWHOLE=<file>]
#         [-DUPDATE=ON] -P bundle_digests.cmake
#
# DIGESTS holds one `<sha256>  <file name>` line per bundle file, sorted by
# name (sha256sum's format). A missing, extra or changed file fails the
# check and prints the bundle's actual list. WHOLE names the digest list of
# the unsegmented run: every file but trace.json (which carries one span per
# segment) must then have the same digest there too. UPDATE=ON rewrites
# DIGESTS from the bundle instead of checking it.
file(REMOVE_RECURSE "${OUT}")
set(ENV{SUSTAINAI_THREADS} "${THREADS}")
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${CLI}" run "${SPEC}" --out "${OUT}" ${args}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "sustainai run ${SPEC} ${ARGS}: exit ${rc}\n${out}")
endif()

file(GLOB files RELATIVE "${OUT}" "${OUT}/*")
list(SORT files)
set(actual "")
foreach(name IN LISTS files)
  file(SHA256 "${OUT}/${name}" sha)
  string(APPEND actual "${sha}  ${name}\n")
endforeach()

if(UPDATE)
  file(WRITE "${DIGESTS}" "${actual}")
  return()
endif()
file(READ "${DIGESTS}" want)
if(NOT actual STREQUAL want)
  message(FATAL_ERROR "${OUT} (SUSTAINAI_THREADS=${THREADS}) does not match "
    "${DIGESTS}\nactual:\n${actual}expected:\n${want}")
endif()

if(DEFINED WHOLE)
  file(STRINGS "${WHOLE}" whole_lines)
  string(REPLACE "\n" ";" lines "${want}")
  foreach(line IN LISTS lines)
    if(line STREQUAL "" OR line MATCHES "  trace[.]json$")
      continue()
    endif()
    list(FIND whole_lines "${line}" found)
    if(found EQUAL -1)
      message(FATAL_ERROR "${line}: differs from the unsegmented run (${WHOLE})")
    endif()
  endforeach()
endif()
