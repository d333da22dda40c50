#!/usr/bin/env bash
# Configure, build, and test under AddressSanitizer + UndefinedBehavior-
# Sanitizer. The sanitized tree lives in build-sanitized/ so it never
# pollutes the regular build directory.
#
#   tools/run_sanitized.sh              # labeled suites (ctest -L sanitize):
#                                       #   fault/scenario, SIMD kernels,
#                                       #   planet, engine + kill/resume,
#                                       #   step state, bundle digests
#   tools/run_sanitized.sh --full       # the entire test suite, sanitized
#   SUSTAINAI_SANITIZE=thread tools/run_sanitized.sh   # other sanitizers
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${repo_root}/build-sanitized"
# GCC's `undefined` set leaves out float-cast-overflow, which catches a
# double cast to an integer it cannot fit (event times to step indices).
sanitizers="${SUSTAINAI_SANITIZE:-address,undefined,float-cast-overflow}"

cmake -S "${repo_root}" -B "${build_dir}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DSUSTAINAI_SANITIZE="${sanitizers}"
cmake --build "${build_dir}" -j "$(nproc)"

export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1}"

if [[ "${1:-}" == "--full" ]]; then
  ctest --test-dir "${build_dir}" --output-on-failure -j "$(nproc)"
else
  ctest --test-dir "${build_dir}" --output-on-failure -L sanitize
fi
