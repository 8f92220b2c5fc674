#!/usr/bin/env bash
# Parallel-repeat gate for the tier-1 suite: build the default tree and run
# every CTest entry three times over at full parallelism, stopping at the
# first failure.  Tests that share a fixed temp path, or otherwise depend
# on running alone, fail here long before they flake in a normal run.
#   scripts/check_ctest_repeat.sh            (BUILD_DIR defaults to build)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"

cmake -B "${BUILD_DIR}" -S .
cmake --build "${BUILD_DIR}" -j
cd "${BUILD_DIR}"
# The sanitizer gates build their own trees: they are not tier-1 tests.
ctest -j"$(nproc)" --repeat until-fail:3 --output-on-failure -LE sanitize
echo "ctest repeat clean: every tier-1 test passed 3 rounds at -j$(nproc)."
