#!/usr/bin/env bash
# Tier-1 verification: configure, build everything, run the test suite.
# Extra arguments go to the configure step, e.g.
#   scripts/verify.sh -DCMAKE_CXX_FLAGS=-Werror
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -S . "$@"
cmake --build build -j
cd build
ctest --output-on-failure -j
