#!/usr/bin/env bash
# Tier-1 verify: configure, build everything, run the fast deterministic
# test label.  This is the gate every PR must keep green — CI runs the
# same steps (.github/workflows/ci.yml).
#
# Usage:
#   scripts/check.sh          # tier1 labels only (fast, < 2 min)
#   scripts/check.sh --all    # every registered test, slow suites included
set -euo pipefail

cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 2)"
CTEST_ARGS=(-L tier1)
if [[ "${1:-}" == "--all" ]]; then
    CTEST_ARGS=()
fi

cmake -B build -S . -DGLD_WERROR=ON
cmake --build build -j "${JOBS}"
ctest --test-dir build --output-on-failure -j "${JOBS}" "${CTEST_ARGS[@]}"
