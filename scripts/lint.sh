#!/usr/bin/env bash
# The whole static-analysis gate in one entry point: clang-tidy (via
# scripts/run_clang_tidy.sh), ruff over the Python helpers, and the
# repo-convention greps.  CI's lint job runs this exact script, so a clean
# local run reproduces the gate.
#
# Usage: scripts/lint.sh [build-dir]
#
#   build-dir  forwarded to run_clang_tidy.sh (default build-tidy).
#
# Tools that are not installed are *skipped with a notice* locally but are
# hard failures when CI=true -- the greps always run (they need nothing but
# grep).
set -uo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build-tidy}"
STRICT="${CI:-false}"
FAILED=0

note() { echo "== $*"; }
fail() {
    echo "error: $*" >&2
    FAILED=1
}
missing_tool() {
    if [ "${STRICT}" = "true" ]; then
        fail "$1 not found (required in CI)"
    else
        note "$1 not found; skipping (runs in CI)"
    fi
}

# --- repo-convention greps (always run) ------------------------------------

# The library plus the support libraries tests and benches link: the
# convention greps cover the same trees as clang-tidy.
LINTED_DIRS=(src/ tests/support/ bench/support/)

# NO_THREAD_SAFETY_ANALYSIS opts a function out of Clang's capability
# analysis; shipped code must use proper LEQA_GUARDED_BY / LEQA_REQUIRES
# annotations instead.  Only the macro's own definition may mention it.
note "grep: NO_THREAD_SAFETY_ANALYSIS ban under ${LINTED_DIRS[*]}"
if grep -rn "LEQA_NO_THREAD_SAFETY_ANALYSIS" "${LINTED_DIRS[@]}" \
        | grep -v "src/util/thread_annotations.h"; then
    fail "NO_THREAD_SAFETY_ANALYSIS is reserved for test helpers"
fi

# Raw assert() vanishes under NDEBUG with no diagnostic and no fail-handler
# hook; library code uses LEQA_CHECK (always on) or LEQA_DCHECK (Debug-only,
# death-testable) from util/check.h instead.
note "grep: raw assert( ban under ${LINTED_DIRS[*]}"
if grep -rn --include='*.cpp' --include='*.h' -E '(^|[^_[:alnum:]])assert\(' \
        "${LINTED_DIRS[@]}"; then
    fail "raw assert( in ${LINTED_DIRS[*]}; use LEQA_CHECK / LEQA_DCHECK (util/check.h)"
fi

# --- clang-tidy -------------------------------------------------------------

if command -v "${CLANG_TIDY:-clang-tidy}" >/dev/null 2>&1; then
    note "clang-tidy"
    scripts/run_clang_tidy.sh "${BUILD_DIR}" || fail "clang-tidy reported issues"
else
    missing_tool "${CLANG_TIDY:-clang-tidy}"
fi

# --- ruff -------------------------------------------------------------------

if command -v ruff >/dev/null 2>&1; then
    note "ruff"
    ruff check bench/compare_baseline.py tests/server_smoke.py \
        || fail "ruff reported issues"
else
    missing_tool ruff
fi

if [ "${FAILED}" -ne 0 ]; then
    echo "lint: FAIL" >&2
    exit 1
fi
echo "lint: clean"
