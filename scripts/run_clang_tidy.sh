#!/usr/bin/env bash
# Run clang-tidy over the library + CLI sources and the test/bench support
# libraries with the checked-in .clang-tidy config, against a CMake compile
# database.  CI calls this exact script, so a clean local run reproduces
# the CI gate.
#
# Usage: scripts/run_clang_tidy.sh [build-dir]
#
#   build-dir  directory holding (or to receive) compile_commands.json;
#              defaults to build-tidy.  Configured on demand with
#              -DCMAKE_EXPORT_COMPILE_COMMANDS=ON.
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build-tidy}"
TIDY="${CLANG_TIDY:-clang-tidy}"

if ! command -v "${TIDY}" >/dev/null 2>&1; then
    echo "error: ${TIDY} not found (set CLANG_TIDY to override)" >&2
    exit 2
fi

if [ ! -f "${BUILD_DIR}/compile_commands.json" ]; then
    cmake -S . -B "${BUILD_DIR}" \
        -DCMAKE_BUILD_TYPE=Release \
        -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
        ${CMAKE_CONFIGURE_ARGS:-}
fi

# Every translation unit under src/, tests/support/ and bench/support/.
# The support libraries are configured with tests and benches off, so the
# compile database always holds them.  (Test and bench executables are
# covered by the compiler-side -Werror legs.)
mapfile -t SOURCES < <(git ls-files 'src/*.cpp' 'tests/support/*.cpp' \
                           'bench/support/*.cpp' | sort)

if [ "${#SOURCES[@]}" -eq 0 ]; then
    echo "error: no sources found under src/" >&2
    exit 2
fi

echo "clang-tidy (${TIDY}) over ${#SOURCES[@]} translation units"

STATUS=0
JOBS="${TIDY_JOBS:-$(nproc)}"
printf '%s\n' "${SOURCES[@]}" \
    | xargs -P "${JOBS}" -n 1 "${TIDY}" -p "${BUILD_DIR}" --quiet \
    || STATUS=$?

if [ "${STATUS}" -ne 0 ]; then
    echo "clang-tidy: FAIL" >&2
    exit 1
fi
echo "clang-tidy: clean"
