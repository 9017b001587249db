#!/usr/bin/env bash
#
# One-command local entry point for the correctness-analysis matrix,
# mirroring .github/workflows/ci.yml:
#
#   1. Release build + full ctest (invariant checkers on)
#   2. mmr-lint over src/          (fixture self-test + project rules)
#   3. ASan+UBSan build + full ctest
#   4. clang-tidy over src/        (skipped when not installed)
#   5. clang-format --dry-run      (skipped when not installed)
#
# Every build exports build/compile_commands.json (CMake default in
# this tree); clang-tidy consumes it.
#
# Usage:
#   scripts/run_analysis.sh           # full matrix
#   scripts/run_analysis.sh --quick   # release build + ctest + lint
#   scripts/run_analysis.sh --tsan    # add a ThreadSanitizer pass
#
# Exits non-zero on the first failing stage.

set -u

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
JOBS="$(nproc 2>/dev/null || echo 4)"
QUICK=0
TSAN=0

for arg in "$@"; do
    case "$arg" in
        --quick) QUICK=1 ;;
        --tsan) TSAN=1 ;;
        -h|--help)
            sed -n '2,18p' "$0" | sed 's/^# \{0,1\}//'
            exit 0
            ;;
        *)
            echo "unknown option: $arg (try --help)" >&2
            exit 2
            ;;
    esac
done

failures=0

note() { printf '\n==> %s\n' "$*"; }

run_stage() {
    # run_stage <name> <command...>
    local name="$1"
    shift
    note "$name"
    if "$@"; then
        echo "    [ok] $name"
    else
        echo "    [FAIL] $name" >&2
        failures=$((failures + 1))
    fi
}

build_and_test() {
    # build_and_test <build-dir> <extra cmake args...>
    local dir="$1"
    shift
    cmake -B "$ROOT/$dir" -S "$ROOT" "$@" >/dev/null &&
        cmake --build "$ROOT/$dir" -j "$JOBS" &&
        ctest --test-dir "$ROOT/$dir" --output-on-failure -j "$JOBS"
}

# ---------------------------------------------------------------- 1.
run_stage "release build + ctest (invariants on)" \
    build_and_test build -DCMAKE_BUILD_TYPE=RelWithDebInfo

# ---------------------------------------------------------------- 2.
# mmr-lint: project-semantic rules (determinism, hot-path allocation,
# Clocked contracts, Cycle hygiene), run by its bundled token backend.
if command -v python3 >/dev/null 2>&1; then
    run_stage "mmr-lint fixture self-test" \
        python3 "$ROOT/tests/lint/run_fixtures.py"
    run_stage "mmr-lint over src/" \
        python3 "$ROOT/tools/mmr-lint/mmr_lint.py" --root "$ROOT" src
else
    note "python3 not installed -- skipping mmr-lint"
fi

if [ "$QUICK" -eq 1 ]; then
    [ "$failures" -eq 0 ] && note "quick pass clean"
    exit "$failures"
fi

# ---------------------------------------------------------------- 3.
run_stage "ASan+UBSan build + ctest" \
    build_and_test build-asan "-DMMR_SANITIZE=address;undefined"

if [ "$TSAN" -eq 1 ]; then
    run_stage "TSan build + ctest" \
        build_and_test build-tsan "-DMMR_SANITIZE=thread"
fi

# ---------------------------------------------------------------- 4.
if command -v clang-tidy >/dev/null 2>&1; then
    note "clang-tidy over src/"
    if find "$ROOT/src" -name '*.cc' -print0 |
        xargs -0 -n 8 -P "$JOBS" clang-tidy -p "$ROOT/build" --quiet; then
        echo "    [ok] clang-tidy"
    else
        echo "    [FAIL] clang-tidy" >&2
        failures=$((failures + 1))
    fi
else
    note "clang-tidy not installed -- skipping"
fi

# ---------------------------------------------------------------- 5.
if command -v clang-format >/dev/null 2>&1; then
    note "clang-format --dry-run"
    if find "$ROOT/src" "$ROOT/tests" "$ROOT/bench" "$ROOT/examples" \
        \( -name '*.cc' -o -name '*.hh' \) -print0 |
        xargs -0 clang-format --dry-run --Werror; then
        echo "    [ok] clang-format"
    else
        echo "    [FAIL] clang-format" >&2
        failures=$((failures + 1))
    fi
else
    note "clang-format not installed -- skipping"
fi

if [ "$failures" -eq 0 ]; then
    note "analysis matrix clean"
else
    note "$failures stage(s) failed"
fi
exit "$failures"
