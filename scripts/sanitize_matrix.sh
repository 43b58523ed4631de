#!/usr/bin/env bash
# Builds and runs the test suite under the sanitizer/invariant matrix:
#
#   asan_ubsan   AddressSanitizer + UndefinedBehaviorSanitizer (Debug)
#   tsan         ThreadSanitizer (Debug) — executor, campaign and fairness
#                grid, store, and population streaming tests only: TSan
#                serializes everything else for no extra coverage
#   invariants   RelWithDebInfo with -DQPERC_ENABLE_INVARIANTS=ON, proving
#                every QPERC_DCHECK holds in an otherwise-release binary
#
#   scripts/sanitize_matrix.sh [--legs LIST] [--jobs N] [--keep]
#
#   --legs LIST  comma-separated subset (default: asan_ubsan,tsan,invariants)
#   --jobs N     parallel build/test jobs (default: nproc)
#   --keep       keep the build-sanitize-* trees (default: remove on success)
#
# Each leg builds into its own build-sanitize-<leg> tree so reruns are
# incremental. Exit 0 when every requested leg passes; first failing leg
# stops the matrix with exit 1.
set -u

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root" || exit 2

legs="asan_ubsan,tsan,invariants"
jobs="$(nproc 2>/dev/null || echo 1)"
keep=0
while [ $# -gt 0 ]; do
  case "$1" in
    --legs) legs="$2"; shift 2 ;;
    --jobs) jobs="$2"; shift 2 ;;
    --keep) keep=1; shift ;;
    *) echo "sanitize_matrix: unknown argument: $1" >&2; exit 2 ;;
  esac
done

run_leg() {
  leg="$1"
  build_dir="build-sanitize-$leg"
  case "$leg" in
    asan_ubsan)
      flags="-DCMAKE_BUILD_TYPE=Debug -DQPERC_ENABLE_ASAN=ON"
      # halt_on_error so UBSan findings fail the leg instead of scrolling by.
      env_prefix="UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 ASAN_OPTIONS=detect_leaks=1"
      test_filter=""
      ;;
    tsan)
      flags="-DCMAKE_BUILD_TYPE=Debug -DQPERC_ENABLE_TSAN=ON"
      env_prefix="TSAN_OPTIONS=halt_on_error=1"
      # The simulator core is single-threaded by design; only the executor,
      # the grids it drives (campaign, fairness), the stores their workers
      # put() into, and the population streaming engine cross threads.
      test_filter="-R '[Ee]xecutor|[Cc]ampaign|Fairness(Grid|Store|Cell)\.|fairness_smoke|Store(Mutation)?\.|CheckedFile|[Pp]opulation|study_smoke'"
      ;;
    invariants)
      flags="-DCMAKE_BUILD_TYPE=RelWithDebInfo -DQPERC_ENABLE_INVARIANTS=ON"
      env_prefix=""
      test_filter=""
      ;;
    *)
      echo "sanitize_matrix: unknown leg: $leg" >&2
      return 2
      ;;
  esac

  echo "sanitize_matrix: [$leg] configure + build ($build_dir)"
  # shellcheck disable=SC2086
  cmake -S . -B "$build_dir" $flags > /dev/null || return 1
  cmake --build "$build_dir" -j "$jobs" > /dev/null || return 1

  echo "sanitize_matrix: [$leg] ctest -j $jobs"
  # shellcheck disable=SC2086
  if ! (cd "$build_dir" && eval env $env_prefix ctest -j "$jobs" --output-on-failure $test_filter); then
    echo "sanitize_matrix: [$leg] FAILED" >&2
    return 1
  fi
  echo "sanitize_matrix: [$leg] OK"
  if [ "$keep" -eq 0 ]; then rm -rf "$build_dir"; fi
}

IFS=',' read -r -a requested <<< "$legs"
for leg in "${requested[@]}"; do
  run_leg "$leg" || exit 1
done
echo "sanitize_matrix: all legs OK ($legs)"
