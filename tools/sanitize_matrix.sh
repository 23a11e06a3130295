#!/bin/sh
# Sanitizer pass over named test targets: configures build-asan
# (-DEFD_SANITIZE=ON: ASan+UBSan) or build-tsan (-DEFD_SANITIZE=thread) at
# the repository root, builds the targets, runs each test binary, and prints
# its gtest pass count and the number of sanitizer reports it raised. Not
# registered with ctest: a sanitized build roughly doubles tier-1 time.
#
# usage: tools/sanitize_matrix.sh <asan|tsan> <test-target>...
#   e.g. tools/sanitize_matrix.sh tsan test_campaign test_corpus
# Exit status 0 iff every binary passed with zero reports.
set -u

usage() {
  echo "usage: $0 <asan|tsan> <test-target>..." >&2
  exit 2
}

[ $# -ge 2 ] || usage
kind=$1
shift
case "$kind" in
  asan) sanitize=ON; pattern='ERROR: AddressSanitizer|ERROR: LeakSanitizer|runtime error:' ;;
  tsan) sanitize=thread; pattern='WARNING: ThreadSanitizer' ;;
  *) usage ;;
esac

root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build="$root/build-$kind"
jobs=$(nproc 2>/dev/null || echo 2)
[ "$jobs" -gt 4 ] && jobs=4

mkdir -p "$build"
blog="$build/sanitize_build.log"
if ! { cmake -B "$build" -S "$root" -DEFD_SANITIZE="$sanitize" &&
       cmake --build "$build" -j "$jobs" --target "$@"; } >"$blog" 2>&1; then
  tail -n 20 "$blog" >&2
  echo "$kind: build failed (log: $blog)" >&2
  exit 1
fi

fail=0
for target in "$@"; do
  bin="$build/tests/$target"
  log="$build/$target.sanitize.log"
  (cd "$build/tests" && "$bin") >"$log" 2>&1
  rc=$?
  passed=$(sed -n 's/^\[  PASSED  \] \([0-9]*\) tests\{0,1\}\..*/\1/p' "$log")
  failed=$(sed -n 's/^\[  FAILED  \] \([0-9]*\) tests\{0,1\}, listed below.*/\1/p' "$log")
  reports=$(grep -cE "$pattern" "$log")
  echo "$kind $target: passed ${passed:-0}, failed ${failed:-0}, reports $reports, exit $rc (log: $log)"
  if [ "$rc" != 0 ] || [ "$reports" != 0 ]; then fail=1; fi
done
exit $fail
