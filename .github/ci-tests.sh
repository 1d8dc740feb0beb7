#!/usr/bin/env bash
# ci-tests.sh STEP FLAGS... runs the lines of .github/ci-tests.txt whose
# step is STEP, package by package in the order listed, passing FLAGS to
# go test: a package's tests in one run with an anchored -run, each fuzz
# target (-fuzz takes one) and benchmark in a run of its own.
set -euo pipefail
step=$1
shift
cd "$(dirname "$0")/.."
pkg= tests= n=0
run_tests() {
  if [ -n "$tests" ]; then go test "$@" -run "^(${tests// /|})\$" "$pkg"; fi
  tests=
}
while read -r s p name _ <&3; do
  [ "$s" = "$step" ] || continue
  [ "$p" = "$pkg" ] || run_tests "$@"
  pkg=$p n=$((n + 1))
  case $name in
  Fuzz*) go test "$@" -run '^$' -fuzz "^$name\$" "$pkg" ;;
  Benchmark*) go test "$@" -run '^$' -bench "^$name\$" "$pkg" ;;
  *) tests+="${tests:+ }$name" ;;
  esac
done 3<.github/ci-tests.txt
run_tests "$@"
[ "$n" -gt 0 ] || { echo "no step $step in .github/ci-tests.txt" >&2; exit 1; }
