#!/usr/bin/env bash
# require-tests.sh PKG NAME... fails unless each NAME is a test, fuzz
# target, benchmark or example that `go test -list` names in PKG. A -run
# or -fuzz regex that matches nothing exits 0, so a step that names its
# tests calls this first and a renamed test cannot leave it silently.
set -euo pipefail
pkg=$1
shift
# All of the listing is read before grep sees it: a pipe into grep -q
# would close early and kill go test with SIGPIPE under pipefail.
listed=$(go test -list . "$pkg")
for name in "$@"; do
  grep -qx "$name" <<<"$listed" || { echo "no test is named $name in $pkg" >&2; exit 1; }
done
