#!/usr/bin/env bash
# run-named-tests.sh runs the named Go tests and fails unless every one of
# them ran and passed. `go test -run` exits 0 when its pattern matches
# nothing, so a renamed or deleted test would otherwise leave a CI or
# Makefile gate silently empty.
#
# Usage: TESTS='TestA TestB' bash tools/run-named-tests.sh [go test flags] packages...
# (GO selects the go command, default go.)
set -euo pipefail
: "${TESTS:?set TESTS to the space-separated top-level test names}"
pattern="^($(echo $TESTS | tr ' ' '|'))\$"
log=$(mktemp)
trap 'rm -f "$log"' EXIT
"${GO:-go}" test -v -run "$pattern" "$@" 2>&1 | tee "$log"
for name in $TESTS; do
	if ! grep -q "^--- PASS: $name " "$log"; then
		echo "run-named-tests: $name did not run and pass" >&2
		exit 1
	fi
done
