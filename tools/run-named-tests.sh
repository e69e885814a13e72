#!/usr/bin/env bash
# run-named-tests.sh runs the named Go tests and fails unless every one of
# them ran and passed. `go test -run` exits 0 when its pattern matches
# nothing, so a renamed or deleted test would otherwise leave a CI or
# Makefile gate silently empty. A name may select a subtest
# (TestA/cell); a name with fewer levels than another runs all of its
# subtests.
#
# Usage: TESTS='TestA TestB/cell' bash tools/run-named-tests.sh [go test flags] packages...
# (GO selects the go command, default go.)
set -euo pipefail
: "${TESTS:?set TESTS to the space-separated test names}"
# go test splits -run on '/', one element per level, so build one
# alternation per level.
depth=1
for name in $TESTS; do
	IFS=/ read -ra parts <<<"$name"
	((${#parts[@]} > depth)) && depth=${#parts[@]}
done
pattern=""
for ((i = 0; i < depth; i++)); do
	alts=""
	for name in $TESTS; do
		IFS=/ read -ra parts <<<"$name"
		alt=".*"
		((i < ${#parts[@]})) && alt=${parts[i]}
		alts="${alts:+$alts|}$alt"
	done
	pattern="${pattern:+$pattern/}^($alts)\$"
done
log=$(mktemp)
trap 'rm -f "$log"' EXIT
"${GO:-go}" test -v -run "$pattern" "$@" 2>&1 | tee "$log"
for name in $TESTS; do
	# Subtests report indented.
	if ! grep -q "^ *--- PASS: $name " "$log"; then
		echo "run-named-tests: $name did not run and pass" >&2
		exit 1
	fi
done
