#!/usr/bin/env bash
# loc.sh prints the size of the program as ROADMAP.md tracks it: the number
# of non-test, non-blank, non-comment lines of Go outside benchmark/ and
# .bench_build/. With -t it prints the same count for the test files.
#
#   scripts/loc.sh       # non-test lines
#   scripts/loc.sh -t    # test lines
set -euo pipefail
cd "$(dirname "$0")/.."
test=(! -name '*_test.go')
if [[ "${1:-}" == "-t" ]]; then
	test=(-name '*_test.go')
fi
find . -name '*.go' "${test[@]}" \
	-not -path './benchmark/*' -not -path './.bench_build/*' -not -path './.git/*' -print0 |
	xargs -0 cat | grep -cv -E '^[[:space:]]*(//|$)'
