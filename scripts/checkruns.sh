#!/usr/bin/env bash
# checkruns.sh — fail when a -run selector in the CI workflow selects no test.
#
#   ./scripts/checkruns.sh
#
# A go test -run pattern that matches nothing passes silently, so a CI step
# that names a renamed or deleted test would stop testing it unseen. For
# every `go test ... -run <pattern> <packages>` command in
# .github/workflows/ci.yml, this splits the pattern at its `|` alternatives
# and asks `go test -list` (with -race when the command has it) whether
# each alternative names a test, benchmark, fuzz target or example in the
# command's packages. The bench steps' `-run xxx` and `-run '^$'`, which
# select nothing on purpose, are skipped.
set -euo pipefail

cd "$(dirname "$0")/.."

quoted="-run '([^']*)'"
bare="-run ([^ ]+)"
fail=0
while IFS= read -r line; do
    if [[ $line =~ $quoted ]] || [[ $line =~ $bare ]]; then
        pattern=${BASH_REMATCH[1]}
    else
        continue
    fi
    case $pattern in
    xxx | '^$') continue ;;
    esac
    pkgs=()
    set -f
    for word in $line; do
        case $word in
        . | ./*) pkgs+=("$word") ;;
        esac
    done
    set +f
    flags=()
    if [[ " $line " == *" -race "* ]]; then
        flags+=(-race)
    fi
    IFS='|' read -ra alts <<<"$pattern"
    for alt in "${alts[@]}"; do
        # -list matches top-level names only; a /subtest part is not checked.
        out=$(go test "${flags[@]}" -list "${alt%%/*}" "${pkgs[@]}")
        if ! grep -v '^\(ok\|?\) ' <<<"$out" | grep -q .; then
            echo "ci.yml: -run alternative '$alt' selects no test in ${pkgs[*]}" >&2
            fail=1
        fi
    done
done < <(grep -E '(^|[[:space:]])go test .*-run ' .github/workflows/ci.yml)

if [ "$fail" -ne 0 ]; then
    exit 1
fi
echo "every -run alternative in ci.yml selects at least one test"
