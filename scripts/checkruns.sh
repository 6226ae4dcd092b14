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
#
# It also fails when a fuzz target that `go test -list '^Fuzz' ./...`
# reports has no `go test ... -fuzz '^Name$' ... <package dir>` command in
# ci.yml, so a new target cannot go unfuzzed unseen.
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

mod=$(go list -m)
names=()
while IFS= read -r line; do
    case $line in
    Fuzz*) names+=("$line") ;;
    ok*)
        # go test -list prints a package's names before its "ok" line.
        pkg=$(awk '{print $2}' <<<"$line")
        dir=.${pkg#"$mod"}
        for name in "${names[@]}"; do
            if ! grep -F -- "-fuzz '^$name\$'" .github/workflows/ci.yml |
                grep -qE "(^|[[:space:]])${dir//./\\.}/?([[:space:]]|\$)"; then
                echo "ci.yml: fuzz target $name in $dir has no -fuzz '^$name\$' command" >&2
                fail=1
            fi
        done
        names=()
        ;;
    esac
done < <(go test -list '^Fuzz' ./...)

if [ "$fail" -ne 0 ]; then
    exit 1
fi
echo "every -run alternative in ci.yml selects at least one test, and every fuzz target runs in the fuzz smoke step"
