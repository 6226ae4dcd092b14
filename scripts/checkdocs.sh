#!/bin/sh
# checkdocs.sh — fail when any package is missing its package comment.
#
# Every internal/* package (and the root bfdn package) must open with a
# doc comment stating what it implements and, where applicable, which part
# of the paper it reproduces. go list exposes the parsed comment as .Doc;
# an empty .Doc means the package has none.
set -eu

cd "$(dirname "$0")/.."

missing=$(go list -f '{{if not .Doc}}{{.ImportPath}}{{end}}' ./internal/... .)
if [ -n "$missing" ]; then
    echo "packages missing a package comment:" >&2
    echo "$missing" >&2
    exit 1
fi

# Benchmark records ride with the code: every perf PR commits its
# BENCH_<PR>.json (written by scripts/bench.sh) so regressions are
# diffable. Fail when none exists at the repo root.
found=0
for f in BENCH_*.json; do
    [ -e "$f" ] && found=1 && break
done
if [ "$found" -eq 0 ]; then
    echo "no BENCH_*.json at the repo root; run scripts/bench.sh" >&2
    exit 1
fi

# Checkpoint/restore surfaces must anchor to the design doc: the jobstore
# package comment names its DESIGN.md section, and DESIGN.md has that
# section, so a reader of either can find the other. (The per-algorithm
# Snapshot/Restore hooks live in snapshot.go files whose package comments
# are covered by the .Doc check above.)
if ! go list -f '{{.Doc}}' ./internal/jobstore | grep -q 'S30'; then
    echo "internal/jobstore package comment must cite its design section (DESIGN.md S30)" >&2
    exit 1
fi
if ! grep -q '^### S30' DESIGN.md; then
    echo "DESIGN.md is missing section S30 (persistent job store), cited by internal/jobstore" >&2
    exit 1
fi

# OPERATIONS.md drift checks: the metric catalog must list exactly what the
# code registers, and the endpoint list exactly what the daemon serves —
# both directions each (an undocumented addition fails, and so does a
# runbook step naming a metric or route that no longer exists). The checks
# are Go tests because recorder names are assembled from prefixes at
# registration time (sweep.NewNamedRecorder) and routes live in the
# server's mux catalog, neither resolvable by grep over source text. The
# same package checks that every bfdn.Name cited in README.md, OPERATIONS.md
# and DESIGN.md is still exported by the root package.
go test -count=1 ./internal/opscheck/ >/dev/null || {
    echo "docs drifted from the code (OPERATIONS.md catalogs or cited bfdn names); run: go test ./internal/opscheck/" >&2
    exit 1
}

echo "all packages documented, benchmark records present, metric and endpoint catalogs and cited bfdn names in sync"
