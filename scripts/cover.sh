#!/bin/sh
# Per-package coverage gate for the engine-critical packages.
#
# Usage: scripts/cover.sh
#
# Runs the gated packages' tests with -race and -cover and fails if any
# package's statement coverage falls below its floor. Floors are set a
# few points under the level each package actually sustains, so they
# trip on real coverage collapses (a deleted test file, a build-tagged
# test going dark) without flaking on single-line refactors. Raise a
# floor when a package's coverage durably improves; never lower one to
# make a PR pass.
set -eu
cd "$(dirname "$0")/.."

# "<package> <floor-percent>" pairs; package is module-relative.
FLOORS='
internal/model 88
internal/envelope 90
internal/batch 92
internal/trace 90
internal/obs 90
internal/rangetree 90
internal/dynsched 80
internal/sim 85
internal/online 72
internal/core 83
internal/server 82
internal/cluster 77
internal/audit 90
'

PKGS=$(printf '%s\n' "$FLOORS" | awk 'NF { printf("./%s ", $1) }')
TMP=$(mktemp)
trap 'rm -f "$TMP"' EXIT

# shellcheck disable=SC2086 # PKGS is a deliberate word list
go test -race -cover $PKGS | tee "$TMP"

printf '%s\n' "$FLOORS" | awk -v resultfile="$TMP" '
NF { floor["dvfsched/" $1] = $2 + 0 }
END {
    bad = 0
    seen = 0
    while ((getline line < resultfile) > 0) {
        if (line !~ /^ok/ || line !~ /coverage:/) continue
        split(line, f)
        pkg = f[2]
        if (!(pkg in floor)) continue
        pct = f[5] + 0  # "94.4%" -> 94.4
        seen++
        if (pct < floor[pkg]) {
            printf("COVERAGE: %s at %.1f%%, floor %d%%\n", pkg, pct, floor[pkg])
            bad++
        }
    }
    n = 0
    for (pkg in floor) n++
    if (seen != n) {
        printf("cover: expected %d gated packages, saw %d coverage lines\n", n, seen) > "/dev/stderr"
        exit 1
    }
    if (bad > 0) exit 1
    printf("cover: %d packages at or above their floors\n", seen)
}
'
