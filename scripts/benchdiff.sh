#!/bin/sh
# Compare two bench.sh baselines and fail on ns/op regressions.
#
# Usage: scripts/benchdiff.sh [old.json new.json]
#        scripts/benchdiff.sh -ab REV [old.json new.json]
#
# -ab REV is a same-machine A/B: it extracts commit REV into a
# temporary directory (git archive, offline) and runs this checkout's
# scripts/bench.sh there and in the working tree back to back, one run
# each per round for COUNT rounds (default 5), so drift in the
# machine's load hits both sides alike. It then gates the pair as
# below. Give old.json and new.json to keep the two baselines;
# otherwise they are temporary. BENCH_PKGS and BENCHTIME pass through
# to bench.sh.
#
# With no arguments the two most recent BENCH_PR<N>.json baselines in
# the repo root (override with BENCH_DIR) are compared, newest as NEW.
# "Most recent" is by the PR number N compared numerically — a
# lexicographic glob would sort BENCH_PR10.json before BENCH_PR9.json
# and silently diff against the wrong PR once numbers reach two digits.
#
# Benchmarks present in both files are compared by ns_per_op and, when
# both sides carry them, allocs_per_op and bytes_per_op; any shared
# benchmark that slowed — or grew its allocation count or bytes — by
# more than THRESHOLD percent (default 20) fails the script. A
# benchmark that was allocation-free in the old baseline and allocates
# at all in the new one fails too: 0 -> N has no finite percentage and
# is exactly the hot-path regression the gate exists to catch.
# log_B, the byte size of a deterministic event log, must repeat
# exactly, so any growth in it fails. Timing-dependent custom metrics
# (frames_op, MB_s) are not gated. Benchmarks present only in the new
# file are reported as "new benchmark" — not a regression, but
# visible, so a rename that silently drops a benchmark from comparison
# is noticed. Retired benchmarks carry no signal and are ignored. Both
# files must exist and contain benchmarks: a missing or empty baseline
# means `make bench` has not been run for that PR, which should fail
# loudly rather than vacuously pass.
set -eu
cd "$(dirname "$0")/.."

BENCH_DIR=${BENCH_DIR:-.}
THRESHOLD=${THRESHOLD:-20}

if [ "${1:-}" = "-ab" ]; then
    if [ "$#" -ne 2 ] && [ "$#" -ne 4 ]; then
        echo "usage: scripts/benchdiff.sh -ab REV [old.json new.json]" >&2
        exit 1
    fi
    REV=$2
    if ! git rev-parse --verify --quiet "$REV^{commit}" >/dev/null; then
        echo "benchdiff: unknown revision $REV" >&2
        exit 1
    fi
    TMPD=$(mktemp -d)
    trap 'rm -rf "$TMPD"' EXIT
    OLD=${3:-$TMPD/old.json}
    NEW=${4:-$TMPD/new.json}
    case $OLD in /*) ;; *) OLD=$PWD/$OLD ;; esac
    case $NEW in /*) ;; *) NEW=$PWD/$NEW ;; esac
    mkdir "$TMPD/tree"
    git archive "$REV" | tar -x -C "$TMPD/tree"
    # Both sides run this checkout's bench.sh, so the package list and
    # name handling match.
    cp scripts/bench.sh "$TMPD/tree/scripts/bench.sh"
    round=0
    while [ "$round" -lt "${COUNT:-5}" ]; do
        round=$((round + 1))
        echo "== round $round: $REV ==" >&2
        COUNT=1 BENCH_LOG="$TMPD/old.log" GOPROXY=off sh "$TMPD/tree/scripts/bench.sh" "$OLD" >&2
        echo "== round $round: working tree ==" >&2
        COUNT=1 BENCH_LOG="$TMPD/new.log" GOPROXY=off sh scripts/bench.sh "$NEW" >&2
    done
elif [ "$#" -ge 2 ]; then
    OLD=$1
    NEW=$2
else
    nums=$(find "$BENCH_DIR" -maxdepth 1 -name 'BENCH_PR*.json' 2>/dev/null \
        | sed -n 's/.*BENCH_PR\([0-9][0-9]*\)\.json$/\1/p' | sort -n | tail -2)
    if [ "$(printf '%s\n' "$nums" | grep -c '[0-9]')" -lt 2 ]; then
        echo "benchdiff: need at least two BENCH_PR<N>.json baselines in $BENCH_DIR (run scripts/bench.sh BENCH_PR<N>.json)" >&2
        exit 1
    fi
    OLD="$BENCH_DIR/BENCH_PR$(printf '%s\n' "$nums" | head -1).json"
    NEW="$BENCH_DIR/BENCH_PR$(printf '%s\n' "$nums" | tail -1).json"
fi

for f in "$OLD" "$NEW"; do
    if [ ! -f "$f" ]; then
        echo "benchdiff: missing $f (run scripts/bench.sh $f first)" >&2
        exit 1
    fi
done

awk -v threshold="$THRESHOLD" -v oldfile="$OLD" -v newfile="$NEW" '
# num sets V to the number stored under key in line and returns 1, or
# returns 0 when the line has no such field.
function num(line, key) {
    if (match(line, "\"" key "\": [0-9.eE+-]+") == 0) return 0
    V = substr(line, RSTART + length(key) + 4, RLENGTH - length(key) - 4) + 0
    return 1
}
# parse extracts package/name/ns_per_op (and allocs_per_op,
# bytes_per_op and log_B when the line carries them — benchmarks run
# without -benchmem do not) from one bench.sh JSON line into K, NS,
# APO/HASA, BPO/HASB and LOGB/HASL; bench.sh writes one object per line,
# so a line-wise scan is exact for these files.
function parse(line) {
    if (line !~ /"name": "Benchmark/) return 0
    match(line, /"package": "[^"]*"/)
    pkg = substr(line, RSTART + 12, RLENGTH - 13)
    match(line, /"name": "[^"]*"/)
    nm = substr(line, RSTART + 9, RLENGTH - 10)
    if (!num(line, "ns_per_op")) return 0
    NS = V
    HASA = num(line, "allocs_per_op"); APO = HASA ? V : 0
    HASB = num(line, "bytes_per_op"); BPO = HASB ? V : 0
    HASL = num(line, "log_B"); LOGB = HASL ? V : 0
    K = pkg "/" nm
    return 1
}
# gate applies the allocation rule to one figure of K: growth beyond
# the threshold fails, and so does any growth from zero.
function gate(unit, old, new,    d) {
    if (old == 0) {
        if (new > 0) {
            printf("REGRESSION: %s was allocation-free, now %d %s\n", K, new, unit)
            bad++
        }
        return
    }
    d = (new - old) / old * 100
    if (d > threshold) {
        printf("REGRESSION: %s %s grew %.1f%% (%d -> %d, limit %d%%)\n", K, unit, d, old, new, threshold)
        bad++
    }
}
NR == FNR {
    if (parse($0)) {
        base[K] = NS
        if (HASA) { basea[K] = APO; baseha[K] = 1 }
        if (HASB) { baseb[K] = BPO; basehb[K] = 1 }
        if (HASL) { basel[K] = LOGB; basehl[K] = 1 }
    }
    next
}
{
    if (!parse($0)) next
    if (!(K in base)) {
        printf("%-66s %26s %11.1f ns/op  new benchmark\n", K, "", NS)
        fresh++
        next
    }
    shared++
    delta = (NS - base[K]) / base[K] * 100
    printf("%-66s %11.1f -> %11.1f ns/op  %+7.1f%%", K, base[K], NS, delta)
    if (baseha[K] && HASA) printf("  %6d -> %6d allocs/op", basea[K], APO)
    if (basehl[K] && HASL) printf("  %d -> %d log_B", basel[K], LOGB)
    printf("\n")
    if (delta > threshold) {
        printf("REGRESSION: %s slowed %.1f%% (limit %d%%)\n", K, delta, threshold)
        bad++
    }
    # The allocation gates only engage when both baselines measured the
    # figure: a baseline recorded before -benchmem coverage carries no
    # signal to regress against.
    if (baseha[K] && HASA) gate("allocs/op", basea[K], APO)
    if (basehb[K] && HASB) gate("B/op", baseb[K], BPO)
    if (basehl[K] && HASL && LOGB > basel[K]) {
        printf("REGRESSION: %s log_B grew %d -> %d (deterministic: must not grow)\n", K, basel[K], LOGB)
        bad++
    }
}
END {
    if (shared == 0) {
        print "benchdiff: no shared benchmarks between " oldfile " and " newfile > "/dev/stderr"
        exit 1
    }
    if (bad > 0) exit 1
    msg = "benchdiff: " shared " shared benchmarks within " threshold "% of " oldfile
    if (fresh > 0) msg = msg ", " fresh " new in " newfile
    print msg
}
' "$OLD" "$NEW"
