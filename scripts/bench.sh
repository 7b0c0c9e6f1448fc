#!/bin/sh
# Benchmark the hot packages and write a machine-readable baseline.
#
# Usage: scripts/bench.sh [output.json]
#
# Runs `go test -bench` over the performance-sensitive packages (the
# simulator's event loop, the online session facade, the batch
# planners, envelope construction, the order-statistic tree, the
# dynamic single-core scheduler, the LMC online policy, the trace
# codecs, the HTTP service, and the cluster replication stream) and
# converts the results into a JSON array so successive PRs can diff
# ns/op and allocs/op mechanically.
#
# Every benchmark runs COUNT times (default 5) for BENCHTIME each
# (default 1s; shorter runs let a burst of load from elsewhere on the
# machine move a figure by more than the benchdiff gate). Each recorded
# figure — ns/op, B/op, allocs/op and any custom metric, such as log-B
# as "log_B" — is the median over the runs; ns_per_op_min and
# ns_per_op_max record the spread. Names drop go test's -N GOMAXPROCS
# suffix, so baselines taken on machines with different core counts
# share names.
#
# BENCH_PKGS overrides the package list. BENCH_LOG=<file> appends this
# run's `go test -bench` log to <file> and converts the whole file, so
# repeated calls accumulate runs (benchdiff.sh -ab interleaves two trees
# this way); with COUNT=0 it only converts <file>.
set -eu
cd "$(dirname "$0")/.."

OUT=${1:-BENCH_PR31.json}
BENCHTIME=${BENCHTIME:-1s}
COUNT=${COUNT:-5}
PKGS=${BENCH_PKGS:-./internal/sim ./internal/core ./internal/batch ./internal/envelope ./internal/rangetree ./internal/dynsched ./internal/online ./internal/obs ./internal/server ./internal/cluster}

RAW=${BENCH_LOG:-}
if [ -z "$RAW" ]; then
    RAW=$(mktemp)
    trap 'rm -f "$RAW"' EXIT
fi
if [ "$COUNT" -gt 0 ]; then
    go test -run '^$' -bench . -benchmem -benchtime "$BENCHTIME" -count "$COUNT" $PKGS | tee -a "$RAW"
fi

awk '
# median of vals[key, 1..n], sorted in place.
function median(key, n,    i, j, v) {
    for (i = 2; i <= n; i++) {
        v = vals[key, i]
        for (j = i - 1; j >= 1 && vals[key, j] > v; j--) vals[key, j + 1] = vals[key, j]
        vals[key, j + 1] = v
    }
    if (n % 2) return vals[key, (n + 1) / 2]
    return (vals[key, n / 2] + vals[key, n / 2 + 1]) / 2
}
/^pkg: / { pkg = $2 }
/^Benchmark/ {
    if ($0 !~ / ns\/op/) next
    name = $1
    sub(/-[0-9]+$/, "", name)
    k = pkg SUBSEP name
    if (!(k in runs)) {
        order[++nk] = k
        iters[k] = $2
    }
    r = ++runs[k]
    for (i = 4; i <= NF; i += 2) {
        unit = $i
        if (unit == "ns/op") f = "ns_per_op"
        else if (unit == "B/op") f = "bytes_per_op"
        else if (unit == "allocs/op") f = "allocs_per_op"
        else { f = unit; gsub(/[^A-Za-z0-9]/, "_", f) }
        if (!((k, f) in seen)) { seen[k, f] = 1; fields[k] = fields[k] " " f }
        vals[k SUBSEP f, r] = $(i - 1)
    }
}
END {
    print "["
    for (o = 1; o <= nk; o++) {
        k = order[o]
        split(k, parts, SUBSEP)
        n = runs[k]
        printf("  {\"package\": \"%s\", \"name\": \"%s\", \"iterations\": %s, \"runs\": %d", parts[1], parts[2], iters[k], n)
        nf = split(fields[k], fs, " ")
        for (j = 1; j <= nf; j++) {
            m = median(k SUBSEP fs[j], n)
            printf(", \"%s\": %.10g", fs[j], m)
            if (fs[j] == "ns_per_op")
                printf(", \"ns_per_op_min\": %.10g, \"ns_per_op_max\": %.10g", vals[k SUBSEP fs[j], 1], vals[k SUBSEP fs[j], n])
        }
        printf("}%s\n", o < nk ? "," : "")
    }
    print "]"
}
' "$RAW" > "$OUT"

echo "wrote $OUT"
