#!/bin/sh
# Shell test for scripts/benchdiff.sh: the failure modes that must not
# pass vacuously (missing or empty baselines), the regression gate, the
# "new benchmark" report, bench.sh's conversion of go test output, and
# the same-machine A/B mode.
#
# Usage: scripts/benchdiff_test.sh
set -eu
cd "$(dirname "$0")/.."

DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT

line() {
    printf '  {"package": "%s", "name": "%s", "iterations": 100, "ns_per_op": %s}' "$1" "$2" "$3"
}

# linea is line with bytes/allocs fields, as bench.sh emits under -benchmem.
linea() {
    printf '  {"package": "%s", "name": "%s", "iterations": 100, "ns_per_op": %s, "bytes_per_op": 64, "allocs_per_op": %s}' "$1" "$2" "$3" "$4"
}

# linex is linea with its bytes/op given and custom metric fields
# (", \"log_B\": 7", ...) appended.
linex() {
    printf '  {"package": "%s", "name": "%s", "iterations": 100, "ns_per_op": %s, "bytes_per_op": %s, "allocs_per_op": %s%s}' "$1" "$2" "$3" "$4" "$5" "$6"
}

fails=0
fail() {
    echo "FAIL: $1" >&2
    fails=$((fails + 1))
}

# expect <status> <needle> <label> [args...]: run benchdiff.sh with the
# given baselines, require the exit status and an output substring.
expect() {
    want=$1; needle=$2; label=$3; shift 3
    got=0
    out=$(scripts/benchdiff.sh "$@" 2>&1) || got=$?
    if [ "$got" != "$want" ]; then
        fail "$label: exit $got, want $want
$out"
        return
    fi
    case $out in
    *"$needle"*) ;;
    *) fail "$label: output missing \"$needle\"
$out" ;;
    esac
}

# Two healthy baselines sharing one benchmark; the new file also adds
# one and speeds the shared one up slightly.
{
    echo '['
    line pkg/a BenchmarkShared 100.0
    echo ''
    echo ']'
} > "$DIR/old.json"
{
    echo '['
    line pkg/a BenchmarkShared 90.0
    echo ','
    line pkg/a BenchmarkAdded 42.0
    echo ''
    echo ']'
} > "$DIR/new.json"

expect 0 "new benchmark" "new benchmark reported" "$DIR/old.json" "$DIR/new.json"
expect 0 "1 shared benchmarks" "shared count reported" "$DIR/old.json" "$DIR/new.json"

# A >20% slowdown on the shared benchmark must fail.
{
    echo '['
    line pkg/a BenchmarkShared 130.0
    echo ''
    echo ']'
} > "$DIR/slow.json"
expect 1 "REGRESSION" "regression gate" "$DIR/old.json" "$DIR/slow.json"

# The allocation gate: >20% allocs/op growth fails even with ns/op
# flat, growth within the threshold passes, an allocation-free
# benchmark that starts allocating fails, and a pairing where only one
# side measured allocs is not gated.
{
    echo '['
    linea pkg/a BenchmarkAlloc 100.0 100
    echo ','
    linea pkg/a BenchmarkZero 100.0 0
    echo ''
    echo ']'
} > "$DIR/alloc_old.json"
{
    echo '['
    linea pkg/a BenchmarkAlloc 100.0 130
    echo ','
    linea pkg/a BenchmarkZero 100.0 0
    echo ''
    echo ']'
} > "$DIR/alloc_grew.json"
expect 1 "allocs/op grew" "allocs regression gate" "$DIR/alloc_old.json" "$DIR/alloc_grew.json"
{
    echo '['
    linea pkg/a BenchmarkAlloc 100.0 110
    echo ','
    linea pkg/a BenchmarkZero 100.0 0
    echo ''
    echo ']'
} > "$DIR/alloc_ok.json"
expect 0 "2 shared benchmarks" "allocs within threshold" "$DIR/alloc_old.json" "$DIR/alloc_ok.json"
{
    echo '['
    linea pkg/a BenchmarkAlloc 100.0 100
    echo ','
    linea pkg/a BenchmarkZero 100.0 3
    echo ''
    echo ']'
} > "$DIR/alloc_zero_broken.json"
expect 1 "allocation-free" "zero-to-nonzero allocs gate" "$DIR/alloc_old.json" "$DIR/alloc_zero_broken.json"
{
    echo '['
    line pkg/a BenchmarkAlloc 100.0
    echo ','
    line pkg/a BenchmarkZero 100.0
    echo ''
    echo ']'
} > "$DIR/alloc_none.json"
expect 0 "2 shared benchmarks" "old baseline without allocs is not gated" "$DIR/alloc_none.json" "$DIR/alloc_grew.json"

# The byte gate follows the allocation rule: >20% bytes/op growth
# fails, growth within the threshold passes, and a benchmark that
# allocated no bytes and now does fails.
printf '[\n%s,\n%s\n]\n' "$(linex pkg/a BenchmarkBytes 100.0 1000 5 '')" \
    "$(linex pkg/a BenchmarkNoBytes 100.0 0 0 '')" > "$DIR/bytes_old.json"
printf '[\n%s,\n%s\n]\n' "$(linex pkg/a BenchmarkBytes 100.0 1300 5 '')" \
    "$(linex pkg/a BenchmarkNoBytes 100.0 0 0 '')" > "$DIR/bytes_grew.json"
expect 1 "B/op grew" "bytes regression gate" "$DIR/bytes_old.json" "$DIR/bytes_grew.json"
printf '[\n%s,\n%s\n]\n' "$(linex pkg/a BenchmarkBytes 100.0 1150 5 '')" \
    "$(linex pkg/a BenchmarkNoBytes 100.0 0 0 '')" > "$DIR/bytes_ok.json"
expect 0 "2 shared benchmarks" "bytes within threshold" "$DIR/bytes_old.json" "$DIR/bytes_ok.json"
printf '[\n%s,\n%s\n]\n' "$(linex pkg/a BenchmarkBytes 100.0 1000 5 '')" \
    "$(linex pkg/a BenchmarkNoBytes 100.0 48 0 '')" > "$DIR/bytes_zero_broken.json"
expect 1 "now 48 B/op" "zero-to-nonzero bytes gate" "$DIR/bytes_old.json" "$DIR/bytes_zero_broken.json"

# log_B is deterministic: growing by a single byte fails, while an
# equal or smaller log passes. Timing-dependent custom metrics
# (frames_op, MB_s) stay ungated however far they move.
printf '[\n%s\n]\n' "$(linex pkg/a BenchmarkLog 100.0 1000 5 ', "log_B": 236007, "frames_op": 4, "MB_s": 100')" > "$DIR/log_old.json"
printf '[\n%s\n]\n' "$(linex pkg/a BenchmarkLog 100.0 1000 5 ', "log_B": 236008, "frames_op": 4, "MB_s": 100')" > "$DIR/log_grew.json"
expect 1 "log_B grew 236007 -> 236008" "log_B growth gate" "$DIR/log_old.json" "$DIR/log_grew.json"
printf '[\n%s\n]\n' "$(linex pkg/a BenchmarkLog 100.0 1000 5 ', "log_B": 236007, "frames_op": 4, "MB_s": 100')" > "$DIR/log_same.json"
expect 0 "236007 -> 236007 log_B" "unchanged log_B" "$DIR/log_old.json" "$DIR/log_same.json"
printf '[\n%s\n]\n' "$(linex pkg/a BenchmarkLog 100.0 1000 5 ', "log_B": 200000, "frames_op": 4, "MB_s": 100')" > "$DIR/log_shrank.json"
expect 0 "1 shared benchmarks" "smaller log_B" "$DIR/log_old.json" "$DIR/log_shrank.json"
printf '[\n%s\n]\n' "$(linex pkg/a BenchmarkLog 100.0 1000 5 ', "log_B": 236007, "frames_op": 40, "MB_s": 10')" > "$DIR/log_timing.json"
expect 0 "1 shared benchmarks" "frames_op and MB_s ungated" "$DIR/log_old.json" "$DIR/log_timing.json"

# Missing baselines must fail loudly, not vacuously pass.
expect 1 "missing" "missing old baseline" "$DIR/absent.json" "$DIR/new.json"
expect 1 "missing" "missing new baseline" "$DIR/old.json" "$DIR/absent.json"

# Baselines with no benchmarks at all (empty array, or garbage) share
# nothing; that is a setup error, not a pass.
printf '[\n]\n' > "$DIR/empty.json"
expect 1 "no shared benchmarks" "empty old baseline" "$DIR/empty.json" "$DIR/new.json"
expect 1 "no shared benchmarks" "empty new baseline" "$DIR/old.json" "$DIR/empty.json"
: > "$DIR/blank.json"
expect 1 "no shared benchmarks" "zero-byte baseline" "$DIR/blank.json" "$DIR/new.json"

# Argument-less discovery must order PR numbers numerically: with PR2,
# PR9 and PR10 baselines present, the diff is 9 -> 10 — a lexicographic
# glob would pick 10 -> 9 (or drag PR2 in) and gate against the wrong
# PR. The PR9 baseline regresses vs PR2 but PR10 matches PR9, so the
# outcome also proves which pair was compared.
DISC="$DIR/disc"
mkdir -p "$DISC"
{
    echo '['
    line pkg/a BenchmarkShared 50.0
    echo ''
    echo ']'
} > "$DISC/BENCH_PR2.json"
cp "$DIR/old.json" "$DISC/BENCH_PR9.json"
cp "$DIR/old.json" "$DISC/BENCH_PR10.json"
got=0
out=$(BENCH_DIR="$DISC" scripts/benchdiff.sh 2>&1) || got=$?
if [ "$got" != 0 ]; then
    fail "numeric discovery: exit $got
$out"
fi
case $out in
*BENCH_PR9.json*) ;;
*) fail "numeric discovery: did not pick BENCH_PR9.json as the old baseline
$out" ;;
esac

# One lone baseline is not a diffable pair.
rm -f "$DISC/BENCH_PR2.json" "$DISC/BENCH_PR9.json"
got=0
out=$(BENCH_DIR="$DISC" scripts/benchdiff.sh 2>&1) || got=$?
if [ "$got" = 0 ]; then
    fail "single-baseline discovery passed vacuously
$out"
fi
case $out in
*"at least two"*) ;;
*) fail "single-baseline discovery: unhelpful error
$out" ;;
esac

# bench.sh conversion: names drop go test's -N GOMAXPROCS suffix, so a
# baseline recorded on a multi-core machine shares names with one
# recorded on a single core, and each figure is the median of the runs.
cat > "$DIR/raw.txt" <<'RAW'
pkg: pkg/a
BenchmarkShared-2   	     100	       300.0 ns/op	      64 B/op	       3 allocs/op
BenchmarkShared-2   	     100	        95.0 ns/op	      64 B/op	       3 allocs/op
BenchmarkShared-2   	     100	       100.0 ns/op	      64 B/op	       3 allocs/op
BenchmarkSub/case-2 	     100	        10.0 ns/op	         7.000 log-B
RAW
if ! COUNT=0 BENCH_LOG="$DIR/raw.txt" scripts/bench.sh "$DIR/conv.json" >/dev/null 2>&1; then
    fail "bench.sh could not convert a raw log"
fi
expect 0 "1 shared benchmarks" "suffixed names match a suffix-free baseline" "$DIR/old.json" "$DIR/conv.json"
grep -q '"name": "BenchmarkShared", "iterations": 100, "runs": 3, "ns_per_op": 100, "ns_per_op_min": 95, "ns_per_op_max": 300, "bytes_per_op": 64, "allocs_per_op": 3}' "$DIR/conv.json" ||
    fail "conversion did not record the median and spread of three runs
$(cat "$DIR/conv.json")"
grep -q '"name": "BenchmarkSub/case", .*"log_B": 7}' "$DIR/conv.json" ||
    fail "conversion dropped a custom metric
$(cat "$DIR/conv.json")"

# Same-machine A/B: argument errors, then a real run on one small
# package (one iteration each, so the gate is opened wide: this checks
# the plumbing, not the timings).
expect 1 "usage" "-ab without a revision" -ab
expect 1 "unknown revision" "-ab with a bad revision" -ab no-such-revision
if git rev-parse --verify --quiet HEAD >/dev/null; then
    got=0
    out=$(BENCH_PKGS=./internal/envelope BENCHTIME=1x COUNT=1 THRESHOLD=1000000 \
        scripts/benchdiff.sh -ab HEAD "$DIR/ab_old.json" "$DIR/ab_new.json" 2>&1) || got=$?
    case $got:$out in
    0:*"2 shared benchmarks"*) ;;
    *) fail "-ab HEAD: exit $got
$out" ;;
    esac
else
    echo "benchdiff_test: not a git checkout, skipping the -ab run"
fi

if [ "$fails" -gt 0 ]; then
    echo "benchdiff_test: $fails failures" >&2
    exit 1
fi
echo "benchdiff_test: ok"
