#!/bin/sh
# Full local gate: vet, dvfslint, build, race-enabled tests, benchmark
# smoke.
# Equivalent to `make check` for environments without make.
set -eu
cd "$(dirname "$0")/.."

echo "== go vet =="
go vet ./...
# All eight analyzers; exit 1 covers findings and malformed/unused
# allow directives alike.
echo "== dvfslint =="
go run ./cmd/dvfslint -count ./...
echo "== go build =="
go build ./...
echo "== go test -race =="
go test -race ./...
echo "== benchmark smoke (1 iteration each) =="
go test -run='^$' -bench=. -benchtime=1x ./...
echo "== benchdiff (vs previous PR baseline) =="
scripts/benchdiff.sh
echo "== benchdiff self-test =="
scripts/benchdiff_test.sh
echo "== coverage floors (race-enabled) =="
scripts/cover.sh
echo "== fuzz smoke (5s each) =="
go test -fuzz=FuzzInsertDelete -fuzztime=5s ./internal/rangetree
go test -fuzz=FuzzDynamicCost -fuzztime=5s ./internal/dynsched
go test -fuzz=FuzzBinaryRoundTrip -fuzztime=5s ./internal/obs
go test -run='^$' -fuzz=FuzzDecodeRequest -fuzztime=5s ./internal/server
go test -run='^$' -fuzz=FuzzDecodeFrame -fuzztime=5s ./internal/cluster
echo "== cluster smoke (kill-failover, zero accepted-task loss) =="
go run ./cmd/dvfsload -mode cluster -clients 6 -session-tasks 30 -batch 6
echo "OK"
