#!/bin/sh
# Short fuzz sessions, 5s each: the dynamic structures, the binary
# trace codec and the recorder's publish contract, the one-pass
# request decoder and its number scan (against encoding/json and
# strconv), and the cluster frame decoder.
# Cheap enough to run in every `make check`; `make fuzz-smoke` and
# scripts/check.sh both run this list.
#
# Usage: scripts/fuzz_smoke.sh
#
# -fuzz names one target per package. Targets in a package that holds
# more than one are anchored, so a name that prefixes another's never
# matches two.
set -eu
cd "$(dirname "$0")/.."

GO=${GO:-go}
$GO test -fuzz=FuzzInsertDelete -fuzztime=5s ./internal/rangetree
$GO test -fuzz=FuzzDynamicCost -fuzztime=5s ./internal/dynsched
$GO test -run='^$' -fuzz='^FuzzBinaryRoundTrip$' -fuzztime=5s ./internal/obs
$GO test -run='^$' -fuzz='^FuzzRecorderPublish$' -fuzztime=5s ./internal/obs
$GO test -run='^$' -fuzz='^FuzzDecodeRequest$' -fuzztime=5s ./internal/server
$GO test -run='^$' -fuzz='^FuzzDecodeNumber$' -fuzztime=5s ./internal/server
$GO test -run='^$' -fuzz=FuzzDecodeFrame -fuzztime=5s ./internal/cluster
