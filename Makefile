GO ?= go

.PHONY: check fmt vet lint build test race bench-smoke fuzz-smoke bench benchdiff benchdiff-ab benchdiff-test cover serve-smoke cluster-smoke golden

check: fmt vet lint build race bench-smoke benchdiff benchdiff-test cover fuzz-smoke cluster-smoke

# Formatting: fails when gofmt would rewrite any tracked Go file.
# Listing tracked files keeps the benchmark's build cache
# (.bench_build/) out.
fmt:
	@out=$$(git ls-files '*.go' | xargs gofmt -l); \
	if [ -n "$$out" ]; then echo "gofmt would rewrite:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Repo-specific invariants: float equality, nondeterminism in the
# engine packages, blocking under locks, dropped hot-path write errors,
# sync.Pool ownership, goroutine stop signals, atomic/plain access
# mixing, and mutex acquisition order. Fails on findings AND on
# malformed or unused //dvfslint:allow directives, so stale exceptions
# cannot accumulate; -count prints the per-analyzer tally.
lint:
	$(GO) run ./cmd/dvfslint -count ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# One iteration per benchmark: catches bit-rot without timing anything.
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# Short fuzz sessions for the dynamic structures, the binary trace
# codec and the recorder's publish contract, the one-pass request
# decoder and its number scan, and the cluster frame decoder; the list
# lives in scripts/fuzz_smoke.sh, which scripts/check.sh runs too.
fuzz-smoke:
	GO=$(GO) scripts/fuzz_smoke.sh

# Benchmark the hot packages (median of 5 runs each) and write the
# machine-readable baseline for this PR (diff against the previous
# PR's with `make benchdiff`).
bench:
	scripts/bench.sh BENCH_PR31.json

# Compare the two newest BENCH_PR<N>.json baselines (numeric order);
# fails on >20% ns/op, allocs/op or B/op regressions and on any log_B
# growth in benchmarks both files share, and reports benchmarks new in
# this PR.
benchdiff:
	scripts/benchdiff.sh

# Same-machine A/B: benchmark commit REV (default HEAD) and the working
# tree in alternating rounds and apply the benchdiff gate to the pair,
# so the comparison measures the code rather than the machine.
REV ?= HEAD
benchdiff-ab:
	scripts/benchdiff.sh -ab $(REV)

# Shell test for the benchdiff gate itself: missing/empty baselines
# must fail, regressions must fail, new benchmarks must be reported;
# also bench.sh's conversion and the -ab mode.
benchdiff-test:
	scripts/benchdiff_test.sh

# Race-enabled per-package coverage floors for the engine-critical
# packages, the batch planners, the cluster and the trace audit.
cover:
	scripts/cover.sh

# Boot dvfschedd on an ephemeral port, hit /healthz and /v1/plan once,
# and shut it down cleanly.
serve-smoke:
	scripts/serve_smoke.sh

# Membership-churn smoke: a 3-node in-process cluster, while client
# traffic is in flight, joins a 4th node (asserting the rebalance
# matches the ring diff), migrates a session to a pinned target, drains
# a node out of the ring, then kills a member; every surviving trace
# must pass audit.CheckTrace. Well under 30s.
cluster-smoke:
	$(GO) test -race -count=1 -run '^TestClusterMembershipChurn$$' ./internal/cluster

# Regenerate the report package's golden files.
golden:
	$(GO) test ./internal/report -update
