GO ?= go

# VERSION is stamped into the kiss/kissbench/kissd binaries (reported by
# -version and kissd's /healthz); plain `go build` yields "dev".
VERSION ?= $(shell git describe --tags --always --dirty 2>/dev/null || echo dev)
LDFLAGS := -ldflags "-X main.version=$(VERSION)"

.PHONY: build test vet fmt bench-test race verify bench bench-smoke serve-smoke cluster-smoke benchall

build:
	$(GO) build $(LDFLAGS) ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# fmt fails when gofmt would reformat any Go file in the tree.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

# bench-test vets and tests the benchmark under bench/. It is a module of
# its own, so ./... above never builds it; its smoke test checks that
# every metric BENCHMARK.json names is still emitted.
bench-test:
	cd bench && $(GO) vet . && $(GO) test .

# race runs the race detector over the packages that own concurrency:
# the eval worker pool (and, transitively, the shared parsed-harness and
# model caches it hands to concurrent field checks), the parallel
# state-space searches in concheck with their sharded visited set —
# including the macro-step engines and their sync.Pool buffer reuse,
# exercised by the TestMacro* differential tests — which seqcheck's
# tests drive too, since every sequential check runs on concheck's
# engines, and the copy-on-write state representation their workers
# share, plus the kissd service layer (queue admission vs. drain, the
# worker scheduler, and the result cache) and the kiss-coord cluster
# coordinator (ring swaps, health transitions, batch fan-out, tenant
# buckets). -short skips the full-corpus reproductions and the chaos
# test's state-space passes, which the plain `test` target already runs.
race:
	$(GO) test -race -short ./internal/eval/... ./internal/seqcheck/... ./internal/concheck/... ./internal/sem/... ./internal/visited/... ./internal/frontier/... ./internal/coord/...
	$(GO) test -race ./internal/service/...

# verify is the tier-1 gate: formatting, build, vet, full tests, the
# benchmark's own tests, and the race check.
verify: fmt build vet test bench-test race

# bench runs the PR 3 performance suite: the clone/successor
# microbenchmarks (the copy-on-write win) and a kissbench corpus pass
# with per-field JSON metrics written to BENCH_PR3.json. The PR 4 suite
# follows: the macro-step compression ablation over the full corpus —
# compression on vs off, verdict/position identity verified at
# search-workers 0/1/8, stored/stepped states, throughput, and
# allocations per arm — written to BENCH_PR4.json (the run exits
# non-zero if the arms disagree or stored states fail to compress).
# (Two more ablation reruns, which only gated or reported the fold
# memo's arm, were deleted with the memo.) The memory-budget study
# follows: the corpus's
# hard fields (exact visited set, classic state budget — the runs that
# trip MaxStates) rerun with the compact visited filter and the
# disk-spilling frontier at a 10x state ceiling under 1 MiB of search
# memory; BENCH_PR9.json records per-field verdicts, peak search RAM,
# spilled bytes, and filter occupancy, and the run exits non-zero unless
# at least 3 tripped fields improve. (The small budget is deliberate:
# it forces real spill traffic on any machine, making the artifact a
# record of the spill path, not of having enough RAM.)
#
# Every JSON artifact is written by kissbench's -o flag: staged in
# memory, written to a temp file, renamed into place, and refused when
# empty — a failed run can never leave a truncated artifact behind
# (the shell-redirect form this replaces truncated the target before
# the run began, which is how an empty BENCH_PR8.json once shipped);
# a failing gate still lands its run's artifact.
bench:
	$(GO) test -bench 'BenchmarkClone|BenchmarkDeepClone|BenchmarkSuccessors' -benchmem -run '^$$' ./internal/sem/
	$(GO) run ./cmd/kissbench -table1 -json -o BENCH_PR3.json
	$(GO) run ./cmd/kissbench -macrobench -min-ratio 3.0 -json -o BENCH_PR4.json
	$(GO) run ./cmd/kissbench -membench -drivers fakemodem,kbdclass,mouclass,mouser -max-states 4000 -mem-budget-mb 1 -min-improved 3 -o BENCH_PR9.json
	$(GO) run ./cmd/kissbench -seqbench -min-cb-only 1 -o BENCH_PR10.json

# bench-smoke is the CI-sized slice of the ablation suite: both arms on
# four small drivers with the same identity verification, asserting the
# stored-state compression ratio exceeds 1. It then runs a one-driver
# slice of the memory-budget study through -o and asserts the artifact
# is non-empty and carries the expected document shape — the
# regression gate for the truncated-artifact bug. Runs in seconds.
bench-smoke:
	$(GO) run ./cmd/kissbench -macrobench -drivers kbfiltr,moufiltr,diskperf,1394diag -min-ratio 1.0
	@rm -f .bench-smoke.json
	$(GO) run ./cmd/kissbench -membench -drivers fakemodem -max-states 4000 -mem-budget-mb 1 -min-improved 1 -o .bench-smoke.json
	@test -s .bench-smoke.json || { echo "bench-smoke: empty bench artifact"; rm -f .bench-smoke.json; exit 1; }
	@grep -q '"rows"' .bench-smoke.json && grep -q '"spilled_bytes"' .bench-smoke.json || { echo "bench-smoke: malformed bench artifact"; rm -f .bench-smoke.json; exit 1; }
	@rm -f .bench-smoke.json
	@echo "bench-smoke: membench artifact non-empty and well-formed"
	$(GO) run ./cmd/kissbench -seqbench -seq-programs -1 -max-states 50000 -min-cb-only 1 -o .bench-smoke.json
	@test -s .bench-smoke.json || { echo "bench-smoke: empty seqbench artifact"; rm -f .bench-smoke.json; exit 1; }
	@grep -q '"cb_only": true' .bench-smoke.json && grep -q '"sound": true' .bench-smoke.json || { echo "bench-smoke: seqbench found no CB-only bug"; rm -f .bench-smoke.json; exit 1; }
	@rm -f .bench-smoke.json
	@echo "bench-smoke: seqbench artifact non-empty; CB finds scenario bugs KISS misses"

# serve-smoke is the kissd acceptance loop: start the daemon on a
# loopback port, run a two-driver corpus slice through it twice, require
# verdicts and search counters identical to local checking and >=90% of
# the warm pass served from the content-addressed cache, re-run the
# slice under a shifted state budget that must miss the cache with
# unchanged verdicts, then drain cleanly. Runs in about a second.
serve-smoke:
	$(GO) run $(LDFLAGS) ./cmd/kissd -smoke

# cluster-smoke is the kiss-coord acceptance loop: two in-process kissd
# backends behind a coordinator on loopback ports, a two-driver corpus
# slice submitted as one /v1/batch twice plus one per-field /v1/check
# pass, verdicts and counters required identical to local checking,
# >=90% of the warm lookups required to hit the shard caches, and both
# backends required to have computed part of the corpus.
cluster-smoke:
	$(GO) run $(LDFLAGS) ./cmd/kiss-coord -smoke

# benchall runs every benchmark in the repository.
benchall:
	$(GO) test -bench=. -benchmem ./...
