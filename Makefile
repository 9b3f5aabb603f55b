GO ?= go

# VERSION is stamped into the kiss/kissbench/kissd binaries (reported by
# -version and kissd's /healthz); plain `go build` yields "dev".
VERSION ?= $(shell git describe --tags --always --dirty 2>/dev/null || echo dev)
LDFLAGS := -ldflags "-X main.version=$(VERSION)"

.PHONY: build test vet fmt bench-test race examples verify bench bench-smoke bench-ab outputs-ab serve-smoke cluster-smoke benchall

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
# model caches it hands to concurrent field checks), concheck's two
# engines — the depth-first loop and the level engine, whose worker pool
# expands over a sharded visited set with sync.Pool buffer reuse, in
# both step modes (macro and per-statement, e.g. at 8 workers in
# TestParallelIdenticalAcrossWorkerCounts and TestSpillIdenticalToResident)
# — which seqcheck's tests drive too, since every sequential check runs
# on them, and the copy-on-write state representation their workers
# share: a worker steps each sole-live item it is handed in place, while
# items of one bucket still share their older components, plus the kissd service layer (queue admission vs. drain, the
# worker scheduler, and the result cache) and the kiss-coord cluster
# coordinator (ring swaps, health transitions, batch fan-out, tenant
# buckets). -short skips the full-corpus reproductions and the chaos
# test's state-space passes, which the plain `test` target already runs.
race:
	$(GO) test -race -short ./internal/eval/... ./internal/seqcheck/... ./internal/concheck/... ./internal/sem/... ./internal/visited/... ./internal/frontier/... ./internal/coord/...
	$(GO) test -race ./internal/service/...

# examples builds and runs every examples/* main (about 1.5 s on 2 CPUs).
# An example exits non-zero on an unexpected verdict; examples/recursion
# is the only end-to-end run of the summary engine through the facade.
examples:
	@set -e; for d in examples/*/; do echo "== $$d"; $(GO) run ./$$d >/dev/null; done

# verify is the tier-1 gate: formatting, build, vet, full tests, the
# benchmark's own tests, the examples, and the race check.
verify: fmt build vet test bench-test examples race

# bench regenerates the sequentialization ablation's artifact: KISS vs
# CB(K) vs the concurrent ground truth on the assertion scenarios and
# random programs, written to BENCH_PR10.json (the run exits non-zero if
# a CB arm is unsound, raising K loses a bug, or CB finds no bug KISS
# misses). Performance is measured end to end by `bash bench/run.sh`
# (BENCHMARK.json), not here; `make benchall` still runs every Go
# benchmark.
#
# The artifact is written by kissbench's -o flag: staged in memory,
# written to a temp file, renamed into place, and refused when empty —
# a failed run can never leave a truncated artifact behind (the
# shell-redirect form this replaces truncated the target before the run
# began, which is how an empty BENCH_PR8.json once shipped); a failing
# gate still lands its run's artifact.
bench:
	$(GO) run ./cmd/kissbench -seqbench -min-cb-only 1 -o BENCH_PR10.json

# bench-smoke is the CI-sized slice of `make bench`: the -seqbench
# scenarios alone (no random programs) through -o, asserting that the
# artifact is non-empty — the regression gate for the truncated-artifact
# bug — and that CB finds a truth-confirmed bug KISS misses, soundly.
# Runs in seconds. The macro/per-statement identity check at search
# workers 0/1/8 runs in `make verify` (TestMacroMatchesPerStatement).
bench-smoke:
	@rm -f .bench-smoke.json
	$(GO) run ./cmd/kissbench -seqbench -seq-programs -1 -max-states 50000 -min-cb-only 1 -o .bench-smoke.json
	@test -s .bench-smoke.json || { echo "bench-smoke: empty seqbench artifact"; rm -f .bench-smoke.json; exit 1; }
	@grep -q '"cb_only": true' .bench-smoke.json && grep -q '"sound": true' .bench-smoke.json || { echo "bench-smoke: seqbench found no CB-only bug"; rm -f .bench-smoke.json; exit 1; }
	@rm -f .bench-smoke.json
	@echo "bench-smoke: seqbench artifact non-empty; CB finds scenario bugs KISS misses"

# bench-ab is the end-to-end A/B of a change: it extracts AB_BASE and
# AB_HEAD with git archive into temp directories, runs PAIRS alternating
# pairs of `bash bench/run.sh` (run_seconds of BENCHMARK.json each, seeds
# AB_SEED, AB_SEED+1, ...) on every workload of BENCHMARK.json, writes
# each run's JSON result to AB_OUT, which must not exist yet, and prints
# every end-to-end metric's medians, quartiles and the pairs the head
# wins. AB_OUT is required; the other variables are passed only when set,
# so their defaults are cmd/benchab's (HEAD~1, HEAD, 10 pairs, seed 1).
# With those it takes about 45 minutes on 2 CPUs; `go run ./cmd/benchab
# -summary FILE` reprints the table from an artifact. Not part of verify
# or CI.
bench-ab:
	$(GO) run ./cmd/benchab -o "$(AB_OUT)" $(if $(AB_BASE),-base $(AB_BASE)) $(if $(AB_HEAD),-head $(AB_HEAD)) $(if $(PAIRS),-pairs $(PAIRS)) $(if $(AB_SEED),-seed $(AB_SEED))

# outputs-ab checks that a change leaves every printed byte alone: it
# extracts AB_BASE and AB_HEAD with git archive (defaults HEAD~1 and
# HEAD), builds kissbench in each, runs `-table1` (text), `-table1 -json
# -strip-timing`, `-table2 -json -strip-timing` and `-seqbench -json` on
# both, and exits non-zero if any stdout differs. A perf change runs it
# next to bench-ab; it takes a few minutes on 2 CPUs and, like bench-ab,
# runs committed trees only and is not part of verify or CI.
outputs-ab:
	$(GO) run ./cmd/benchab -outputs $(if $(AB_BASE),-base $(AB_BASE)) $(if $(AB_HEAD),-head $(AB_HEAD))

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
