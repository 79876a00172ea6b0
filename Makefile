# Developer workflow. `make ci` is what every PR must pass: vet, the
# rarlint static analyzer, build, and the full test suite under the race
# detector — the memoizing simulation engine is concurrency-heavy, so
# -race is not optional.

GO ?= go

.PHONY: ci vet lint build test race perfbench-smoke serve-smoke microbench clean

ci: vet lint build race

vet:
	$(GO) vet ./...

# All three checks (run concurrently after the shared type-check
# load), with the repo's own _test.go files loaded too;
# exits 1 on any finding, including malformed or stale directives.
# vet rides along so `make lint` alone is the full static gate.
lint: vet
	$(GO) run ./cmd/rarlint ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The block A/B tests in internal/core and internal/trace give the
# batched-synthesis refill path (a block buffer shared between fetch and
# the generator) its -race coverage.
race:
	$(GO) test -race ./...

# perfbench-smoke vets and tests the benchmark (perfbench/, a nested
# module that the root `go test ./...` skips), then runs every workload
# for one second at seed 42. Those runs check the recorded Stats digests;
# the traced mem and chip runs also check that the fast-forward-off
# re-runs reproduce them. Any failed check exits non-zero. It proves the
# benchmark builds and is correct; one-second runs measure nothing.
perfbench-smoke:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...
	bash perfbench/run.sh --workload mem --seed 42 --seconds 1 --trace 1
	bash perfbench/run.sh --workload compute --seed 42 --seconds 1
	bash perfbench/run.sh --workload chip --seed 42 --seconds 1 --trace 1
	bash perfbench/run.sh --workload serve --seed 42 --seconds 1

# serve-smoke stands up rarserved (race-instrumented, ephemeral port),
# drives it with rarload's hot/cold mix, and fails on any request error,
# missing cross-request dedup, a warm wave that re-simulates, or an
# unclean SIGTERM drain.
serve-smoke:
	./scripts/serve_smoke.sh

# microbench runs the tracked go-test microbenchmarks: the root engine
# benchmarks, the block-vs-scalar uop synthesis pair in internal/trace,
# the warmed-window stage-loop benchmarks in internal/core, and two warm
# /matrix requests in internal/serve: a repeated body answered from the
# reply memo (BenchmarkWarmMatrix) and bodies that miss it while every
# cell is an engine memory hit (BenchmarkWarmMatrixEngine).
microbench:
	$(GO) test -bench=. -benchmem -run=^$$ . ./internal/trace ./internal/core ./internal/serve

clean:
	rm -rf results/cache
