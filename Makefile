# Developer/CI entry points. `make ci` is the pre-commit smoke and the
# GitHub Actions gate: formatting, vet, build, full tests, and the
# allocation-budget gate over the perf microbenchmarks (which also leaves
# the raw benchmark output in bench-perf.txt for archiving).

GO ?= go

.PHONY: all vet lint build test stress-registry bench bench-perf check-fmt check-allocs fuzz-short examples chaos serve-smoke ci

all: ci

check-fmt:
	@files=$$(gofmt -l .); \
	if [ -n "$$files" ]; then \
		echo "gofmt needed on:"; echo "$$files"; \
		echo "run: gofmt -w ."; \
		exit 1; \
	fi

vet:
	$(GO) vet ./...

# Project-specific static analysis: builds the adplint vettool (the five
# analyzers under internal/analysis — vclock, maporder, hotalloc,
# sinkcomplete, errcode) and runs it over the whole tree through the
# `go vet -vettool` protocol, so findings are cached per package like any
# other vet check. See docs/static-analysis.md.
lint:
	$(GO) build -o bin/adplint ./cmd/adplint
	$(GO) vet -vettool=$(abspath bin/adplint) ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Lock-order stress: the registry race test repeated under a short
# timeout, so a recursive-RLock regression (which deadlocks only once a
# Register is queued) fails within seconds instead of stalling `test`.
stress-registry:
	$(GO) test -run TestRegistryConcurrentPerPartitionRegistration -count=50 -timeout 120s ./internal/state

# Fast perf smoke: hash-probe, list capture append, batched push,
# vectorized key hashing, ordered merge-join, exchange-partitioning, and
# streaming cursor delivery hot paths with allocation reporting (these
# back the PR acceptance criteria). The exec join benches grow one hash
# table for the whole run, so layouts are only comparable at equal
# iteration counts — hence the fixed -benchtime.
bench-perf:
	$(GO) test -run='^$$' -bench='BenchmarkHashTableProbe|BenchmarkListInsertBatch' -benchmem ./internal/state/
	$(GO) test -run='^$$' -bench='BenchmarkPipelinedJoinPush|BenchmarkMergeJoinPush|BenchmarkAggTableAbsorb|BenchmarkHashKeys|BenchmarkExchangePartition|BenchmarkPartitionMergeRelease|BenchmarkDeltaPropagation' -benchmem -benchtime=300000x ./internal/exec/
	$(GO) test -run='^$$' -bench='BenchmarkStreamDelivery|BenchmarkFirstRow' -benchmem ./internal/engine/
	$(GO) test -run='^$$' -bench='BenchmarkFaultyNext' -benchmem ./internal/source/
	$(GO) test -run='^$$' -bench='BenchmarkRowEncode|BenchmarkServeQuery' -benchmem ./internal/server/

# Examples gate: the runnable examples must keep building and vetting
# cleanly (they are real module packages, so rot breaks users first).
examples:
	$(GO) build ./examples/...
	$(GO) vet ./examples/...

# Short fixed-duration fuzzing of the key codec (the go-native fuzz
# targets; each -fuzz invocation accepts a single target).
fuzz-short:
	$(GO) test -run='^$$' -fuzz='^FuzzKeyCodecRoundTrip$$' -fuzztime=5s ./internal/types/
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeKeyArbitrary$$' -fuzztime=5s ./internal/types/

# Allocation-budget gate: runs bench-perf, parses allocs/op, fails on any
# pinned-budget regression. Raw output lands in bench-perf.txt.
check-allocs:
	./scripts/check_allocs.sh bench-perf.txt

# Deterministic chaos suite under the race detector: seeded fault
# schedules across all strategies and partition counts, pinning
# recovered-fault runs to their fault-free baselines (PR 6).
chaos:
	$(GO) test -race -count=1 -run='Fault|Chaos' ./internal/source/ ./internal/core/ ./internal/engine/

# Black-box smoke of the deployable server binary: build it, boot it on
# a random port, stream a query, check /healthz + /metrics + SSE events,
# SIGTERM, and require a clean drain + exit 0 (PR 7).
serve-smoke:
	$(GO) build -o bin/adpserve ./cmd/adpserve
	$(GO) run ./scripts/servesmoke -bin bin/adpserve

# Full benchmark sweep (paper figures; slow).
bench:
	$(GO) test -run='^$$' -bench=. -benchmem ./...

ci: check-fmt vet lint build stress-registry test examples fuzz-short chaos check-allocs serve-smoke
