# Developer entry points; CI (.github/workflows/ci.yml) runs the same steps.

GO ?= go

.PHONY: all build test race fuzz-smoke lint lint-github lint-consistency lint-dataflow bench-smoke bench-check serve-smoke fmt vet

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Native fuzzing, 10 s per target: the lump quotient, the Sericola fused
# row pass and the discretisation's backward pass, each against its oracle.
fuzz-smoke:
	$(GO) test -run=NONE -fuzz='^FuzzQuotient$$' -fuzztime=10s ./internal/lump
	$(GO) test -run=NONE -fuzz='^FuzzRecursion$$' -fuzztime=10s ./internal/sericola
	$(GO) test -run=NONE -fuzz='^FuzzBackward$$' -fuzztime=10s ./internal/discretise

# The incremental cache keeps warm runs fast (per-package results keyed
# by source content + dependency keys + the analyzer registry hash, under
# .mrmlint-cache/); CI persists the directory via actions/cache.
lint:
	$(GO) run ./cmd/mrmlint -cache ./...

lint-github:
	$(GO) run ./cmd/mrmlint -github ./...

# go vet's copylocks and mrmlint's mutexcopy approximate the same property
# from different directions; CI requires both to agree the tree is clean.
lint-consistency:
	$(GO) vet -copylocks ./...
	$(GO) run ./cmd/mrmlint -enable=mutexcopy ./...

# Just the CFG/taint-powered discipline analyzers (they are part of the
# default `lint` run too; this target isolates them for iterating on the
# budget/ledger/pool contracts).
lint-dataflow:
	$(GO) run ./cmd/mrmlint -enable=epsbudget,ledgercharge,poolescape ./...

# The lint leg writes the cold-vs-warm record of the incremental cache
# under .bench_build/ (gitignored) and fails when the warm cached run is
# not at least twice as fast as cold or its -json stream diverges.
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x . ./internal/lump ./internal/sericola
	mkdir -p .bench_build
	$(GO) run ./cmd/mrmlint -bench-json .bench_build/mrmlint-bench.json ./...

# The performance gates that run on any machine: the truncated scale gate
# on cluster:60 (dense vs truncated agreement, budget proof, peak active
# window <= n/10), the station Q3 memo gate, the seed-model lump overhead
# gate (median lump-auto/lump-off <= 1.5x), the Sericola batch recursion
# count, and the lint cache's cold-vs-warm gate. The end-to-end benchmark
# is BENCHMARK.json (bash csrlbench/run.sh).
bench-check:
	$(GO) test -count=1 -run 'TestClusterTruncatedScaleGate|TestStationQ3RepeatsAddNoMemoMisses|TestSeedLumpOverheadWithinNoise' ./internal/core
	$(GO) test -count=1 -run 'TestBatchRunsOneRecursion' ./internal/sericola
	mkdir -p .bench_build
	$(GO) run ./cmd/mrmlint -bench-json .bench_build/mrmlint-bench-check.json ./...

# The service acceptance smoke: an in-process csrld on a real listener,
# station model uploaded over HTTP, 8 concurrent queries fired twice.
# Asserts every response is a 200 whose Σ ≤ ε budget proof passes and
# whose answer is bitwise identical to a one-shot checker, and that the
# second wave is served from the cross-request memo (hits > 0, no new
# misses).
serve-smoke:
	$(GO) run ./cmd/csrld -smoke

fmt:
	gofmt -l -w .

vet:
	$(GO) vet ./...
