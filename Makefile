GO ?= go

.PHONY: check vet lint lint-test allow-gate fmt-check build test race benchsmoke benchcmp scale-smoke baseline-smoke par-smoke fuzz-smoke live-smoke conformance bench fmt

## check: the pre-PR gate. Run this before sending any change for review.
check: vet lint lint-test allow-gate fmt-check build test race benchsmoke benchcmp scale-smoke baseline-smoke par-smoke fuzz-smoke live-smoke
	@echo "check: all gates passed"

vet:
	$(GO) vet ./...

## lint: the repo's own analyzers (cmd/fdslint) — walltime, detmap,
## deliverretain, scratchalias, arenaescape, floatfold, stripshare,
## rngdraw — which machine-check the simulator's determinism, arena
## ownership, strip isolation, and message-lifetime invariants. Runs
## through `go vet -vettool`, so package loading, caching, and diagnostics
## follow vet conventions. See DESIGN.md "Determinism & lifetime
## invariants". `bin/fdslint -json ./...` / `-github` emit machine-readable
## findings.
lint:
	$(GO) build -o bin/fdslint ./cmd/fdslint
	$(GO) vet -vettool=bin/fdslint ./...

## lint-test: the analyzers' own test suite — every analyzer's
## firing/non-firing/suppression fixtures plus the lintest runner's
## self-tests. Separate from `test` so an analyzer regression is visible
## as its own gate.
lint-test:
	$(GO) test ./internal/lint/...

## allow-gate: the suppression budget. Policy since PR 5: zero
## //lint:allow in the tree — when an analyzer misfires, the analyzer is
## strengthened to prove the pattern safe, not waived. The pattern skips
## doc comments and string literals (no quote or slash may precede the
## directive on the line) and the fixture trees, where directives are the
## test subject.
allow-gate:
	@bad="$$(grep -rEn --include='*.go' '^[^"/]*//lint:allow' . | grep -v '/testdata/' || true)"; \
	if [ -n "$$bad" ]; then \
		echo "allow-gate: //lint:allow suppressions found (policy: zero — strengthen the analyzer instead):"; \
		echo "$$bad"; exit 1; fi; \
	echo "allow-gate: zero //lint:allow suppressions in the tree"

## fmt-check: fails (listing the offenders) if any file is not gofmt-clean.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

## race: the full tree under the race detector (kept affordable with
## -count=1; the heavy evaluation benchmarks are excluded by -run).
race:
	$(GO) test -race -count=1 ./...

## benchsmoke: one iteration of the serial/parallel Monte-Carlo benchmark
## pair — verifies the parallel path produces the same empirical rate and
## that the benchmarks still compile and run — plus one iteration of a
## single FDSEpochParallel sub-benchmark, so the pair's cross-check keeps
## working when a -bench filter selects only one worker count.
benchsmoke:
	$(GO) test -run '^$$' -bench 'MonteCarlo' -benchtime 1x -benchmem .
	$(GO) test -run '^$$' -bench 'BenchmarkFDSEpochParallel/workers=1$$' -benchtime 1x -benchmem .

## benchcmp: the allocation-regression gate. Runs the alloc-sensitive
## benchmarks (FDSEpoch, RadioBroadcast, Codec, and the per-detector
## SWIM/QueryResponse/AllPairs epoch benchmarks) and fails if any allocs/op
## or B/op figure regresses more than 10% against the committed baseline
## (bench_baseline.json); ns/op deltas print as info lines but never gate
## (wall-clock is machine-dependent). When an optimization lowers a count,
## tighten the baseline in the same PR so the gate keeps biting.
## The scale benchmarks (FDSEpoch10k, ShardedEpoch, and the
## FDSEpochParallel serial-vs-parallel pair) run in a second invocation at
## -benchtime 1x: one iteration is seconds of simulation, and their
## allocation counts are deterministic at fixed seed regardless of
## iteration count. Both invocations feed one benchcmp run.
benchcmp:
	{ $(GO) test -run '^$$' -bench 'BenchmarkFDSEpoch$$|BenchmarkRadioBroadcast$$|BenchmarkCodec$$|BenchmarkSWIMEpoch$$|BenchmarkQueryResponseEpoch$$|BenchmarkAllPairsEpoch$$' \
		-benchtime 20x -benchmem . && \
	  $(GO) test -run '^$$' -bench 'BenchmarkFDSEpoch10k$$|BenchmarkShardedEpoch$$|BenchmarkFDSEpochParallel' \
		-benchtime 1x -benchmem . ; } | $(GO) run ./cmd/benchcmp -baseline bench_baseline.json

## scale-smoke: the sharded engine's cross-partition determinism gate at a
## scale the unit tests don't reach: a 10,000-host crash wave, run with 1
## shard and again with 4 shards x 2 workers, must print bit-identical trace
## and state hashes. See EXPERIMENTS.md "Sharded kernel".
scale-smoke:
	$(GO) build -o bin/fdsim ./cmd/fdsim
	@a="$$(bin/fdsim -shards 1 -nodes 10000 -field 2000 -crashes 25 -crash-epoch 1 -epochs 3 -seed 42 | grep 'hash:')"; \
	b="$$(bin/fdsim -shards 4 -shard-workers 2 -nodes 10000 -field 2000 -crashes 25 -crash-epoch 1 -epochs 3 -seed 42 | grep 'hash:')"; \
	echo "$$a"; \
	if [ "$$a" != "$$b" ]; then echo "scale-smoke: HASH MISMATCH between -shards 1 and -shards 4:"; echo "$$b"; exit 1; fi; \
	echo "scale-smoke: 1-shard and 4-shard hashes identical"

## baseline-smoke: the head-to-head matrix's determinism gate. A tiny
## all-detector sweep (every stack x every disruption scenario, 2 trials per
## cell) must print bit-identical "matrix hash:" lines with 1 worker and with
## 4 workers. See EXPERIMENTS.md "Head-to-head detector matrix".
baseline-smoke:
	$(GO) build -o bin/fdsfigs ./cmd/fdsfigs
	@a="$$(bin/fdsfigs -fig I -matrix-trials 2 -seed 42 -workers 1 | grep 'matrix hash:')"; \
	b="$$(bin/fdsfigs -fig I -matrix-trials 2 -seed 42 -workers 4 | grep 'matrix hash:')"; \
	echo "$$a"; \
	if [ "$$a" != "$$b" ]; then echo "baseline-smoke: HASH MISMATCH between -workers 1 and -workers 4:"; echo "$$b"; exit 1; fi; \
	echo "baseline-smoke: 1-worker and 4-worker matrix hashes identical"

## par-smoke: the intra-replica parallel engine's determinism gate at a
## scale the unit tests don't reach: a 300-node crash wave, run with
## -epoch-workers 1 and again with -epoch-workers 4, must print a
## bit-identical trace hash. See EXPERIMENTS.md "Intra-replica cluster
## parallelism".
par-smoke:
	$(GO) build -o bin/fdsim ./cmd/fdsim
	@a="$$(bin/fdsim -epoch-workers 1 -nodes 300 -field 900 -crashes 8 -crash-epoch 3 -epochs 8 -seed 42 | grep 'trace hash:')"; \
	b="$$(bin/fdsim -epoch-workers 4 -nodes 300 -field 900 -crashes 8 -crash-epoch 3 -epochs 8 -seed 42 | grep 'trace hash:')"; \
	echo "$$a"; \
	if [ "$$a" != "$$b" ]; then echo "par-smoke: HASH MISMATCH between -epoch-workers 1 and -epoch-workers 4:"; echo "$$b"; exit 1; fi; \
	echo "par-smoke: 1-worker and 4-worker trace hashes identical"

## fuzz-smoke: a short native-fuzz pass over the wire codec's two targets
## (FuzzDecode: Decode vs DecodeInto differential on hostile bytes;
## FuzzRoundTrip: decode -> encode fixed point). The committed corpus under
## internal/wire/testdata/fuzz/ always runs as plain seeds in `make test`;
## this target additionally mutates for 10s per target to probe new inputs.
fuzz-smoke:
	$(GO) test ./internal/wire/ -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 10s
	$(GO) test ./internal/wire/ -run '^$$' -fuzz '^FuzzRoundTrip$$' -fuzztime 10s

## live-smoke: the live-transport gate. A 3-node cluster of fdsd daemons on
## the in-process channel mesh (the deterministic core of the UDP path)
## forms, one node is crashed, and both survivors must detect it. Plus the
## differential conformance suite: the simulator and the mesh transport must
## produce bit-identical traces, wire bytes, states, and energy.
live-smoke:
	$(GO) test ./internal/daemon/ -run 'TestLiveSmokeCrashDetection' -count=1 -v
	$(GO) test ./internal/conformance/ -run 'TestSimAndMeshAreEquivalent' -count=1

## conformance: the full differential suite and transport-fault tests alone.
conformance:
	$(GO) test ./internal/conformance/ -count=1 -v

## bench: the full evaluation harness (slow; regenerates every figure).
bench:
	$(GO) test -bench=. -benchmem .

fmt:
	gofmt -l -w .
