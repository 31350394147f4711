# ε-PPI reproduction — convenience targets.

GO ?= go

.PHONY: all build test cover vet bench bench-baseline bench-mpc gateway-bench race fuzz smoke experiments examples clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# -timeout turns a deadlocked parallel construction (a hung MPC session,
# a leaked worker) into a stack-dumping failure instead of a stuck CI job.
# -shuffle=on randomizes test order so inter-test state dependencies
# cannot hide; the seed is printed on failure for replay.
test:
	$(GO) test -timeout 10m -shuffle=on ./...

# Coverage profile plus the per-function summary CI uploads as an
# artifact (coverage.out for tooling, coverage.txt for humans).
cover:
	$(GO) test -timeout 10m -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tee coverage.txt

race:
	$(GO) test -race -timeout 15m ./...

# Boot eppi-serve, run one query, and assert /v1/metrics and /v1/traces
# answer with live data (see scripts/smoke.sh).
smoke:
	sh scripts/smoke.sh

# One benchmark per paper table/figure (quick scale).
bench:
	$(GO) test -bench=. -benchmem ./...

# Refresh BENCH_baseline.json: per-experiment wall times of the quick
# suite, the reference point for judging parallel-pipeline regressions.
bench-baseline:
	$(GO) run ./cmd/eppi-bench -experiment all -quick -metrics=false -baseline BENCH_baseline.json

# Append a gateway latency snapshot (cold + warm cache percentiles over a
# self-contained loopback shard fleet) to BENCH_gateway.json, tracked next
# to BENCH_baseline.json.
gateway-bench:
	$(GO) run ./cmd/eppi-gateway -selfbench 20000 -baseline BENCH_gateway.json
	scripts/bench_guard.sh BENCH_gateway.json

# Append a secure-construction measurement (CountBelow/Reveal stage wall
# time and AND-gate-instance throughput) to BENCH_mpc.json, then fail if
# the throughput regressed >20% vs the previous entry.
bench-mpc:
	$(GO) run ./cmd/eppi-bench -mpcbench BENCH_mpc.json
	$(GO) run ./scripts/benchguard -mpc BENCH_mpc.json

# Short fuzz session over every fuzz target. The batch equivalence fuzz
# gets the longest slice: it drives the whole gateway query path.
fuzz:
	$(GO) test -fuzz=FuzzUnmarshalBinary -fuzztime=10s ./internal/bitmat/
	$(GO) test -fuzz=FuzzBeta -fuzztime=10s ./internal/mathx/
	$(GO) test -fuzz=FuzzLambda -fuzztime=10s ./internal/mathx/
	$(GO) test -fuzz=FuzzBatchEquivalence -fuzztime=30s -run '^$$' ./internal/gateway/
	$(GO) test -fuzz=FuzzGMWWideEquivalence -fuzztime=10s -run '^$$' ./internal/gmw/

# Regenerate every paper table and figure at full scale.
experiments:
	$(GO) run ./cmd/eppi-bench -experiment all

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/healthcare
	$(GO) run ./examples/attacklab
	$(GO) run ./examples/distributed
	$(GO) run ./examples/university

clean:
	$(GO) clean ./...
