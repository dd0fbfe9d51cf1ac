GO ?= go

.PHONY: build test race fmt vet loc fuzz profile bench-baseline bench-gate serve loadtest cluster cluster-race cluster-ha ha-race

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...
	$(GO) test -race -count=5 -timeout 20m -run 'TestPlan|TestProve' ./internal/msm ./internal/groth16
	$(GO) test -race -count=5 ./internal/service ./internal/par ./internal/ntt ./internal/poly

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Non-test, non-generated Go lines per package (benchmark/ excluded): the
# number ROADMAP aim 2 wants to go down.
loc:
	@./scripts/loc.sh

# The same twelve targets as CI's fuzz matrix, 30 s each.
fuzz:
	$(GO) test ./internal/ff -run FuzzFixedVsGeneric -fuzz FuzzFixedVsGeneric -fuzztime 30s
	$(GO) test ./internal/ff -run FuzzInverse -fuzz FuzzInverse -fuzztime 30s
	$(GO) test ./internal/tower -run FuzzTowerFastVsGeneric -fuzz FuzzTowerFastVsGeneric -fuzztime 30s
	$(GO) test ./internal/msm -run FuzzSignedDigitVsStraus -fuzz FuzzSignedDigitVsStraus -fuzztime 30s
	$(GO) test ./internal/msm -run FuzzBucketKernel -fuzz FuzzBucketKernel -fuzztime 30s
	$(GO) test ./internal/curve -run FuzzGLVDecompose -fuzz FuzzGLVDecompose -fuzztime 30s
	$(GO) test ./internal/groth16 -run FuzzBatchVerifyVsSingle -fuzz FuzzBatchVerifyVsSingle -fuzztime 30s
	$(GO) test ./internal/groth16 -run FuzzCompressedProofWire -fuzz FuzzCompressedProofWire -fuzztime 30s
	$(GO) test ./internal/groth16 -run FuzzVerifyingKeyWire -fuzz FuzzVerifyingKeyWire -fuzztime 30s
	$(GO) test ./internal/groth16 -run FuzzProvingKeyWire -fuzz FuzzProvingKeyWire -fuzztime 30s
	$(GO) test ./internal/cluster -run FuzzReplicateIngest -fuzz FuzzReplicateIngest -fuzztime 30s
	$(GO) test ./internal/r1cs -run FuzzSolveVsReference -fuzz FuzzSolveVsReference -fuzztime 30s

# CPU and heap profiles of the library proving loop (BenchmarkProveLarge:
# a 1024-constraint circuit on BN254 against kept GZKP tables, with B/op
# and allocs/op), with the test binary beside them:
# `go tool pprof artifacts/prove_large.cpu`.
profile:
	mkdir -p artifacts
	$(GO) test ./internal/groth16 -run '^$$' -bench '^BenchmarkProveLarge$$' -benchtime 10s -benchmem \
		-cpuprofile artifacts/prove_large.cpu -memprofile artifacts/prove_large.mem \
		-o artifacts/groth16.test

# Refresh the committed benchmark baseline. Run on a quiet machine and
# commit the result; the CI bench-gate job compares every run against it.
bench-baseline:
	$(GO) run ./cmd/gzkp-bench -quick -json BENCH_BASELINE.json

# Local replica of the CI bench-gate job: fresh quick run, gate selftest,
# then the comparison (markdown delta lands in artifacts/bench-delta.md).
bench-gate:
	mkdir -p artifacts
	$(GO) run ./cmd/gzkp-bench -quick -json artifacts/bench.json
	$(GO) run ./cmd/benchdiff -selftest
	$(GO) run ./cmd/benchdiff -validate artifacts/bench.json
	$(GO) run ./cmd/benchdiff -baseline BENCH_BASELINE.json -current artifacts/bench.json -md artifacts/bench-delta.md

# Run the proving service locally (SIGINT drains gracefully and writes the
# checkpoint; restart the target to resume checkpointed jobs).
SERVE_ADDR ?= localhost:8090
serve:
	$(GO) run ./cmd/gzkp-serve -addr $(SERVE_ADDR) -checkpoint artifacts/serve.ckpt

# Drive a running `make serve` with a short open-loop load and validate the
# JSON report through the same gate the CI bench artifacts use.
loadtest:
	mkdir -p artifacts
	$(GO) run ./cmd/gzkp-loadgen -target http://$(SERVE_ADDR) -rps 5 -duration 5s -out artifacts/loadgen-report.json
	$(GO) run ./cmd/benchdiff -validate artifacts/loadgen-report.json

# Run a local 3-node proving cluster: three gzkp-serve nodes plus the
# coordinator on :8089 (point `make loadtest SERVE_ADDR=localhost:8089` at
# it; SIGINT drains the whole cluster into artifacts/cluster.ckpt).
cluster:
	mkdir -p artifacts
	$(GO) build -o artifacts/gzkp-serve ./cmd/gzkp-serve
	$(GO) build -o artifacts/gzkp-coord ./cmd/gzkp-coord
	artifacts/gzkp-serve -addr localhost:8090 & \
	artifacts/gzkp-serve -addr localhost:8091 & \
	artifacts/gzkp-serve -addr localhost:8092 & \
	sleep 1 && artifacts/gzkp-coord -addr localhost:8089 \
		-nodes n0=http://localhost:8090,n1=http://localhost:8091,n2=http://localhost:8092 \
		-checkpoint artifacts/cluster.ckpt

# Local replica of the CI cluster-race job's test half.
cluster-race:
	$(GO) test -race -timeout 20m ./internal/cluster/... ./internal/resilience/...

# Run the 3-node cluster behind a 2-replica HA coordinator group: coordA
# (:8089) leads, coordB (:8088) stands by. Kill coordA and coordB takes
# over within a lease interval; point loadgen at both
# (`-target http://localhost:8089,http://localhost:8088`) to ride through
# the failover.
cluster-ha:
	mkdir -p artifacts
	$(GO) build -o artifacts/gzkp-serve ./cmd/gzkp-serve
	$(GO) build -o artifacts/gzkp-coord ./cmd/gzkp-coord
	artifacts/gzkp-serve -addr localhost:8090 & \
	artifacts/gzkp-serve -addr localhost:8091 & \
	artifacts/gzkp-serve -addr localhost:8092 & \
	sleep 1 && artifacts/gzkp-coord -addr localhost:8088 \
		-self coordB -peers coordA=http://localhost:8089,coordB=http://localhost:8088 \
		-nodes n0=http://localhost:8090,n1=http://localhost:8091,n2=http://localhost:8092 & \
	artifacts/gzkp-coord -addr localhost:8089 \
		-self coordA -peers coordA=http://localhost:8089,coordB=http://localhost:8088 \
		-nodes n0=http://localhost:8090,n1=http://localhost:8091,n2=http://localhost:8092 \
		-checkpoint artifacts/cluster.ckpt

# Local replica of the CI coordinator-failover job's test half.
ha-race:
	$(GO) test -race -timeout 20m -run 'TestReplica|TestJournal|TestSim|FuzzReplicateIngest' ./internal/cluster/
