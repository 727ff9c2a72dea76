#!/usr/bin/env bash
# verify.sh — the repo's verification gate. CI runs exactly this script;
# run it locally before sending a change.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> go vet ./..."
go vet ./...

echo "==> go build ./..."
go build ./...

# perfbench is a nested module, so the root ./... above skips it; vet
# type-checks it, so a change that breaks the benchmark's build fails here.
echo "==> go -C perfbench vet ./..."
go -C perfbench vet ./...

echo "==> go test -race ./..."
go test -race ./...

echo "==> fuzz smoke: FuzzGraphJSONRoundTrip (10s)"
go test -run '^$' -fuzz '^FuzzGraphJSONRoundTrip$' -fuzztime 10s ./internal/graph

echo "==> fuzz smoke: FuzzDistHeap (10s)"
go test -run '^$' -fuzz '^FuzzDistHeap$' -fuzztime 10s ./internal/graph

echo "==> fuzz smoke: FuzzFlowIO (10s)"
go test -run '^$' -fuzz '^FuzzFlowIO$' -fuzztime 10s ./internal/flow

echo "==> fuzz smoke: FuzzReproRoundTrip (10s)"
go test -run '^$' -fuzz '^FuzzReproRoundTrip$' -fuzztime 10s ./internal/invariant

echo "==> fuzz smoke: FuzzModelConfig (10s)"
go test -run '^$' -fuzz '^FuzzModelConfig$' -fuzztime 10s ./internal/model

echo "==> fuzz smoke: FuzzCholeskyInverseDiag (10s)"
go test -run '^$' -fuzz '^FuzzCholeskyInverseDiag$' -fuzztime 10s ./internal/stats

echo "==> fuzz smoke: FuzzEagerIncremental (10s)"
go test -run '^$' -fuzz '^FuzzEagerIncremental$' -fuzztime 10s ./internal/core

echo "==> fuzz smoke: FuzzServeRequest (10s)"
go test -run '^$' -fuzz '^FuzzServeRequest$' -fuzztime 10s ./internal/serve

echo "==> fuzz smoke: FuzzBatchRequest (10s)"
go test -run '^$' -fuzz '^FuzzBatchRequest$' -fuzztime 10s ./internal/serve

echo "==> fuzz smoke: FuzzJobsRequest (10s)"
go test -run '^$' -fuzz '^FuzzJobsRequest$' -fuzztime 10s ./internal/serve

echo "==> fuzz smoke: FuzzWireDecode (10s)"
go test -run '^$' -fuzz '^FuzzWireDecode$' -fuzztime 10s ./internal/serve

echo "==> fuzz smoke: FuzzIgnoreDirective (10s)"
go test -run '^$' -fuzz '^FuzzIgnoreDirective$' -fuzztime 10s ./internal/lint

echo "==> fuzz smoke: FuzzLintBaseline (10s)"
go test -run '^$' -fuzz '^FuzzLintBaseline$' -fuzztime 10s ./internal/lint

echo "==> invariant soak (short: 25 instances, all registered invariants)"
go run ./cmd/soak -instances 25 -seed 2015 -out /tmp/soak_artifacts -metrics \
    > /tmp/soak_verify.txt
grep -q 'all invariants hold' /tmp/soak_verify.txt \
    || { echo "soak gate did not pass cleanly"; cat /tmp/soak_verify.txt; exit 1; }

echo "==> roadsidelint (ratchet gate against results/LINT_baseline.json)"
go run ./cmd/roadsidelint -baseline results/LINT_baseline.json ./...

echo "==> serverap load smoke (3s loopback, bit-identity checked per response)"
go run ./cmd/serverap -load 3s -clients 4 -problems 3 \
    -metrics-out /tmp/serverap_metrics.txt > /tmp/serverap_load.txt
grep -q ' 0 failures' /tmp/serverap_load.txt \
    || { echo "serverap load smoke reported failures"; cat /tmp/serverap_load.txt; exit 1; }

echo "==> serverap sharded load smoke (3s, 3 shards behind the router)"
go run ./cmd/serverap -load 3s -clients 4 -problems 3 -shards 3 -seed 5 \
    > /tmp/serverap_shard_load.txt
grep -q ' 0 failures' /tmp/serverap_shard_load.txt \
    || { echo "serverap sharded load smoke reported failures"; cat /tmp/serverap_shard_load.txt; exit 1; }

echo "==> bench smoke (quick mode, report-only + instrumented run)"
# Report-only on purpose: ns/op is machine-dependent, so the tier-1 gate
# never fails on timing. CI's dedicated benchmark job does the regression
# check against results/BENCH_baseline.json and gates no-op observer
# overhead (-check-obs); here the instrumented pass only has to work.
go run ./cmd/bench -quick -out /tmp/bench_quick.json \
    -baseline results/BENCH_baseline.json
go run ./cmd/bench -quick -benchtime 20ms -metrics -trace /tmp/bench_trace.json \
    > /tmp/bench_metrics.txt
grep -q 'core.solver.combined.steps' /tmp/bench_metrics.txt \
    || { echo "bench -metrics output missing solver counters"; exit 1; }

echo "==> large-graph smoke (mega citygen, many-to-many, sharded engine)"
# Same code path as the CI-opt-in 1M-node -large run, shrunk to seconds.
go run ./cmd/bench -large-smoke -benchtime 20ms -out /tmp/bench_large_smoke.json \
    > /tmp/bench_large_smoke.txt
grep -q 'vs trees fan-out' /tmp/bench_large_smoke.txt \
    || { echo "large smoke missing m2m comparison"; cat /tmp/bench_large_smoke.txt; exit 1; }

echo "==> delta smoke (update-vs-rebuild drift cycles, >=10x gate built in)"
# Short benchtime; the command itself fails if delta/fresh bit-identity
# breaks or the volume-drift speedup falls under the 10x gate.
go run ./cmd/bench -delta -benchtime 20ms -out /tmp/bench_delta_smoke.json \
    > /tmp/bench_delta_smoke.txt \
    || { echo "delta smoke failed"; cat /tmp/bench_delta_smoke.txt; exit 1; }

echo "verify: all gates passed"
