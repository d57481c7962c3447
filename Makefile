GO ?= go

.PHONY: build test vet race fmt-check verify fuzz serve-test chaos-test drift-test experiments bench bench-check slo-check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -timeout 45m ./...

# fmt-check fails when gofmt would reformat any Go file of the main module:
# every file of every package `go list ./...` sees, tests included.
# wpredbench is a module of its own, so it is not listed.
fmt-check:
	@files=$$($(GO) list -f '{{$$d := .Dir}}{{range .GoFiles}}{{$$d}}/{{.}} {{end}}{{range .TestGoFiles}}{{$$d}}/{{.}} {{end}}{{range .XTestGoFiles}}{{$$d}}/{{.}} {{end}}{{range .IgnoredGoFiles}}{{$$d}}/{{.}} {{end}}' ./...); \
	unformatted=$$(gofmt -l $$files); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi

# verify is the tier-1 gate (see ROADMAP.md): every change must pass it.
# It starts with the gofmt check. The race step also stress-tests
# internal/parallel under contention (TestStressContention) and runs the
# -j determinism tests, so data races in the worker pool and the suite's
# shared caches are exercised here.
verify: fmt-check build vet race

# fuzz runs the telemetry decoder and VP-tree query fuzzers for short
# bursts beyond their committed seed corpora (the corpora themselves run
# as plain tests under make test/verify).
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzReadExperiments -fuzztime 30s ./internal/telemetry/
	$(GO) test -run '^$$' -fuzz FuzzVPTreeQuery -fuzztime 30s ./internal/ann/

# serve-test is the focused gate for the serving layer: the wpredd e2e
# lifecycle, registry single-flight/eviction stress, admission-queue
# backpressure, and the /v1/predict decoder corpus — all under -race.
serve-test:
	$(GO) test -race -count 1 -timeout 10m ./internal/serve/ ./cmd/wpredd/

# chaos-test is the fleet-robustness gate: the router's fault-injection
# suite plus the kill-and-warm-restart e2e (3 backends sharing a snapshot
# directory, one killed and restarted mid-load; zero client-visible
# failures and exactly one fit per key fleet-wide), all under -race.
# The full router/faults/snapshot packages run (including the
# FuzzDecodeSnapshot seed corpus: corrupt snapshots error, never panic);
# serve is filtered to its snapshot/restart tests to keep the job short.
chaos-test:
	$(GO) test -race -count 1 -timeout 15m ./internal/router/ ./internal/faults/ ./internal/snapshot/
	$(GO) test -race -count 1 -timeout 10m -run 'TestSnapshot|TestHealthPayloadsCarrySnapshotStatus|TestRetryAfterJitter|TestRejectedRequestCarriesJitteredRetryAfter' ./internal/serve/

# drift-test is the focused gate for the streaming drift loop: the
# changepoint property tests, the internal/drift detector suite, the
# /v1/observe → background-refit e2e (stale model served during the
# refit, byte-identical same-seed runs), the refit-vs-restore race
# stress, and the forecast experiment's quick-mode golden (timing
# masked; regenerate deliberately with
#   go test ./cmd/experiments -run TestForecastGolden -update
# ) — all under -race.
drift-test:
	$(GO) test -race -count 1 -timeout 10m ./internal/changepoint/ ./internal/drift/
	$(GO) test -race -count 1 -timeout 10m -run 'TestObserveRejects|TestDriftE2E|TestDriftState|TestHealthCarriesDrift|TestRegistryRefit' ./internal/serve/
	$(GO) test -race -count 1 -timeout 10m -run 'TestForecastGolden' ./cmd/experiments/

# experiments regenerates every table and figure at the committed seed.
experiments:
	$(GO) run ./cmd/experiments -run all

# bench snapshots every micro- and macro-benchmark into BENCH.json
# (median over 6 runs). Compare against a previous snapshot with
#   go run ./cmd/benchdiff BENCH.json.old BENCH.json
bench:
	$(GO) test -run '^$$' -bench . -benchmem -count 6 -timeout 120m ./... | tee BENCH.txt
	$(GO) run ./cmd/benchdiff -parse BENCH.txt -o BENCH.json

# bench-check is the fast perf-regression gate: it re-runs the Fit and
# Predict macro-benchmarks (including the memoized pipeline predict path,
# BenchmarkPredictPipeline in internal/core) plus the DTW-cascade and
# nearest-reference index micro-benchmarks with short settings and fails
# (non-zero exit) when any median ns/op, allocs/op, or B/op regresses more
# than 20% against the committed BENCH.baseline.json (zero-alloc baselines
# fail on any new allocation; tiny B/op baselines get a 64-byte floor), and
# when a baseline benchmark is missing from the run. The check and the
# baseline recording below both use -cpu 1, so benchmark names carry no -N
# suffix on any host and match the baseline's. The fresh snapshot is left
# in BENCH.check.json so CI can archive it. Regenerate the baseline on the
# same machine class after an intentional perf change:
#   go test -run '^$$' -bench 'BenchmarkFit|BenchmarkPredict|BenchmarkDTW|BenchmarkNearest' -benchmem -count 3 -benchtime 0.3s -cpu 1 ./internal/ml/... ./internal/distance/ ./internal/ann/ ./internal/core/ > bench.txt
#   go run ./cmd/benchdiff -parse bench.txt -o BENCH.baseline.json
bench-check:
	$(GO) test -run '^$$' -bench 'BenchmarkFit|BenchmarkPredict|BenchmarkDTW|BenchmarkNearest' -benchmem -count 3 -benchtime 0.3s -cpu 1 -timeout 20m ./internal/ml/... ./internal/distance/ ./internal/ann/ ./internal/core/ > bench.check.txt
	$(GO) run ./cmd/benchdiff -parse bench.check.txt -o BENCH.check.json
	$(GO) run ./cmd/benchdiff -threshold 20 BENCH.baseline.json BENCH.check.json
	@rm -f bench.check.txt

# slo-check is the serving-SLO gate: wpredload spins up a seeded
# in-process server, runs the deterministic quick profile against it
# (same seed, same request sequence — the report's schedule_digest proves
# it), and slodiff fails (non-zero exit) when the run violates the
# committed SLO.baseline.json limits. The fresh report is left in
# SLO.check.json so CI can archive it.
slo-check:
	$(GO) run ./cmd/wpredload -self -profile quick -o SLO.check.json
	$(GO) run ./cmd/slodiff -report SLO.check.json -baseline SLO.baseline.json
