.PHONY: build test check bench-module-check exec-loc plan-bench exec-bench bench harness parallel-bench analyze-bench robustness-bench robustness-check vectorized-bench serving-bench adaptive-bench storage-bench durability-bench compression-bench crash-check bench-smoke

build:
	go build ./...

test:
	go test ./...

# check is the strict gate: formatting, vet, and the full suite under the race
# detector. The parallel executor (internal/exec) is explicitly designed to be
# race-clean; run this before sending changes.
check: bench-module-check exec-loc
	@unformatted="$$(gofmt -l .)"; test -z "$$unformatted" || { echo "gofmt -l . lists:"; echo "$$unformatted"; exit 1; }
	go vet ./...
	go test -race ./...

# bench/ is its own module, so `go build ./...` never compiles it, yet it
# imports internal/exec directly (NewCtx, NewPool, NewMemAccount,
# RunPlanQuery, CompileScanZonePreds and Ctx fields). This compiles and runs
# it at tiny scale against the engine in this checkout.
bench-module-check:
	go -C bench vet .
	go -C bench test .

# Non-test line counts of the executor and of the storage engine — the
# numbers the "one pipeline executor" and "one table representation" roadmap
# items track. The executor's count may not exceed EXEC_LOC_CEILING, so it
# cannot creep back up unnoticed; `make check` runs this. A change that
# shrinks the executor lowers the ceiling to the new count.
EXEC_LOC_CEILING := 6414
exec-loc:
	@for d in internal/exec internal/storage; do \
		echo "$$d $$(ls $$d/*.go | grep -v _test.go | xargs cat | wc -l)"; done
	@n=$$(ls internal/exec/*.go | grep -v _test.go | xargs cat | wc -l); \
	test $$n -le $(EXEC_LOC_CEILING) || { \
		echo "internal/exec: $$n non-test lines, above the ceiling of $(EXEC_LOC_CEILING)"; exit 1; }

# Planner micro-benchmarks: one System-R Optimize call (fresh estimator and
# optimizer per statement, as the engine builds them) on the adhoc_planning
# statement shapes, with ns/op, B/op and allocs/op. PLAN_BENCHTIME=1x is the CI
# smoke setting.
PLAN_BENCHTIME ?= 1s
plan-bench:
	go test -run '^$$' -bench 'BenchmarkOptimize' -benchmem -benchtime $(PLAN_BENCHTIME) ./internal/systemr

# Executor and index micro-benchmarks. In internal/exec: hash aggregation at
# 8 / 1000 / 20 000 groups over one and three keys, the hash-join probe,
# filtered scans collected at 10 % and 85 % selectivity, and whole pipelines
# (filtered scalar aggregate, 1000-group aggregation, three-dimension star
# join) — over pinned and file-backed segments —, the ordered operators (top
# 10, sort, merge join, nested-loop join, result rows included) and the
# spilling operators under a 1 MiB budget (grace join, 20 000-group
# aggregation); ns/row plus B/op and allocs/op. In internal/storage: one index Seek on a 20 000-entry index
# (point, and a range at the start, middle and end) and one index build over
# 100 000 rows (INT and string keys, loaded ascending or shuffled).
# EXEC_BENCHTIME=1x is the CI smoke setting.
EXEC_BENCHTIME ?= 1s
exec-bench:
	go test -run '^$$' -bench 'BenchmarkKernel|BenchmarkFilteredScan|BenchmarkPipeline|BenchmarkOrdered|BenchmarkSpill|BenchmarkIndex' -benchmem -benchtime $(EXEC_BENCHTIME) ./internal/exec ./internal/storage

bench:
	go test -bench=. -benchmem

harness:
	go run ./cmd/benchharness

# Serial-vs-parallel wall-clock sweep; writes BENCH_parallel.json.
parallel-bench:
	go run ./cmd/benchharness parallel

# Random query corpus under EXPLAIN ANALYZE; writes BENCH_analyze.json
# (estimate-vs-actual q-error distribution).
analyze-bench:
	go run ./cmd/benchharness analyze

# Resource-governor sweep: spill overhead under memory budgets plus
# cancellation latency; writes BENCH_robustness.json.
robustness-bench:
	go run ./cmd/benchharness robustness

# Kernels off vs on over identical plans (scan+filter, hash agg); writes
# BENCH_vectorized.json. E24 at full size.
vectorized-bench:
	go run ./cmd/benchharness vectorized

# Concurrent serving sweep: exec-literal vs prepared-reoptimize vs
# prepared-cached at 1/8/64/256 sessions; writes BENCH_serving.json. E25 at
# full size.
serving-bench:
	go run ./cmd/benchharness serving

# Adaptive planning tradeoff: greedy fast path vs full DP planning and
# execution time over the short-statement corpus; writes BENCH_adaptive.json.
# E26 at full size.
adaptive-bench:
	go run ./cmd/benchharness adaptive

# Disk-backed columnar segment sweep: cold/warm scans at selectivities
# 0.001/0.1/1.0 with zone-map pruning on and off; writes BENCH_storage.json.
# E27 at full size.
storage-bench:
	go run ./cmd/benchharness storage

# Crash-consistency cost sweep: checksum verification overhead on cold/warm
# scans plus recovery and scrub time vs segment count; writes
# BENCH_durability.json. E28 at full size.
durability-bench:
	go run ./cmd/benchharness durability

# Compressed columnar sweep: dictionary/RLE encoded segments vs the
# DisableCompression control — scan+filter throughput, bytes read and block
# counts at parallelism 1/4/8; writes BENCH_compression.json. E29 at full size.
compression-bench:
	go run ./cmd/benchharness compression

# crash-check is the durability gate: every kill point of the crash matrix
# (InsertBatch, Flush, SortBy killed at each injection site and occurrence,
# including torn writes), the byte-flip corruption matrix over every region
# class, the seal error-path contract and the transient-retry policy, plus the
# recovered-engine equivalence corpus — all under the race detector at a fixed
# GOMAXPROCS. CI runs this on every push.
crash-check:
	GOMAXPROCS=4 go test -race -count=1 \
		-run 'TestCrashMatrix|TestCorruptionMatrix|TestCorruptSegment|TestSealFailure|TestTransientFaultRetry' \
		./internal/storage
	GOMAXPROCS=4 go test -race -count=1 -run 'TestRecoveredEngineEquivalence|TestEngineChecksumOptions' .

# bench-smoke is the fast perf gate: a reduced-size E24 run (kernels off vs on
# must still report identical results), a tiny E25 serving sweep under the
# race detector (all three modes must still report identical results), a
# reduced E26 adaptive sweep under the race detector (greedy and DP arms must
# still report identical results), a reduced E27 storage sweep under the race
# detector (disk reads must be bit-identical to memory), a reduced E29
# compression sweep under the race detector (encoded blocks must decode to
# bit-identical results), and the executor suite under -race. CI runs this on every push; it finishes in well under a
# minute.
bench-smoke:
	go run ./cmd/benchharness vectorized 20000
	GOMAXPROCS=4 go run -race ./cmd/benchharness serving 1000 8
	GOMAXPROCS=4 go run -race ./cmd/benchharness adaptive 40 2000
	GOMAXPROCS=4 go run -race ./cmd/benchharness storage 30000
	GOMAXPROCS=4 go run -race ./cmd/benchharness compression 30000
	go test -race -count=1 ./internal/exec/...

# Fault-injection, cancellation, spill and goroutine-leak suites under the
# race detector at a fixed GOMAXPROCS, so worker interleavings are exercised
# the same way everywhere. CI runs this in addition to `make check`.
robustness-check:
	GOMAXPROCS=4 go test -race -count=1 \
		-run 'Spill|Budget|Cancel|Deadline|Fault|Goroutine|MemAccount|FirstError|WorkerPanic|PoolClose' \
		. ./internal/exec
	GOMAXPROCS=4 go test -race -count=1 ./internal/faultfs
