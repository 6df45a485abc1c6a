.PHONY: build test check bench-module-check exec-loc plan-bench serving-bench exec-bench bench experiments crash-check robustness-check

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

# Non-test line counts of the executor, of the storage engine and of all Go
# outside bench/ — the numbers the "one pipeline executor", "one table
# representation" and "a removal counts as much as a feature" roadmap items
# track. The executor's count may not exceed EXEC_LOC_CEILING and the whole
# count may not exceed NONTEST_LOC_CEILING, so neither can creep back up
# unnoticed; `make check` runs this. A change that shrinks either lowers its
# ceiling to the new count.
EXEC_LOC_CEILING := 5805
NONTEST_LOC_CEILING := 31097
exec-loc:
	@for d in internal/exec internal/storage; do \
		echo "$$d $$(ls $$d/*.go | grep -v _test.go | xargs cat | wc -l)"; done
	@n=$$(ls internal/exec/*.go | grep -v _test.go | xargs cat | wc -l); \
	test $$n -le $(EXEC_LOC_CEILING) || { \
		echo "internal/exec: $$n non-test lines, above the ceiling of $(EXEC_LOC_CEILING)"; exit 1; }
	@n=$$(find . -name '*.go' -not -path './bench/*' -not -name '*_test.go' | xargs cat | wc -l); \
	echo "non-test Go outside bench/ $$n"; \
	test $$n -le $(NONTEST_LOC_CEILING) || { \
		echo "non-test Go outside bench/: $$n lines, above the ceiling of $(NONTEST_LOC_CEILING)"; exit 1; }

# Planner micro-benchmarks: one Optimize call (fresh estimator and optimizer
# per statement, as the engine builds them) — System-R on the adhoc_planning
# statement shapes, Cascades on a 7-way chain and a 3-dimension star — and
# the rewrite phase every optimizer runs first (BenchmarkOptimizeRewritePhase:
# 2- to 7-way joins, a subquery, an INT star GROUP BY), with ns/op, B/op and
# allocs/op. PLAN_BENCHTIME=1x is the CI smoke setting.
PLAN_BENCHTIME ?= 1s
plan-bench:
	go test -run '^$$' -bench 'BenchmarkOptimize' -benchmem -benchtime $(PLAN_BENCHTIME) ./internal/systemr ./internal/cascades ./internal/qgm

# Prepared-statement serving micro-benchmarks: one cached execution of each
# oltp_prepared template (PK point, secondary-index lookup, short range,
# one-row aggregate, PK join, small group-by) over 20 000 rows, cycling through
# drawn bindings — plan-cache dispatch, the Program run and the result
# conversion — with ns/op, B/op and allocs/op. SERVING_BENCHTIME=1x is the CI
# smoke setting.
SERVING_BENCHTIME ?= 1s
serving-bench:
	go test -run '^$$' -bench 'BenchmarkPreparedExec' -benchmem -benchtime $(SERVING_BENCHTIME) .

# Executor and index micro-benchmarks. In internal/exec: hash aggregation at
# 8 / 1000 / 20 000 groups over one and three keys, over the 8 values of a
# dictionary-coded key, and at 20 000 groups under a one-group estimate, whose
# group memo is capped below the key's span so every morsel hashes (past-cap),
# FLOAT SUM aggregation at
# 1 / 1000 / 20 000 groups over money-like and wide-exponent values, the
# selection, hash and SUM kernels on their own (BenchmarkKernelFilter,
# among its cases a random 1-in-8 equality on INTs and on dictionary codes;
# BenchmarkKernelHash; BenchmarkKernelVectorizedAgg), the hash-join probe
# over dense-unique, sparse and duplicate build keys — collecting the join
# output (/collect) and under a COUNT(*) that reads none of it, which times
# the probe alone (/count) —, filtered scans collected at 10 % and 85 %
# selectivity, and whole pipelines
# (filtered scalar aggregate, 1000-group aggregation, three-dimension star
# join) — over pinned and file-backed segments —, the ordered operators (top
# 10, sort, merge join, nested-loop join, result rows included) and the
# spilling operators under a 1 MiB budget (grace join, 20 000-group
# aggregation); ns/row plus B/op and allocs/op. In internal/storage: one index Seek on a 20 000-entry index
# (point, and a range at the start, middle and end), one index build over
# 100 000 rows (INT and string keys, loaded ascending or shuffled), and one
# scan of a 16-segment FLOAT column through a block cache below one block, so
# every block is a miss read into a recycled buffer (BenchmarkChurningScan). In
# internal/stats: BenchmarkAnalyze, one full ANALYZE of a 100 000-row
# sales-shaped table in memory and on flushed segments (ns/row, B/op,
# allocs/op). EXEC_BENCHTIME=1x is the CI smoke setting.
EXEC_BENCHTIME ?= 1s
exec-bench:
	go test -run '^$$' -bench 'BenchmarkKernel|BenchmarkFilteredScan|BenchmarkPipeline|BenchmarkOrdered|BenchmarkSpill|BenchmarkIndex|BenchmarkChurningScan|BenchmarkAnalyze' -benchmem -benchtime $(EXEC_BENCHTIME) ./internal/exec ./internal/storage ./internal/stats

# Every root benchmark — the experiment wrappers and the engine
# micro-benchmarks — with B/op and allocs/op; -run '^$' skips the tests.
bench:
	go test -run '^$$' -bench=. -benchmem

# Prints every experiment table (E1–E24, E26–E29; see DESIGN.md §2) by
# running each BenchmarkE* wrapper once under -v. For a subset, narrow the
# -bench regex, e.g. -bench '^BenchmarkE2[3-9]'.
experiments:
	go test -run '^$$' -bench '^BenchmarkE[0-9]' -benchtime 1x -v .

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

# Fault-injection, cancellation, spill and goroutine-leak suites under the
# race detector at a fixed GOMAXPROCS, so worker interleavings are exercised
# the same way everywhere. CI runs this in addition to `make check`.
robustness-check:
	GOMAXPROCS=4 go test -race -count=1 \
		-run 'Spill|Budget|Cancel|Deadline|Fault|Goroutine|MemAccount|FirstError|WorkerPanic|PoolClose' \
		. ./internal/exec
	GOMAXPROCS=4 go test -race -count=1 ./internal/faultfs
