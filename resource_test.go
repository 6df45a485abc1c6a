package queryopt

// resource_test.go exercises the resource governor end to end through the
// public Engine API: memory-budgeted queries must degrade to disk and stay
// bit-identical to unbudgeted runs (serially and in parallel), cancellation
// and deadlines must unwind promptly at every parallelism degree without
// leaking goroutines, injected storage faults must surface exactly once, and
// EXPLAIN ANALYZE must report memory and spill figures.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/faultfs"
)

// spillBudget is deliberately tiny: every hash join build, hash aggregation
// and sort over the big random corpus trips it, forcing the degraded
// operators while the spill floor keeps partitions viable.
const spillBudget = 4 << 10

// TestSpillEquivalence: the same random query corpus must return exactly the
// same rows — floats compared bit-for-bit in hex — from an unbudgeted serial
// engine, a budget-starved serial engine, and budget-starved parallel engines
// at degrees 4 and 8. Cumulatively the starved engines must actually spill,
// otherwise the test is vacuous.
func TestSpillEquivalence(t *testing.T) {
	const trials = 25
	for seed := int64(1); seed <= 2; seed++ {
		baseline := bigRandSchema(t, Options{Optimizer: SystemR}, seed)
		starved := []*Engine{
			bigRandSchema(t, Options{Optimizer: SystemR, MemBudget: spillBudget}, seed),
			bigRandSchema(t, Options{Optimizer: SystemR, MemBudget: spillBudget, Parallelism: 4}, seed),
			bigRandSchema(t, Options{Optimizer: SystemR, MemBudget: spillBudget, Parallelism: 8}, seed),
		}
		labels := []string{"serial", "parallel-4", "parallel-8"}
		rng := rand.New(rand.NewSource(seed * 77))
		var totalSpills int64
		for trial := 0; trial < trials; trial++ {
			q := randQuery(rng)
			want, err := baseline.Exec(q)
			if err != nil {
				t.Fatalf("seed %d trial %d baseline: %v\nquery: %s", seed, trial, err, q)
			}
			ordered := strings.Contains(q, "ORDER BY")
			for i, e := range starved {
				got, err := e.Exec(q)
				if err != nil {
					t.Fatalf("seed %d trial %d %s: %v\nquery: %s", seed, trial, labels[i], err, q)
				}
				totalSpills += got.Stats.Spills
				if ordered {
					if len(got.Rows) != len(want.Rows) {
						t.Fatalf("seed %d trial %d %s: %d rows, want %d\nquery: %s",
							seed, trial, labels[i], len(got.Rows), len(want.Rows), q)
					}
					for j := range want.Rows {
						if w, g := canonRow(want.Rows[j]), canonRow(got.Rows[j]); w != g {
							t.Fatalf("seed %d trial %d %s row %d:\n  got  %s\n  want %s\nquery: %s",
								seed, trial, labels[i], j, g, w, q)
						}
					}
				} else {
					w, g := canonRows(want), canonRows(got)
					for j := range w {
						if j >= len(g) || w[j] != g[j] {
							t.Fatalf("seed %d trial %d %s: multiset mismatch at %d\nquery: %s",
								seed, trial, labels[i], j, q)
						}
					}
					if len(g) != len(w) {
						t.Fatalf("seed %d trial %d %s: %d rows, want %d", seed, trial, labels[i], len(g), len(w))
					}
				}
			}
		}
		if totalSpills == 0 {
			t.Fatalf("seed %d: budget %d never forced a spill — test is vacuous", seed, spillBudget)
		}
	}
}

// TestBudgetedQueryBitIdenticalWithStats: a single aggregation-heavy query,
// asserting both equivalence and that the budgeted run reports spills while
// the unbudgeted one reports the memory it reserved instead.
func TestBudgetedQueryBitIdenticalWithStats(t *testing.T) {
	const q = `SELECT r.a, COUNT(*), SUM(r.f), MIN(t.s)
FROM r, t WHERE r.fk = t.pk GROUP BY r.a ORDER BY r.a`
	free := bigRandSchema(t, Options{Optimizer: SystemR}, 3)
	tight := bigRandSchema(t, Options{Optimizer: SystemR, MemBudget: 512}, 3)
	want := free.MustExec(q)
	got := tight.MustExec(q)
	if want.Stats.Spills != 0 || want.Stats.PeakMemBytes == 0 {
		t.Fatalf("unbudgeted stats unexpected: %+v", want.Stats)
	}
	if got.Stats.Spills == 0 || got.Stats.SpillBytes == 0 {
		t.Fatalf("budgeted run did not spill: %+v", got.Stats)
	}
	if len(want.Rows) != len(got.Rows) {
		t.Fatalf("rows: %d vs %d", len(got.Rows), len(want.Rows))
	}
	for i := range want.Rows {
		if w, g := canonRow(want.Rows[i]), canonRow(got.Rows[i]); w != g {
			t.Fatalf("row %d: got %s want %s", i, g, w)
		}
	}
}

// TestImpossibleBudgetFailsTyped: a query whose minimal working set cannot
// fit even with spilling (all rows share one join key, so one grace-join
// partition holds everything) must fail with ErrMemoryBudgetExceeded rather
// than hang, OOM, or silently truncate.
func TestImpossibleBudgetFailsTyped(t *testing.T) {
	e := New(Options{Optimizer: SystemR, MemBudget: 1 << 10})
	t.Cleanup(e.Close)
	e.MustExec(`CREATE TABLE big (pk INT NOT NULL, k INT, s VARCHAR, PRIMARY KEY (pk))`)
	rows := make([][]any, 6000)
	for i := range rows {
		rows[i] = []any{i, 7, "payload-payload-payload-payload"}
	}
	if err := e.LoadRows("big", rows); err != nil {
		t.Fatal(err)
	}
	e.MustExec("ANALYZE")
	_, err := e.Exec(`SELECT a.pk, b.pk FROM big a, big b WHERE a.k = b.k`)
	if !errors.Is(err, ErrMemoryBudgetExceeded) {
		t.Fatalf("got %v, want ErrMemoryBudgetExceeded", err)
	}
}

// cancelCorpusQuery is a join+aggregation over the big corpus — long enough
// to be mid-flight when the context fires at any degree.
const cancelCorpusQuery = `SELECT r.fk, COUNT(*), SUM(r.f) FROM r, t, u
WHERE r.fk = t.pk AND t.a = u.a GROUP BY r.fk ORDER BY r.fk`

// TestCancellationPromptAtAllDegrees: a query canceled mid-run returns
// context.Canceled within one batch interval (far under a second here) at
// parallelism 1, 4 and 8, and the engine keeps working afterwards.
func TestCancellationPromptAtAllDegrees(t *testing.T) {
	for _, degree := range []int{1, 4, 8} {
		e := bigRandSchema(t, Options{Optimizer: SystemR, Parallelism: degree}, 4)
		// Pre-canceled: the very first checkpoint must observe it.
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		start := time.Now()
		_, err := e.ExecContext(ctx, cancelCorpusQuery)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("degree %d: got %v, want context.Canceled", degree, err)
		}
		if d := time.Since(start); d > time.Second {
			t.Fatalf("degree %d: cancellation took %v", degree, d)
		}
		// Cancel mid-flight from another goroutine.
		ctx2, cancel2 := context.WithCancel(context.Background())
		go func() {
			time.Sleep(2 * time.Millisecond)
			cancel2()
		}()
		if _, err := e.ExecContext(ctx2, cancelCorpusQuery); err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("degree %d: mid-flight cancel returned %v", degree, err)
		}
		// The engine must remain usable after a canceled query.
		if _, err := e.Exec(`SELECT COUNT(*) FROM r`); err != nil {
			t.Fatalf("degree %d: engine broken after cancel: %v", degree, err)
		}
	}
}

// TestDeadlineExceeded: an expired deadline surfaces as DeadlineExceeded.
func TestDeadlineExceeded(t *testing.T) {
	e := bigRandSchema(t, Options{Optimizer: SystemR, Parallelism: 4}, 5)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Millisecond))
	defer cancel()
	if _, err := e.ExecContext(ctx, cancelCorpusQuery); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
}

// TestEngineFaultInjectionAtDegree8: a storage fault injected into the
// engine's scan path surfaces exactly once from a parallel query, and the
// engine survives to run the next query.
func TestEngineFaultInjectionAtDegree8(t *testing.T) {
	e := bigRandSchema(t, Options{Optimizer: SystemR, Parallelism: 8}, 6)
	boom := errors.New("simulated disk failure")
	e.faults = faultfs.New(faultfs.Rule{Op: "scan", After: 4, Err: boom})
	if _, err := e.Exec(cancelCorpusQuery); !errors.Is(err, boom) {
		t.Fatalf("got %v, want injected error", err)
	}
	e.faults = nil
	if _, err := e.Exec(`SELECT COUNT(*) FROM r`); err != nil {
		t.Fatalf("engine broken after injected fault: %v", err)
	}
}

// TestSpillFaultInjectionThroughEngine: faults on spill-file I/O during a
// budget-forced degraded query surface cleanly too.
func TestSpillFaultInjectionThroughEngine(t *testing.T) {
	e := bigRandSchema(t, Options{Optimizer: SystemR, MemBudget: spillBudget}, 7)
	boom := errors.New("spill device gone")
	e.faults = faultfs.New(faultfs.Rule{Op: "spill.write", After: 2, Err: boom})
	if _, err := e.Exec(cancelCorpusQuery); !errors.Is(err, boom) {
		t.Fatalf("got %v, want injected spill error", err)
	}
}

// TestNoGoroutineLeaksThroughEngine: completion, cancellation, injected
// failure and budget exhaustion at degrees 1, 4, 8, then engine close — the
// goroutine count must settle back to its baseline.
func TestNoGoroutineLeaksThroughEngine(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for _, degree := range []int{1, 4, 8} {
		e := bigRandSchema(t, Options{Optimizer: SystemR, Parallelism: degree, MemBudget: spillBudget}, 8)
		if _, err := e.Exec(cancelCorpusQuery); err != nil {
			t.Fatalf("degree %d: %v", degree, err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := e.ExecContext(ctx, cancelCorpusQuery); !errors.Is(err, context.Canceled) {
			t.Fatalf("degree %d: %v", degree, err)
		}
		e.faults = faultfs.New(faultfs.Rule{Op: "scan", After: 1})
		if _, err := e.Exec(cancelCorpusQuery); !errors.Is(err, faultfs.ErrInjected) {
			t.Fatalf("degree %d: %v", degree, err)
		}
		e.faults = nil
		e.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		buf := make([]byte, 1<<20)
		t.Fatalf("goroutines leaked: %d > baseline %d\n%s", n, baseline, buf[:runtime.Stack(buf, true)])
	}
}

// TestExplainAnalyzeShowsMemoryAndSpills: the rendered EXPLAIN ANALYZE tree
// includes mem_bytes on memory-charging operators, and spills/spill_bytes
// when the budget forces degradation.
func TestExplainAnalyzeShowsMemoryAndSpills(t *testing.T) {
	free := bigRandSchema(t, Options{Optimizer: SystemR}, 9)
	res, err := free.Exec("EXPLAIN ANALYZE " + cancelCorpusQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Plan, "mem_bytes=") {
		t.Fatalf("no mem_bytes in EXPLAIN ANALYZE output:\n%s", res.Plan)
	}
	if strings.Contains(res.Plan, "spills=") {
		t.Fatalf("unbudgeted plan claims spills:\n%s", res.Plan)
	}
	tight := bigRandSchema(t, Options{Optimizer: SystemR, MemBudget: 512}, 9)
	res, err = tight.Exec("EXPLAIN ANALYZE " + cancelCorpusQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Plan, "spills=") || !strings.Contains(res.Plan, "spill_bytes=") {
		t.Fatalf("budgeted plan reports no spills:\n%s", res.Plan)
	}
}

// nestedBig is an engine over big, a 5000-row table that no index serves,
// and small, 40 rows of big's key domain; the nested statements below keep
// their subquery under OR, so it runs once per outer row.
func nestedBig(t *testing.T, opts Options) *Engine {
	t.Helper()
	e := New(opts)
	t.Cleanup(e.Close)
	e.MustExec(`CREATE TABLE big (x INT, y INT, pad VARCHAR)`)
	e.MustExec(`CREATE TABLE small (x INT, y INT)`)
	rows := make([][]any, 5000)
	for i := range rows {
		rows[i] = []any{i, i % 97, fmt.Sprintf("p%05d", (i*7919)%5000)}
	}
	if err := e.LoadRows("big", rows); err != nil {
		t.Fatal(err)
	}
	rows = rows[:40]
	for i := range rows {
		rows[i] = []any{i * 125, i % 7}
	}
	if err := e.LoadRows("small", rows); err != nil {
		t.Fatal(err)
	}
	e.MustExec("ANALYZE")
	return e
}

// TestNestedSubPlanCancelAndBudget: a subquery's sub-plan runs under its
// statement's controls. The 5000 × 5000-row OR EXISTS statement stops within
// a second of its 20 ms deadline instead of running to the end, and a
// sub-plan that aggregates reserves memory in the statement's budgeted
// account, at one and at four workers.
func TestNestedSubPlanCancelAndBudget(t *testing.T) {
	for _, par := range []int{1, 4} {
		e := nestedBig(t, Options{MemBudget: 256 << 10, Parallelism: par})
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		start := time.Now()
		_, err := e.ExecContext(ctx, `SELECT COUNT(*) FROM big a WHERE a.x = -1 OR EXISTS
			(SELECT 1 FROM big b WHERE b.y = a.y AND b.pad > a.pad)`)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("parallel=%d: got %v, want context.DeadlineExceeded", par, err)
		}
		if d := time.Since(start); d > time.Second {
			t.Fatalf("parallel=%d: the deadline took %v to take effect", par, d)
		}

		res, err := e.Exec(`SELECT s.x FROM small s WHERE s.x = -1 OR s.y <
			(SELECT COUNT(*) FROM (SELECT b.y FROM big b WHERE b.x < s.x GROUP BY b.y) g)`)
		if err != nil {
			t.Fatalf("parallel=%d: %v", par, err)
		}
		if res.Stats.SubqueryEvals != 40 || res.Stats.PeakMemBytes == 0 {
			t.Fatalf("parallel=%d: %d subquery evaluations, peak %d bytes; want 40 and a reservation\n%s",
				par, res.Stats.SubqueryEvals, res.Stats.PeakMemBytes, res.Plan)
		}
	}
}

// TestNestedSubPlanParallelWorkers: over 5000 outer rows the subquery's
// sub-plan runs inside the parallel pipeline's workers, each on its own
// context, and the rows and work counters are the serial run's and the
// reference evaluator's rows.
func TestNestedSubPlanParallelWorkers(t *testing.T) {
	const q = `SELECT a.x, a.pad FROM big a WHERE a.x < 10 OR EXISTS
		(SELECT 1 FROM small s WHERE s.x = a.x AND s.y > a.y - 90)`
	want := canonRows(nestedBig(t, Options{Optimizer: Reference}).MustExec(q))
	var serial ExecStats
	for _, par := range []int{1, 4} {
		res := nestedBig(t, Options{Parallelism: par}).MustExec(q)
		if got := canonRows(res); strings.Join(got, ";") != strings.Join(want, ";") {
			t.Fatalf("parallel=%d: %d rows, reference %d", par, len(got), len(want))
		}
		if par == 1 {
			serial = res.Stats
		} else if res.Stats.SubqueryEvals != serial.SubqueryEvals || res.Stats.RowsProcessed != serial.RowsProcessed {
			t.Fatalf("parallel=%d: %d evaluations over %d rows, serial %d over %d", par,
				res.Stats.SubqueryEvals, res.Stats.RowsProcessed, serial.SubqueryEvals, serial.RowsProcessed)
		}
	}
	if serial.SubqueryEvals < 4990 || len(want) <= 10 {
		t.Fatalf("%d subquery evaluations, %d rows: the statement does not exercise nested iteration", serial.SubqueryEvals, len(want))
	}
}
