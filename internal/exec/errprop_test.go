package exec

// Error-propagation and cancellation tests for the morsel-driven engine: the
// resource governor's guarantee is that a failure raised by ANY worker, at
// ANY parallelism degree, surfaces to the caller exactly once, picks the
// deterministic winner (the error of the earliest morsel), unwinds promptly,
// and leaks no goroutines.

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/datum"
	"repro/internal/faultfs"
	"repro/internal/logical"
	"repro/internal/physical"
	"repro/internal/storage"
)

// TestFirstErrorWinsDeterministically: two workers fail with distinct errors
// on distinct morsels; whenever both errors are raised, the winner must be
// the error of the earliest morsel, at every degree, on every repetition.
// The channel handshake guarantees the late error is only raised after the
// early one is committed, so the outcome is fully deterministic.
func TestFirstErrorWinsDeterministically(t *testing.T) {
	errEarly := errors.New("early morsel failure")
	errLate := errors.New("late morsel failure")
	for _, degree := range []int{2, 4, 8} {
		for rep := 0; rep < 20; rep++ {
			earlyRaised := make(chan struct{})
			c := NewCtx(nil, nil)
			c.Parallelism = degree
			err := c.forMorsels(20*MorselSize, c.morselWorkers(20*MorselSize), func(wc *Ctx, m, lo, hi int) error {
				switch m {
				case 4:
					close(earlyRaised)
					return errEarly
				case 13:
					// Don't fail until the early error is guaranteed to be
					// in flight; its worker records it even after abort.
					<-earlyRaised
					return errLate
				}
				return nil
			})
			c.Close()
			if !errors.Is(err, errEarly) {
				t.Fatalf("degree %d rep %d: got %v, want the earlier morsel's error", degree, rep, err)
			}
			if errors.Is(err, errLate) {
				t.Fatalf("degree %d rep %d: late error leaked through", degree, rep)
			}
		}
	}
}

// TestWorkerPanicBecomesError: a panicking worker must surface as an error,
// not crash the process or deadlock the barrier.
func TestWorkerPanicBecomesError(t *testing.T) {
	c := NewCtx(nil, nil)
	c.Parallelism = 4
	defer c.Close()
	err := c.runWorkers(4, func(w int, wc *Ctx) error {
		if w == 2 {
			panic("worker exploded")
		}
		return nil
	})
	if err == nil || !containsStr(err.Error(), "panic") {
		t.Fatalf("got %v, want panic error", err)
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestInjectedScanFaultPropagatesAtAllDegrees: one injected scan-batch error
// must surface exactly once from a parallel scan, with identical behaviour at
// every degree, and the error must be the injected one.
func TestInjectedScanFaultPropagatesAtAllDegrees(t *testing.T) {
	f := newParFixture(t, 6000, 0, 3)
	boom := errors.New("disk read failed")
	for _, degree := range []int{1, 2, 4, 8} {
		c := f.ctx(t, degree)
		c.Faults = faultfs.New(faultfs.Rule{Op: "scan", After: 3, Err: boom})
		_, err := Run(f.rScan, c)
		if !errors.Is(err, boom) {
			t.Fatalf("degree %d: got %v, want injected error", degree, err)
		}
	}
}

// TestScanStepCadenceIsUniform: the fault/cancel checkpoint of a scan fires
// exactly once per non-eliminated morsel on table-absolute boundaries — the
// same count whether the table is in memory or in sealed segments (sized so
// that segment and morsel boundaries disagree), at one worker or four, with
// the filter on a kernel or on the row adapter.
func TestScanStepCadenceIsUniform(t *testing.T) {
	const rows = 6000
	stores := map[string]*storage.Store{
		"memory": storage.NewStore(),
		"disk":   storage.NewStoreWith(storage.StoreConfig{Dir: t.TempDir(), SegmentRows: 1536}),
	}
	for name, store := range stores {
		f := newParFixtureOn(t, store, rows, 0, 3)
		// k is uniform over 0..39 in every segment: nothing is eliminated.
		scan := &physical.TableScan{
			Table: f.r, Binding: "r", Cols: f.rCols, ColOrds: []int{0, 1, 2},
			Filter: []logical.Scalar{&logical.Cmp{Op: logical.CmpLt, L: &logical.Col{ID: f.rCols[0]}, R: &logical.Const{Val: datum.NewInt(30)}}},
		}
		for _, degree := range []int{1, 4} {
			for _, kernels := range []bool{true, false} {
				c := f.ctx(t, degree)
				c.Vectorize = kernels
				c.Faults = faultfs.New()
				if _, err := Run(scan, c); err != nil {
					t.Fatalf("%s degree %d kernels %v: %v", name, degree, kernels, err)
				}
				if got, want := c.Faults.Count("scan"), int64(numMorsels(rows)); got != want {
					t.Errorf("%s degree %d kernels %v: %d scan steps, want %d", name, degree, kernels, got, want)
				}
			}
		}
	}
}

// TestInjectedSpillFaultPropagates: errors injected into spill-file I/O
// surface from the degraded operators.
func TestInjectedSpillFaultPropagates(t *testing.T) {
	boom := errors.New("tempfs full")
	for _, op := range []string{"spill.create", "spill.write", "spill.read"} {
		c := spillCtx(t, 1)
		c.Faults = faultfs.New(faultfs.Rule{Op: op, After: 1, Err: boom})
		in := rowsBatch(randSpillRows(rand.New(rand.NewSource(99)), 3000), 3)
		_, err := c.externalSort(in, []datum.SortSpec{{Col: 1}})
		if !errors.Is(err, boom) {
			t.Fatalf("op %s: got %v, want injected error", op, err)
		}
	}
}

// TestCancellationStopsParallelScan: canceling mid-scan returns
// context.Canceled promptly at every degree; exceeding a deadline returns
// context.DeadlineExceeded.
func TestCancellationStopsParallelScan(t *testing.T) {
	f := newParFixture(t, 8000, 0, 5)
	for _, degree := range []int{1, 4, 8} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel() // already canceled: the first batch boundary must see it
		c := f.ctx(t, degree)
		c.Context = ctx
		_, err := Run(f.rScan, c)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("degree %d: got %v, want context.Canceled", degree, err)
		}
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	c := f.ctx(t, 4)
	c.Context = ctx
	if _, err := Run(f.rScan, c); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
}

// leakCheckedPlan builds a parallel aggregation plan over the fixture — a
// shape that fans work out to every pool worker.
func leakCheckedPlan(f *parFixture) physical.Plan {
	k, v := f.rCols[0], f.rCols[1]
	return &physical.HashGroupBy{
		Input:     f.rScan,
		GroupCols: []logical.ColumnID{k},
		Aggs:      []logical.AggItem{{ID: 100, Fn: logical.AggSum, Arg: &logical.Col{ID: v}}},
	}
}

// TestNoGoroutineLeaks: after normal completion, injected failure, and
// cancellation of an Exchange-bearing plan at degrees 1, 4 and 8 — followed
// by pool shutdown — the process goroutine count returns to its baseline.
// Pool.Close waits for worker exit, so this is deterministic up to runtime
// background goroutines (hence the settle loop).
func TestNoGoroutineLeaks(t *testing.T) {
	f := newParFixture(t, 6000, 0, 9)
	plan := leakCheckedPlan(f)
	baseline := runtime.NumGoroutine()
	for _, degree := range []int{1, 4, 8} {
		// Normal completion.
		c := NewCtx(f.store, f.md)
		c.Parallelism = degree
		if _, err := Run(plan, c); err != nil {
			t.Fatalf("degree %d: %v", degree, err)
		}
		c.Close()
		// Injected failure mid-plan.
		c = NewCtx(f.store, f.md)
		c.Parallelism = degree
		c.Faults = faultfs.New(faultfs.Rule{Op: "scan", After: 2})
		if _, err := Run(plan, c); !errors.Is(err, faultfs.ErrInjected) {
			t.Fatalf("degree %d: fault run returned %v", degree, err)
		}
		c.Close()
		// Cancellation mid-plan.
		ctx, cancel := context.WithCancel(context.Background())
		c = NewCtx(f.store, f.md)
		c.Parallelism = degree
		c.Context = ctx
		cancel()
		if _, err := Run(plan, c); !errors.Is(err, context.Canceled) {
			t.Fatalf("degree %d: cancel run returned %v", degree, err)
		}
		c.Close()
	}
	requireNoGoroutinesBeyond(t, baseline)
}

// requireNoGoroutinesBeyond fails when the goroutine count does not settle
// back to baseline (runtime background goroutines need a moment to exit).
func requireNoGoroutinesBeyond(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		buf := make([]byte, 1<<20)
		t.Fatalf("goroutines leaked: %d > baseline %d\n%s", n, baseline, buf[:runtime.Stack(buf, true)])
	}
}

// TestPoolCloseWaitsForWorkers: Close must not return while workers are
// mid-job (the property the leak test depends on).
func TestPoolCloseWaitsForWorkers(t *testing.T) {
	p := NewPool(4)
	running := make(chan struct{})
	done := make(chan struct{})
	p.submit(func() {
		close(running)
		time.Sleep(50 * time.Millisecond)
		close(done)
	})
	<-running
	p.Close()
	select {
	case <-done:
	default:
		t.Fatal("Pool.Close returned before the in-flight job finished")
	}
}
