package experiments

// e_robustness.go measures the resource governor: the same star join is run
// with shrinking memory budgets — forcing hash joins, aggregations and sorts
// to degrade to their spilling forms — and the overhead of disk-backed
// execution is compared against the in-memory run, row-for-row identical.
// The second half measures cancellation latency: how long a mid-flight query
// takes to unwind after its context fires, at increasing parallelism.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/exec"
	"repro/internal/logical"
	"repro/internal/physical"
	"repro/internal/stats"
	"repro/internal/systemr"
	"repro/internal/workload"
)

// spillPoint is one budget level of the graceful-degradation sweep.
type spillPoint struct {
	// BudgetBytes is the per-query memory cap; 0 means unlimited (the
	// baseline row).
	BudgetBytes  int64
	WallSeconds  float64
	Spills       int64
	SpillBytes   int64
	PeakMemBytes int64
	// OverheadVsInMemory is WallSeconds relative to the unlimited run.
	OverheadVsInMemory float64
	// RowsIdentical records that the budgeted run returned exactly the
	// baseline's rows in the baseline's order.
	RowsIdentical bool
}

// cancelPoint is one degree of the cancellation-latency sweep.
type cancelPoint struct {
	Degree int
	// LatencySeconds is the wall time from the context firing mid-query to
	// the executor returning context.Canceled.
	LatencySeconds float64
	// QuerySeconds is the uncanceled wall time at the same degree, for scale.
	QuerySeconds float64
}

// robustnessBench optimizes one star join over 30 000 fact rows, runs it
// unbudgeted and then under 1 MiB, 64 KiB and 4 KiB budgets (best of 3 wall
// clock), verifying the budgeted rows are identical to the baseline, and
// finally measures cancellation latency at degrees 1/4/8 by firing a context
// mid-query.
func robustnessBench() ([]spillPoint, []cancelPoint) {
	const reps = 3
	db := workload.Star(workload.StarConfig{FactRows: 30000, DimRows: []int{60, 60}, Seed: 23})
	db.Analyze(stats.AnalyzeOptions{})
	q := mustBuild(db, workload.StarQuery(2, 30)+" ORDER BY 3")
	plan, _ := optimize(db, q, systemr.DefaultOptions())

	timeRun := func(budget int64) (float64, *exec.Result, exec.Counters, int64) {
		best := -1.0
		var res *exec.Result
		var counters exec.Counters
		var peak int64
		for rep := 0; rep < reps; rep++ {
			ctx := exec.NewCtx(db.Store, q.Meta)
			ctx.Mem = exec.NewMemAccount(budget)
			start := time.Now()
			r, err := exec.RunPlanQuery(plan, q, ctx)
			sec := time.Since(start).Seconds()
			if err != nil {
				panic(fmt.Sprintf("experiments: robustness bench (budget %d): %v", budget, err))
			}
			if best < 0 || sec < best {
				best, res, counters, peak = sec, r, ctx.Counters, ctx.Mem.Peak()
			}
		}
		return best, res, counters, peak
	}

	baseSec, baseRes, _, basePeak := timeRun(0)
	spills := []spillPoint{{
		WallSeconds: baseSec, PeakMemBytes: basePeak,
		OverheadVsInMemory: 1, RowsIdentical: true,
	}}
	for _, b := range []int64{1 << 20, 64 << 10, 4 << 10} {
		sec, res, counters, peak := timeRun(b)
		spills = append(spills, spillPoint{
			BudgetBytes: b, WallSeconds: sec,
			Spills: counters.Spills, SpillBytes: counters.SpillBytes, PeakMemBytes: peak,
			OverheadVsInMemory: sec / baseSec,
			RowsIdentical:      sameRows(res.Rows, baseRes.Rows),
		})
	}

	pool := exec.NewPool(8)
	defer pool.Close()
	var cancels []cancelPoint
	for _, d := range []int{1, 4, 8} {
		cancels = append(cancels, measureCancel(db, q, plan, pool, d, reps))
	}
	return spills, cancels
}

// measureCancel times one uncanceled run for scale, then reruns the query
// firing the context roughly a quarter of the way through, reporting the wall
// time from the firing to the executor's return. Attempts where the query
// finished before the timer fired are retried with an earlier trigger.
func measureCancel(db *workload.DB, q *logical.Query, plan physical.Plan, pool *exec.Pool, degree, reps int) cancelPoint {
	newCtx := func() *exec.Ctx {
		ctx := exec.NewCtx(db.Store, q.Meta)
		if degree > 1 {
			ctx.Parallelism = degree
			ctx.Pool = pool
		}
		return ctx
	}
	start := time.Now()
	if _, err := exec.RunPlanQuery(plan, q, newCtx()); err != nil {
		panic(fmt.Sprintf("experiments: cancel bench warmup: %v", err))
	}
	querySec := time.Since(start).Seconds()

	delay := time.Duration(querySec * float64(time.Second) / 4)
	best := -1.0
	for rep := 0; rep < reps*4 && best < 0; rep++ {
		cctx, cancel := context.WithCancel(context.Background())
		var firedAt atomic.Int64
		timer := time.AfterFunc(delay, func() {
			firedAt.Store(time.Now().UnixNano())
			cancel()
		})
		ctx := newCtx()
		ctx.Context = cctx
		_, err := exec.RunPlanQuery(plan, q, ctx)
		returned := time.Now()
		timer.Stop()
		cancel()
		if err == nil {
			// The query outran the timer; fire earlier next attempt.
			delay /= 2
			continue
		}
		if !errors.Is(err, context.Canceled) {
			panic(fmt.Sprintf("experiments: cancel bench: %v", err))
		}
		if at := firedAt.Load(); at != 0 {
			best = returned.Sub(time.Unix(0, at)).Seconds()
		}
	}
	if best < 0 {
		best = 0 // query too fast to catch mid-flight at this scale
	}
	return cancelPoint{Degree: degree, LatencySeconds: best, QuerySeconds: querySec}
}

// E23Robustness runs the governor sweep on a small workload: graceful
// degradation must keep results identical while bounding memory, and
// cancellation must unwind mid-flight queries in a small fraction of their
// runtime at every degree.
func E23Robustness() Table {
	t := Table{
		ID:      "E23",
		Title:   "Resource governor: memory budgets, spilling and cancellation",
		Claim:   "budgeted queries degrade to disk with identical results; cancellation unwinds promptly at any degree",
		Headers: []string{"budget", "wall ms", "spills", "spill KB", "peak KB", "overhead", "identical"},
	}
	spills, cancels := robustnessBench()
	budgetLabel := func(b int64) string {
		if b == 0 {
			return "unlimited"
		}
		return fmt.Sprintf("%dKB", b>>10)
	}
	for _, p := range spills {
		t.Rows = append(t.Rows, []string{
			budgetLabel(p.BudgetBytes),
			f2(p.WallSeconds * 1000),
			d64(p.Spills),
			d64(p.SpillBytes >> 10),
			d64(p.PeakMemBytes >> 10),
			f2(p.OverheadVsInMemory),
			fmt.Sprintf("%v", p.RowsIdentical),
		})
	}
	var notes strings.Builder
	fmt.Fprintf(&notes, "cancellation latency:")
	for _, c := range cancels {
		fmt.Fprintf(&notes, " degree %d = %.2fms (query %.1fms);", c.Degree, c.LatencySeconds*1000, c.QuerySeconds*1000)
	}
	t.Notes = notes.String()
	return t
}
