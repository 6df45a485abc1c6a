package experiments

// e_parallel.go measures the morsel-driven parallel executor: the same
// optimized plan is run serially and at increasing degrees through
// parallel.Parallelize, and wall-clock throughput is compared against the
// cost model's predicted ResponseTime (§7.1).

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/parallel"
	"repro/internal/physical"
	"repro/internal/stats"
	"repro/internal/systemr"
	"repro/internal/workload"
)

// parallelPoint is one measured degree of the serial-vs-parallel sweep.
type parallelPoint struct {
	Degree              int
	WallSeconds         float64
	RowsPerSec          float64
	Speedup             float64
	ModeledResponseTime float64
	ExchangedRows       int64
}

// parallelResult is the full sweep, with enough host information to
// interpret the speedups (degree > GOMAXPROCS cannot show real scaling).
type parallelResult struct {
	GOMAXPROCS               int
	CPUs                     int
	DefaultCommCostPerRow    float64
	CalibratedCommCostPerRow float64
	Points                   []parallelPoint
}

// parallelBench optimizes one star join over 30 000 fact rows serially, then
// executes it at degrees 1/2/4/8 on the morsel engine, best-of-3 wall clock.
// It also calibrates the cost model's CommCostPerRow from the measured
// exchange overhead.
func parallelBench() *parallelResult {
	const factRows, reps = 30000, 3
	db := workload.Star(workload.StarConfig{FactRows: factRows, DimRows: []int{60, 60}, Seed: 21})
	db.Analyze(stats.AnalyzeOptions{})
	q := mustBuild(db, workload.StarQuery(2, 30))
	plan, _ := optimize(db, q, systemr.DefaultOptions())
	model := cost.DefaultModel()

	pool := exec.NewPool(8)
	defer pool.Close()

	out := &parallelResult{
		GOMAXPROCS:            runtime.GOMAXPROCS(0),
		CPUs:                  runtime.NumCPU(),
		DefaultCommCostPerRow: model.CommCostPerRow,
	}

	timeRun := func(p physical.Plan, degree int) (float64, exec.Counters) {
		best := -1.0
		var counters exec.Counters
		for rep := 0; rep < reps; rep++ {
			ctx := exec.NewCtx(db.Store, q.Meta)
			if degree > 1 {
				ctx.Parallelism = degree
				ctx.Pool = pool
			}
			start := time.Now()
			_, err := exec.RunPlanQuery(p, q, ctx)
			sec := time.Since(start).Seconds()
			if err != nil {
				panic(fmt.Sprintf("experiments: parallel bench: %v", err))
			}
			if best < 0 || sec < best {
				best, counters = sec, ctx.Counters
			}
		}
		return best, counters
	}

	var serialSec float64
	for _, d := range []int{1, 2, 4, 8} {
		runPlan := plan
		modeled, _ := plan.Estimate()
		if d > 1 {
			par := parallel.Parallelize(plan, parallel.Config{Degree: d, CommCostPerRow: model.CommCostPerRow}, model)
			runPlan = par.Plan
			modeled = par.ResponseTime
		}
		sec, counters := timeRun(runPlan, d)
		if d == 1 {
			serialSec = sec
		}
		out.Points = append(out.Points, parallelPoint{
			Degree:              d,
			WallSeconds:         sec,
			RowsPerSec:          float64(factRows) / sec,
			Speedup:             serialSec / sec,
			ModeledResponseTime: modeled,
			ExchangedRows:       counters.ExchangedRows,
		})
	}

	out.CalibratedCommCostPerRow = calibrateComm(db, pool, reps)
	return out
}

// calibrateComm measures the exchange overhead per row against the sequential
// scan cost per page — the executor's realization of the model's cost unit —
// and converts it into a CommCostPerRow for the §7.1 model. The executor's
// exchanges forward their input without moving a row, so the measured
// marginal cost is zero up to timing noise and CalibrateCommPerRow then keeps
// the model default.
func calibrateComm(db *workload.DB, pool *exec.Pool, reps int) float64 {
	q := mustBuild(db, "SELECT sales.k1, sales.qty FROM sales")
	scanPlan, _ := optimize(db, q, systemr.DefaultOptions())
	const degree = 4

	timed := func(p physical.Plan, parallelism int) (float64, int) {
		best := -1.0
		rows := 0
		for rep := 0; rep < reps; rep++ {
			ctx := exec.NewCtx(db.Store, q.Meta)
			if parallelism > 1 {
				ctx.Parallelism = parallelism
				ctx.Pool = pool
			}
			start := time.Now()
			res, err := exec.Run(p, ctx)
			sec := time.Since(start).Seconds()
			if err != nil {
				panic(fmt.Sprintf("experiments: calibrate: %v", err))
			}
			if best < 0 || sec < best {
				best, rows = sec, len(res.Rows)
			}
		}
		return best, rows
	}

	scanSec, rows := timed(scanPlan, 1)
	sales, _ := db.Store.Table("sales")
	if sales.PageCount() == 0 || rows == 0 {
		return cost.DefaultModel().CommCostPerRow
	}
	scanSecPerPage := scanSec / float64(sales.PageCount())

	// The exchange's marginal cost = (scan+exchange) - scan, both parallel.
	scan4Sec, _ := timed(scanPlan, degree)
	ex := &physical.Exchange{Input: scanPlan, Degree: degree, PartitionCols: scanPlan.Columns()[:1]}
	exSec, _ := timed(ex, degree)
	perRow := (exSec - scan4Sec) / float64(rows)
	return cost.CalibrateCommPerRow(perRow, scanSecPerPage)
}

// E21ParallelExecution runs the measured serial-vs-parallel sweep on a small
// workload: §7.1's claim — response time shrinks with degree while total work
// does not — checked against the real executor rather than the cost model
// alone. On hosts where GOMAXPROCS=1 the measured speedup stays ~1 (there is
// no second core to run on); the modeled response time column still shows the
// intended scaling.
func E21ParallelExecution() Table {
	t := Table{
		ID:      "E21",
		Title:   "Morsel-driven parallel execution, measured (§7.1)",
		Claim:   "morsel-parallel operators deliver wall-clock speedup bounded by cores; modeled response time tracks 1/degree",
		Headers: []string{"degree", "wall ms", "rows/sec", "speedup", "modeled response", "exchanged rows"},
	}
	res := parallelBench()
	for _, p := range res.Points {
		t.Rows = append(t.Rows, []string{
			d(p.Degree),
			f2(p.WallSeconds * 1000),
			f0(p.RowsPerSec),
			f2(p.Speedup),
			f1(p.ModeledResponseTime),
			d64(p.ExchangedRows),
		})
	}
	t.Notes = fmt.Sprintf(
		"gomaxprocs=%d cpus=%d; calibrated CommCostPerRow=%.4f (default %.4f)",
		res.GOMAXPROCS, res.CPUs, res.CalibratedCommCostPerRow, res.DefaultCommCostPerRow)
	return t
}
