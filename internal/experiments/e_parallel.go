package experiments

// e_parallel.go measures the morsel-driven parallel executor: the same
// optimized plan is run serially and at increasing degrees, and wall-clock
// throughput is compared against the ResponseTime that parallel.Parallelize's
// §7.1 model predicts for that plan.

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/parallel"
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
	// ModeledExchangedRows is what the model ships between processors; the
	// executor's workers share memory and ship none.
	ModeledExchangedRows float64
}

// parallelResult is the full sweep, with enough host information to
// interpret the speedups (degree > GOMAXPROCS cannot show real scaling).
type parallelResult struct {
	GOMAXPROCS     int
	CPUs           int
	CommCostPerRow float64
	Points         []parallelPoint
}

// parallelBench optimizes one star join over 30 000 fact rows serially, then
// executes that plan at degrees 1/2/4/8 on the morsel engine, best-of-3 wall
// clock.
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
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		CPUs:           runtime.NumCPU(),
		CommCostPerRow: model.CommCostPerRow,
	}

	timeRun := func(degree int) float64 {
		best := -1.0
		for rep := 0; rep < reps; rep++ {
			ctx := exec.NewCtx(db.Store, q.Meta)
			if degree > 1 {
				ctx.Parallelism = degree
				ctx.Pool = pool
			}
			start := time.Now()
			_, err := exec.RunPlanQuery(plan, q, ctx)
			sec := time.Since(start).Seconds()
			if err != nil {
				panic(fmt.Sprintf("experiments: parallel bench: %v", err))
			}
			if best < 0 || sec < best {
				best = sec
			}
		}
		return best
	}

	var serialSec float64
	for _, d := range []int{1, 2, 4, 8} {
		modeled, _ := plan.Estimate()
		var exchanged float64
		if d > 1 {
			par := parallel.Parallelize(plan, parallel.Config{Degree: d, CommCostPerRow: model.CommCostPerRow}, model)
			modeled, exchanged = par.ResponseTime, par.ExchangedRows
		}
		sec := timeRun(d)
		if d == 1 {
			serialSec = sec
		}
		out.Points = append(out.Points, parallelPoint{
			Degree:               d,
			WallSeconds:          sec,
			RowsPerSec:           float64(factRows) / sec,
			Speedup:              serialSec / sec,
			ModeledResponseTime:  modeled,
			ModeledExchangedRows: exchanged,
		})
	}
	return out
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
		Headers: []string{"degree", "wall ms", "rows/sec", "speedup", "modeled response", "modeled exchanged rows"},
	}
	res := parallelBench()
	for _, p := range res.Points {
		t.Rows = append(t.Rows, []string{
			d(p.Degree),
			f2(p.WallSeconds * 1000),
			f0(p.RowsPerSec),
			f2(p.Speedup),
			f1(p.ModeledResponseTime),
			f0(p.ModeledExchangedRows),
		})
	}
	t.Notes = fmt.Sprintf(
		"gomaxprocs=%d cpus=%d; every degree runs the serial plan; the modeled columns are parallel.Parallelize at CommCostPerRow=%.4f",
		res.GOMAXPROCS, res.CPUs, res.CommCostPerRow)
	return t
}
