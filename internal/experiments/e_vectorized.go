package experiments

// e_vectorized.go measures kernels on against kernels off on the *same
// physical plans* — scan+filter and hash aggregation microworkloads over the
// star schema, single-threaded, best-of-reps wall clock. Both settings run
// the same operators: off, no predicate compiles to a typed kernel and every
// aggregate accumulates through the row accumulators, so the comparison
// isolates row-at-a-time interpretation, not plan choice or operator
// choice. (A hash join runs identically either way and is not measured.)

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/datum"
	"repro/internal/exec"
	"repro/internal/logical"
	"repro/internal/physical"
	"repro/internal/workload"
)

// vectorizedRow is one microworkload's kernels-off-vs-on measurement.
type vectorizedRow struct {
	Workload      string
	InputRows     int
	OutputRows    int
	RowWallSec    float64
	VecWallSec    float64
	RowRowsPerSec float64
	VecRowsPerSec float64
	Speedup       float64
	// Identical is the exactness guarantee: the vectorized run emitted the
	// same rows in the same order (sameRows).
	Identical bool
}

// vectorizedBench executes the microworkloads with kernels off ("row") and
// on ("vec") over 30 000 fact rows — same plans, same serial context
// otherwise — best of 3.
func vectorizedBench() []vectorizedRow {
	const factRows, reps = 30000, 3
	db := workload.Star(workload.StarConfig{FactRows: factRows, DimRows: []int{1000}, Seed: 24})
	sales, _ := db.Cat.Table("sales")

	md := logical.NewMetadata()
	salesCols := md.AddTable(sales, "sales") // k1, qty, amount
	k1, qty, amount := salesCols[0], salesCols[1], salesCols[2]
	newCol := func(name string, k datum.Kind) logical.ColumnID {
		return md.AddColumn(logical.ColumnMeta{Name: name, Kind: k})
	}

	salesScan := func(filter []logical.Scalar) *physical.TableScan {
		return &physical.TableScan{
			Table: sales, Binding: "sales", Cols: salesCols, ColOrds: []int{0, 1, 2},
			Filter: filter,
		}
	}
	// qty is uniform on [1, 20], so qty < 5 keeps ~20% of the fact rows.
	scanFilter := salesScan([]logical.Scalar{
		&logical.Cmp{Op: logical.CmpLt, L: &logical.Col{ID: qty}, R: &logical.Const{Val: datum.NewInt(5)}},
	})
	hashAgg := &physical.HashGroupBy{
		Props:     physical.Props{Rows: 1000},
		Input:     salesScan(nil),
		GroupCols: []logical.ColumnID{k1},
		Aggs: []logical.AggItem{
			{ID: newCol("cnt", datum.KindInt), Fn: logical.AggCount},
			{ID: newCol("sum_qty", datum.KindInt), Fn: logical.AggSum, Arg: &logical.Col{ID: qty}},
			{ID: newCol("min_qty", datum.KindInt), Fn: logical.AggMin, Arg: &logical.Col{ID: qty}},
			{ID: newCol("max_amt", datum.KindFloat), Fn: logical.AggMax, Arg: &logical.Col{ID: amount}},
			{ID: newCol("avg_amt", datum.KindFloat), Fn: logical.AggAvg, Arg: &logical.Col{ID: amount}},
		},
	}

	timed := func(p physical.Plan, vectorize bool) (float64, []datum.Row) {
		best := -1.0
		var rows []datum.Row
		for rep := 0; rep < reps; rep++ {
			ctx := exec.NewCtx(db.Store, md)
			ctx.Vectorize = vectorize
			start := time.Now()
			res, err := exec.Run(p, ctx)
			sec := time.Since(start).Seconds()
			if err != nil {
				panic(fmt.Sprintf("experiments: vectorized bench: %v", err))
			}
			if best < 0 || sec < best {
				best, rows = sec, res.Rows
			}
		}
		return best, rows
	}

	var out []vectorizedRow
	for _, w := range []struct {
		name string
		plan physical.Plan
	}{
		{"scan+filter", scanFilter},
		{"hash-agg", hashAgg},
	} {
		rowSec, rowRows := timed(w.plan, false)
		vecSec, vecRows := timed(w.plan, true)
		out = append(out, vectorizedRow{
			Workload:      w.name,
			InputRows:     factRows,
			OutputRows:    len(vecRows),
			RowWallSec:    rowSec,
			VecWallSec:    vecSec,
			RowRowsPerSec: float64(factRows) / rowSec,
			VecRowsPerSec: float64(factRows) / vecSec,
			Speedup:       rowSec / vecSec,
			Identical:     sameRows(rowRows, vecRows),
		})
	}
	return out
}

// E24Vectorized compares kernels off and on over identical plans (§5.2's CPU
// cost term attacked at the execution layer): the per-row interpretation
// overhead — datum boxing, per-row predicate and accumulator dispatch — is
// what typed kernels over columnar batches eliminate, so the speedup column
// is a direct measurement of that overhead. Single-threaded by construction;
// the `identical` column certifies both settings emitted the same rows
// (floats bit-exact).
func E24Vectorized() Table {
	t := Table{
		ID:      "E24",
		Title:   "Vectorized batch execution vs row-at-a-time (§5.2)",
		Claim:   "typed kernels over columnar batches beat per-row interpretation at equal results",
		Headers: []string{"workload", "rows", "out rows", "row ms", "vec ms", "row rows/s", "vec rows/s", "speedup", "identical"},
	}
	for _, w := range vectorizedBench() {
		t.Rows = append(t.Rows, []string{
			w.Workload,
			d(w.InputRows),
			d(w.OutputRows),
			f2(w.RowWallSec * 1000),
			f2(w.VecWallSec * 1000),
			f0(w.RowRowsPerSec),
			f0(w.VecRowsPerSec),
			f2(w.Speedup),
			fmt.Sprintf("%v", w.Identical),
		})
	}
	t.Notes = fmt.Sprintf("gomaxprocs=%d cpus=%d; single-threaded comparison (speedup is per-core CPU efficiency, not parallelism)",
		runtime.GOMAXPROCS(0), runtime.NumCPU())
	return t
}
