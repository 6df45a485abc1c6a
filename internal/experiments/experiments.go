// Package experiments implements the reproduction harness: one experiment
// per figure/claim of the paper (see DESIGN.md §2 for the E1–E21 map). Every
// experiment returns a Table whose rows are recorded in EXPERIMENTS.md;
// bench_test.go wraps each in a testing.B benchmark that prints it under -v
// (`make experiments`).
package experiments

import (
	"fmt"
	"os"
	"strings"

	"repro/internal/cost"
	"repro/internal/datum"
	"repro/internal/exec"
	"repro/internal/logical"
	"repro/internal/physical"
	"repro/internal/reference"
	"repro/internal/sql"
	"repro/internal/stats"
	"repro/internal/systemr"
	"repro/internal/workload"
)

// Table is one experiment's result table.
type Table struct {
	ID      string
	Title   string
	Claim   string // the paper's claim being reproduced
	Headers []string
	Rows    [][]string
	Notes   string
}

// Format renders the table as aligned text.
func (t *Table) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s — %s\n", t.ID, t.Title)
	fmt.Fprintf(&sb, "claim: %s\n", t.Claim)
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i < len(widths) {
				fmt.Fprintf(&sb, "%-*s  ", widths[i], c)
			}
		}
		sb.WriteByte('\n')
	}
	line(t.Headers)
	var sep []string
	for _, w := range widths {
		sep = append(sep, strings.Repeat("-", w))
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	if t.Notes != "" {
		fmt.Fprintf(&sb, "note: %s\n", t.Notes)
	}
	return sb.String()
}

// All runs every experiment in order.
func All() []Table {
	return []Table{
		E1OperatorTree(),
		E2DPvsNaive(),
		E3InterestingOrders(),
		E4BushyAndStar(),
		E5OuterjoinReorder(),
		E6GroupByPushdown(),
		E7ViewMerging(),
		E8Unnesting(),
		E9MagicSets(),
		E10HistogramAccuracy(),
		E11SamplingAndDistinct(),
		E12Propagation(),
		E13BufferModel(),
		E14Architectures(),
		E15ExpensivePredicates(),
		E16MatViews(),
		E17Parallel(),
		E18QueryGraph(),
		E19Parametric(),
		E20JointDistribution(),
		E21ParallelExecution(),
		E22AnalyzeFeedback(),
		E23Robustness(),
		E24Vectorized(),
		E26AdaptivePlanning(),
		E27Storage(),
		E28Durability(),
		E29Compression(),
	}
}

// --- shared helpers ---

// mustParse parses one SELECT statement.
func mustParse(q string) *sql.SelectStmt {
	sel, err := sql.ParseSelect(q)
	if err != nil {
		panic(fmt.Sprintf("experiments: parse %q: %v", q, err))
	}
	return sel
}

func mustBuild(db *workload.DB, q string) *logical.Query { return buildStmt(db, mustParse(q)) }

// buildStmt builds a parsed statement with $n bound to binds[n-1] (a
// parameter-tagged constant, as the plan cache builds it), normalized and
// column-pruned.
func buildStmt(db *workload.DB, sel *sql.SelectStmt, binds ...datum.D) *logical.Query {
	b := logical.NewBuilder(db.Cat)
	b.BindParams(binds)
	query, err := b.Build(sel)
	if err != nil {
		panic(fmt.Sprintf("experiments: build: %v", err))
	}
	logical.NormalizeQuery(query, logical.DefaultNormalize())
	logical.PruneColumns(query)
	return query
}

// buildRaw skips normalization (for experiments that compare against it).
func buildRaw(db *workload.DB, q string) *logical.Query {
	query, err := logical.NewBuilder(db.Cat).Build(mustParse(q))
	if err != nil {
		panic(err)
	}
	return query
}

func optimize(db *workload.DB, q *logical.Query, opts systemr.Options) (physical.Plan, *systemr.Optimizer) {
	opt := systemr.New(stats.NewEstimator(q.Meta), cost.DefaultModel(), opts)
	plan, err := opt.Optimize(q)
	if err != nil {
		panic(fmt.Sprintf("experiments: optimize: %v", err))
	}
	return plan, opt
}

func runPlan(db *workload.DB, q *logical.Query, plan physical.Plan) (*exec.Result, exec.Counters) {
	ctx := exec.NewCtx(db.Store, q.Meta)
	res, err := exec.RunPlanQuery(plan, q, ctx)
	if err != nil {
		panic(fmt.Sprintf("experiments: execute: %v\n%s", err, physical.Format(plan, q.Meta)))
	}
	return res, ctx.Counters
}

// saveTemp writes db into a new temporary directory (see workload.SaveTo)
// and returns it; the caller removes it.
func saveTemp(db *workload.DB) string {
	dir, err := os.MkdirTemp("", "qopt-experiment-*")
	if err != nil {
		panic(err)
	}
	if err := db.SaveTo(dir); err != nil {
		os.RemoveAll(dir)
		panic(fmt.Sprintf("experiments: save: %v", err))
	}
	return dir
}

// openCold opens db's copy in dir over an empty block cache of cacheBytes.
func openCold(db *workload.DB, dir string, cacheBytes int64) *workload.DB {
	cold, err := db.Open(dir, cacheBytes)
	if err != nil {
		panic(fmt.Sprintf("experiments: open: %v", err))
	}
	return cold
}

// runNaive executes q with the reference evaluator: no optimization, nested
// loops, and every subquery by tuple iteration over its logical tree.
func runNaive(db *workload.DB, q *logical.Query) (*reference.Result, reference.Counters) {
	ev := reference.New(db.Store, q.Meta)
	res, err := ev.RunQuery(q)
	if err != nil {
		panic(fmt.Sprintf("experiments: naive execute: %v", err))
	}
	return res, ev.Counters
}

// sameRows reports whether two results hold the same rows in the same order,
// floats compared by shortest round-trip representation (bit-exact up to NaN
// payloads).
func sameRows(a, b []datum.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].String() != b[i].String() {
			return false
		}
	}
	return true
}

func f0(v float64) string  { return fmt.Sprintf("%.0f", v) }
func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string  { return fmt.Sprintf("%.3f", v) }
func d(v int) string       { return fmt.Sprintf("%d", v) }
func d64(v int64) string   { return fmt.Sprintf("%d", v) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }
