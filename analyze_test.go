package queryopt

// analyze_test.go verifies the EXPLAIN ANALYZE subsystem end to end: the
// actual_rows reported on every plan node must equal independently computed
// ground truth (plain Go loops over the generated data) at parallelism 1 and
// 4; freshly ANALYZEd uniform data must yield q-error 1.0 on every node of
// stats-friendly plans; the EXPLAIN ANALYZE statement must coexist with the
// ANALYZE statistics statement; and analyzed executions must feed the
// engine's worst-offenders feedback report.

import (
	"strings"
	"testing"
)

// analyzeFixture is deterministic data big enough (3000 rows) for the morsel
// path: x(pk, g, b, v) with g uniform over 10 values and b uniform over 100,
// and y(pk, w) keyed 0..99.
type analyzeFixture struct {
	eng  *Engine
	xG   []int64
	xB   []int64
	xV   []float64
	yPK  []int64
	rows int
}

func newAnalyzeFixture(t *testing.T, par int) *analyzeFixture {
	t.Helper()
	f := &analyzeFixture{rows: 3000}
	f.eng = New(Options{Parallelism: par})
	t.Cleanup(f.eng.Close)
	f.eng.MustExec(`CREATE TABLE x (pk INT NOT NULL, g INT, b INT, v FLOAT, PRIMARY KEY (pk))`)
	f.eng.MustExec(`CREATE TABLE y (pk INT NOT NULL, w VARCHAR, PRIMARY KEY (pk))`)
	var xs [][]any
	for i := 0; i < f.rows; i++ {
		g, b := int64(i%10), int64((i*7)%100)
		v := float64(i%997) / 4
		f.xG = append(f.xG, g)
		f.xB = append(f.xB, b)
		f.xV = append(f.xV, v)
		xs = append(xs, []any{i, g, b, v})
	}
	if err := f.eng.LoadRows("x", xs); err != nil {
		t.Fatal(err)
	}
	var ys [][]any
	for i := 0; i < 100; i++ {
		f.yPK = append(f.yPK, int64(i))
		ys = append(ys, []any{i, "w"})
	}
	if err := f.eng.LoadRows("y", ys); err != nil {
		t.Fatal(err)
	}
	f.eng.MustExec("ANALYZE")
	return f
}

// sumActual adds up ActualRows over all executed nodes whose description
// contains the given substring.
func sumActual(root *NodeAnalysis, opSubstr string) (total int64, found int) {
	root.Walk(func(n *NodeAnalysis) {
		if n.Executed && strings.Contains(n.Op, opSubstr) {
			total += n.ActualRows
			found++
		}
	})
	return total, found
}

func TestAnalyzeActualRowsMatchTruth(t *testing.T) {
	for _, par := range []int{1, 4} {
		f := newAnalyzeFixture(t, par)

		// Q1: filtered scan. Truth from a plain loop.
		var q1 int64
		for i := range f.xB {
			if f.xB[i] < 50 {
				q1++
			}
		}
		_, pa, err := f.eng.QueryAnalyze(`SELECT pk FROM x WHERE b < 50`)
		if err != nil {
			t.Fatal(err)
		}
		if pa.Root.ActualRows != q1 {
			t.Errorf("par %d Q1: root actual_rows=%d truth=%d", par, pa.Root.ActualRows, q1)
		}
		if got, n := sumActual(pa.Root, "table-scan x"); n != 1 || got != q1 {
			t.Errorf("par %d Q1: scan actual_rows=%d (nodes=%d) truth=%d", par, got, n, q1)
		}

		// Q2: equijoin with a filtered build side. Truth: matches of
		// x.b = y.pk with y.pk < 30.
		var q2 int64
		for i := range f.xB {
			if f.xB[i] < 30 {
				q2++ // y.pk values are exactly 0..99, each once
			}
		}
		_, pa, err = f.eng.QueryAnalyze(`SELECT x.pk, y.w FROM x, y WHERE x.b = y.pk AND y.pk < 30`)
		if err != nil {
			t.Fatal(err)
		}
		if pa.Root.ActualRows != q2 {
			t.Errorf("par %d Q2: root actual_rows=%d truth=%d", par, pa.Root.ActualRows, q2)
		}
		if got, n := sumActual(pa.Root, "join"); n < 1 || got != q2 {
			t.Errorf("par %d Q2: join actual_rows=%d (nodes=%d) truth=%d", par, got, n, q2)
		}

		// Q3: grouped aggregate. Truth: 10 groups from 3000 scanned rows.
		_, pa, err = f.eng.QueryAnalyze(`SELECT g, COUNT(*), SUM(v) FROM x GROUP BY g`)
		if err != nil {
			t.Fatal(err)
		}
		if pa.Root.ActualRows != 10 {
			t.Errorf("par %d Q3: root actual_rows=%d truth=10", par, pa.Root.ActualRows)
		}
		if got, n := sumActual(pa.Root, "group-by"); n != 1 || got != 10 {
			t.Errorf("par %d Q3: group-by actual_rows=%d (nodes=%d) truth=10", par, got, n)
		}
		if got, n := sumActual(pa.Root, "table-scan x"); n != 1 || got != int64(f.rows) {
			t.Errorf("par %d Q3: scan actual_rows=%d (nodes=%d) truth=%d", par, got, n, f.rows)
		}

		// Q4: ORDER BY + LIMIT. The root emits exactly 7 rows.
		res, pa, err := f.eng.QueryAnalyze(`SELECT pk FROM x ORDER BY v LIMIT 7`)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 7 || pa.Root.ActualRows != 7 {
			t.Errorf("par %d Q4: rows=%d root actual_rows=%d, want 7", par, len(res.Rows), pa.Root.ActualRows)
		}
	}
}

// TestAnalyzeQErrorOneOnFreshStats: with freshly ANALYZEd uniform data and
// stats-friendly plan shapes (full scans, GROUP BY over an exactly counted
// column, scalar aggregates), every node's estimate matches truth: q-error
// 1.0 throughout the tree.
func TestAnalyzeQErrorOneOnFreshStats(t *testing.T) {
	for _, par := range []int{1, 4} {
		f := newAnalyzeFixture(t, par)
		// Full scans, GROUP BY on an exactly counted column and scalar
		// aggregates are exactly estimable from fresh stats. (Equijoins are
		// not: histogram-join cardinality is bucket-approximate even on
		// uniform data.)
		for _, q := range []string{
			`SELECT pk FROM x`,
			`SELECT g FROM x GROUP BY g`,
			`SELECT COUNT(*) FROM x`,
		} {
			_, pa, err := f.eng.QueryAnalyze(q)
			if err != nil {
				t.Fatalf("par %d %q: %v", par, q, err)
			}
			pa.Root.Walk(func(n *NodeAnalysis) {
				if n.Executed && n.QError != 1.0 {
					t.Errorf("par %d %q: node %q q_err=%.3f (est=%.0f actual=%d), want 1.0",
						par, q, n.Op, n.QError, n.EstRows, n.ActualRows)
				}
			})
		}
	}
}

// TestExplainAnalyzeStatement: the SQL surface. EXPLAIN ANALYZE SELECT
// executes and annotates; plain EXPLAIN does not execute; the ANALYZE
// statistics statement (bare, and under EXPLAIN) still works.
func TestExplainAnalyzeStatement(t *testing.T) {
	f := newAnalyzeFixture(t, 1)

	res, err := f.eng.Exec(`EXPLAIN ANALYZE SELECT g, COUNT(*) FROM x GROUP BY g`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Plan, "actual_rows=") || !strings.Contains(res.Plan, "q_err=") {
		t.Errorf("EXPLAIN ANALYZE output lacks runtime metrics:\n%s", res.Plan)
	}
	if len(res.Rows) == 0 || res.Columns[0] != "plan" {
		t.Errorf("EXPLAIN ANALYZE result shape wrong: cols=%v rows=%d", res.Columns, len(res.Rows))
	}

	plain, err := f.eng.Exec(`EXPLAIN SELECT g, COUNT(*) FROM x GROUP BY g`)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range plain.Rows {
		if strings.Contains(r[0].(string), "actual_rows=") {
			t.Errorf("plain EXPLAIN must not carry runtime metrics: %v", r[0])
		}
	}

	// The statistics statement still parses and runs, alone and under EXPLAIN.
	if _, err := f.eng.Exec(`ANALYZE x`); err != nil {
		t.Fatalf("ANALYZE statement broken: %v", err)
	}
	if _, err := f.eng.Exec(`ANALYZE`); err != nil {
		t.Fatalf("bare ANALYZE broken: %v", err)
	}
	if _, err := f.eng.Exec(`EXPLAIN ANALYZE x`); err != nil {
		t.Fatalf("EXPLAIN of the ANALYZE statement broken: %v", err)
	}

	// Reference mode cannot produce an analyzed physical plan.
	ref := New(Options{Optimizer: Reference})
	ref.MustExec(`CREATE TABLE z (a INT)`)
	if _, err := ref.Exec(`EXPLAIN ANALYZE SELECT a FROM z`); err == nil {
		t.Error("EXPLAIN ANALYZE in reference mode should error")
	}
}

// TestAnalyzeFeedbackReport: analyzed executions populate the ring; the
// report is sorted by descending q-error and bounded by k.
func TestAnalyzeFeedbackReport(t *testing.T) {
	f := newAnalyzeFixture(t, 1)
	if f.eng.FeedbackLen() != 0 {
		t.Fatalf("fresh engine has %d feedback entries", f.eng.FeedbackLen())
	}
	for _, q := range []string{
		`SELECT pk FROM x WHERE b < 13`,
		`SELECT g, COUNT(*) FROM x WHERE b < 77 GROUP BY g`,
	} {
		if _, _, err := f.eng.QueryAnalyze(q); err != nil {
			t.Fatal(err)
		}
	}
	if f.eng.FeedbackLen() == 0 {
		t.Fatal("analyzed executions recorded no feedback")
	}
	report := f.eng.FeedbackReport(3)
	if len(report) == 0 || len(report) > 3 {
		t.Fatalf("report size %d, want 1..3", len(report))
	}
	for i, e := range report {
		if e.QError < 1 {
			t.Errorf("entry %d: q-error %v < 1", i, e.QError)
		}
		if i > 0 && report[i-1].QError < e.QError {
			t.Errorf("report not sorted: %v before %v", report[i-1].QError, e.QError)
		}
		if e.Node == "" {
			t.Errorf("entry %d lacks a node description", i)
		}
	}
	// Unanalyzed executions must NOT feed the ring.
	n := f.eng.FeedbackLen()
	if _, err := f.eng.Exec(`SELECT pk FROM x WHERE b < 5`); err != nil {
		t.Fatal(err)
	}
	if f.eng.FeedbackLen() != n {
		t.Error("plain Exec leaked observations into the feedback ring")
	}
}

// TestAnalyzeOffNoMetrics: without analyze, execution carries no metrics
// state (the overhead guard is a nil check; see BenchmarkExecAnalyzeOff/On).
func TestAnalyzeOffNoMetrics(t *testing.T) {
	f := newAnalyzeFixture(t, 1)
	res, err := f.eng.Exec(`SELECT COUNT(*) FROM x`)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(res.Plan, "actual_rows=") {
		t.Errorf("unanalyzed plan text carries metrics:\n%s", res.Plan)
	}
}

// TestExplainAnalyzePipelineTags: every executed node carries a pipeline tag;
// a stage shares the tag of the input it streams from — a hash join its
// probe side, an aggregation, exchange or scan-fed stage its input — and a
// breaker starts another: the join's build side, the input of a sort.
func TestExplainAnalyzePipelineTags(t *testing.T) {
	f := newAnalyzeFixture(t, 4)
	res, pa, err := f.eng.QueryAnalyze(`SELECT x.g, COUNT(*) FROM x, y WHERE x.b = y.pk AND x.v >= 0 GROUP BY x.g ORDER BY x.g`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 || !strings.Contains(pa.Text, "pipeline=") {
		t.Fatalf("%d rows, want 10 and pipeline tags:\n%s", len(res.Rows), pa.Text)
	}
	var joins, sorts, fused int
	pa.Root.Walk(func(n *NodeAnalysis) {
		if !n.Executed || n.Pipeline == 0 {
			t.Errorf("node %q has no pipeline tag:\n%s", n.Op, pa.Text)
			return
		}
		switch {
		case strings.Contains(n.Op, "hash-inner-join"):
			joins++
			if n.Children[0].Pipeline != n.Pipeline || n.Children[1].Pipeline == n.Pipeline {
				t.Errorf("join %d: probe side %d should share its tag, build side %d should not", n.Pipeline, n.Children[0].Pipeline, n.Children[1].Pipeline)
			}
		case strings.Contains(n.Op, "sort"):
			sorts++
			if n.Children[0].Pipeline == n.Pipeline {
				t.Errorf("sort shares pipeline %d with its input", n.Pipeline)
			}
		case strings.Contains(n.Op, "hash-group-by"), strings.Contains(n.Op, "exchange degree=4 hash"):
			if n.Children[0].Pipeline == n.Pipeline {
				fused++
			}
		}
	})
	if joins == 0 || sorts == 0 || fused < 3 {
		t.Errorf("%d joins, %d sorts, %d stages fused with their input; want a join, a sort and fused stages:\n%s", joins, sorts, fused, pa.Text)
	}
}
