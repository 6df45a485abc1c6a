package queryopt

// vectorized_equivalence_test.go extends the equivalence net to the kernel
// settings: for the same random query corpus, engines running with kernels on
// (the default) and off must return exactly what the reference evaluator
// (EvalLogical) returns — bit-identical floats, compared in exact hexadecimal
// form — at parallelism 1, 4 and 8. Both settings run the same operators,
// so the baseline is the one executor that shares none of them.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// The corpus runs on r, t and u of these sizes: r spans three morsels, so
// at degrees 4 and 8 the statements run on several workers, and the
// reference evaluator's nested-loop joins stay affordable.
const equivRRows, equivTRows, equivURows = 3000, 800, 200

// kernelQueries are the fixed head of the corpus: shapes the hash join and
// the hash aggregation kernels cover, over r's three morsels — every
// outer/semi/anti join kind with NULL and unmatched keys, groups first seen
// by a later worker (the 800 fk values over three morsels), a NULL group,
// SUM/AVG over floats, MIN/MAX over strings, and a scalar aggregate over no
// rows.
var kernelQueries = []string{
	"SELECT x.pk, x.f, y.pk, y.s FROM r x JOIN t y ON x.a = y.fk",
	"SELECT x.pk, x.f, y.pk, y.s FROM r x LEFT OUTER JOIN t y ON x.a = y.fk",
	"SELECT x.pk, y.pk, y.f FROM r x FULL OUTER JOIN t y ON x.fk = y.pk",
	"SELECT x.pk, x.s FROM r x WHERE x.a IN (SELECT y.fk FROM t y WHERE y.a < 10)",
	"SELECT x.pk, x.s FROM r x WHERE NOT EXISTS (SELECT 1 FROM t y WHERE y.pk = x.fk)",
	"SELECT x.fk, COUNT(*), SUM(x.f), AVG(x.f), MIN(x.s), MAX(x.s), COUNT(x.a) FROM r x WHERE x.fk < 1000 OR x.fk IS NULL GROUP BY x.fk",
	"SELECT x.s, x.a, SUM(x.f), AVG(x.a), MIN(x.f), MAX(x.pk) FROM r x GROUP BY x.s, x.a",
	"SELECT y.s, SUM(x.f), AVG(y.f), MAX(x.s) FROM r x, t y WHERE x.fk = y.pk GROUP BY y.s",
	"SELECT COUNT(*), SUM(x.f), AVG(x.f), MIN(x.s), MAX(x.f) FROM r x",
	"SELECT COUNT(*), SUM(x.f), AVG(x.f), MIN(x.s), MAX(x.f) FROM r x WHERE x.a > 100",
}

// TestVectorizedQueryEquivalence: the reference evaluator is the baseline;
// the engines with kernels on — at each degree, and once more at degree 4
// under a 4 KiB memory budget, where the hash join and aggregation trip
// inside a worker and spill — and with kernels off must agree on the
// multiset of rows (and on row order whenever the query has an ORDER BY).
func TestVectorizedQueryEquivalence(t *testing.T) {
	const trials = 25
	arms := []Options{
		{Optimizer: SystemR, Parallelism: 1},
		{Optimizer: SystemR, Parallelism: 4},
		{Optimizer: SystemR, Parallelism: 8},
		{Optimizer: SystemR, Parallelism: 4, MemBudget: spillBudget},
		{Optimizer: SystemR, Parallelism: 4, Vectorize: VectorizeOff},
	}
	for seed := int64(1); seed <= 2; seed++ {
		ref := sizedRandSchema(t, Options{Optimizer: Reference}, seed, equivRRows, equivTRows, equivURows)
		engines := make([]*Engine, len(arms))
		for i, opts := range arms {
			engines[i] = sizedRandSchema(t, opts, seed, equivRRows, equivTRows, equivURows)
		}
		rng := rand.New(rand.NewSource(seed * 77))
		for trial := 0; trial < len(kernelQueries)+trials; trial++ {
			var q string
			if trial < len(kernelQueries) {
				q = kernelQueries[trial]
			} else {
				q = randQuery(rng)
			}
			res, err := ref.Exec(q)
			if err != nil {
				t.Fatalf("seed %d trial %d reference: %v\nquery: %s", seed, trial, err, q)
			}
			baseline := canonRows(res)
			ordered := strings.Contains(q, "ORDER BY")
			var orderedBaseline []string
			if ordered {
				for _, r := range res.Rows {
					orderedBaseline = append(orderedBaseline, canonRow(r))
				}
			}
			for i, opts := range arms {
				arm := fmt.Sprintf("degree %d budget %d kernels %v", opts.Parallelism, opts.MemBudget, opts.Vectorize == VectorizeAuto)
				vres, err := engines[i].Exec(q)
				if err != nil {
					t.Fatalf("seed %d trial %d %s: %v\nquery: %s", seed, trial, arm, err, q)
				}
				got := canonRows(vres)
				if strings.Join(got, ";") != strings.Join(baseline, ";") {
					t.Fatalf("seed %d trial %d: %s disagrees with EvalLogical\nquery: %s\nreference (%d rows): %.500v\ngot       (%d rows): %.500v\nplan:\n%s",
						seed, trial, arm, q, len(baseline), baseline, len(got), got, vres.Plan)
				}
				if ordered {
					var rows []string
					for _, r := range vres.Rows {
						rows = append(rows, canonRow(r))
					}
					if strings.Join(rows, ";") != strings.Join(orderedBaseline, ";") {
						t.Fatalf("seed %d trial %d: %s row order differs under ORDER BY\nquery: %s\nplan:\n%s",
							seed, trial, arm, q, vres.Plan)
					}
				}
			}
		}
	}
}

// TestVectorizedAnalyzeMarksNodes: EXPLAIN ANALYZE reports vectorized=true on
// operators that ran a kernel, and never reports it when kernels are off —
// on a scan+filter and on a hash join under a hash aggregation — while both
// settings return the reference evaluator's rows and the same batches.
func TestVectorizedAnalyzeMarksNodes(t *testing.T) {
	ref := bigRandSchema(t, Options{Optimizer: Reference}, 3)
	on := bigRandSchema(t, Options{Optimizer: SystemR}, 3)
	off := bigRandSchema(t, Options{Optimizer: SystemR, Vectorize: VectorizeOff}, 3)
	batches := func(an *PlanAnalysis) (n int64) {
		an.Root.Walk(func(na *NodeAnalysis) { n += na.Batches })
		return n
	}
	for _, q := range []string{
		"SELECT x.a, x.f FROM r x WHERE x.a < 10",
		"SELECT x.a, COUNT(*), SUM(y.f) FROM r x JOIN t y ON x.s = y.s WHERE x.pk < 300 AND y.pk < 200 GROUP BY x.a",
	} {
		want, err := ref.Exec(q)
		if err != nil {
			t.Fatal(err)
		}
		res, an, err := on.QueryAnalyze(q)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(an.Text, "vectorized=true") {
			t.Errorf("analyzed plan not marked vectorized:\n%s", an.Text)
		}
		var marked int
		an.Root.Walk(func(n *NodeAnalysis) {
			if n.Vectorized {
				marked++
			}
		})
		if marked == 0 {
			t.Error("no NodeAnalysis has Vectorized set")
		}
		onBatches := batches(an)
		if onBatches == 0 {
			t.Errorf("analyzed scan reports no batches:\n%s", an.Text)
		}
		if g, w := canonRows(res), canonRows(want); strings.Join(g, ";") != strings.Join(w, ";") {
			t.Errorf("kernels on disagree with EvalLogical\nquery: %s", q)
		}

		res, an, err = off.QueryAnalyze(q)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(an.Text, "vectorized=true") {
			t.Errorf("VectorizeOff run still marked vectorized:\n%s", an.Text)
		}
		if got := batches(an); got != onBatches {
			t.Errorf("VectorizeOff run reports batches=%d, vectorized run %d:\n%s", got, onBatches, an.Text)
		}
		an.Root.Walk(func(n *NodeAnalysis) {
			if n.Vectorized {
				t.Errorf("VectorizeOff run set Vectorized on %s", n.Op)
			}
		})
		if g, w := canonRows(res), canonRows(want); strings.Join(g, ";") != strings.Join(w, ";") {
			t.Errorf("kernels off disagree with EvalLogical\nquery: %s", q)
		}
	}
}

// TestCompiledResidualSplitEquivalence: a conjunction that mixes one conjunct
// with a typed kernel and one without (LIKE, arithmetic, IN (subquery), a
// UDF) must return exactly what EvalLogical returns — hex-exact floats —
// wherever it is evaluated: pushed into a table scan, pushed into an index
// scan, or in a Filter operator, crossed with memory / compressed disk ×
// parallelism 1/4 × kernels on/off. Rewrites are off so IN (subquery) stays
// a predicate instead of becoming a semijoin.
func TestCompiledResidualSplitEquivalence(t *testing.T) {
	cases := []struct{ op, query string }{
		{"table-scan r filter=", "SELECT pk, f FROM r WHERE a < 10 AND s LIKE 'b%'"},
		{"table-scan r filter=", "SELECT pk, f FROM r WHERE a < 10 AND f * 2 > 100.5"},
		{"table-scan r filter=", "SELECT pk, f FROM r WHERE a < 10 AND fk IN (SELECT pk FROM u WHERE a = 3)"},
		{"table-scan r filter=", "SELECT pk, f FROM r WHERE a < 10 AND odd(pk)"},
		{"index-scan r.r_pkey", "SELECT pk, f FROM r WHERE pk >= 100 AND pk < 3000 AND a < 10 AND s LIKE 'c%'"},
		{"index-scan r.r_pkey", "SELECT pk, f FROM r WHERE pk >= 100 AND pk < 3000 AND a < 10 AND f * 2 > 100.5"},
		{"index-scan r.r_pkey", "SELECT pk, f FROM r WHERE pk >= 100 AND pk < 3000 AND a < 10 AND fk IN (SELECT pk FROM u WHERE a = 3)"},
		{"index-scan r.r_pkey", "SELECT pk, f FROM r WHERE pk >= 100 AND pk < 3000 AND a < 10 AND odd(pk)"},
		{"filter [", "SELECT x.s, x.n FROM (SELECT s, MIN(s) AS m, COUNT(*) AS n FROM r GROUP BY s, a) x WHERE x.n > 40 AND x.m LIKE 'b%'"},
		{"filter [", "SELECT x.fk, x.sf FROM (SELECT fk, a, COUNT(*) AS n, SUM(f) AS sf FROM r GROUP BY fk, a) x WHERE x.n >= 1 AND x.sf * 2 > 100.5"},
		{"filter [", "SELECT x.a, x.n FROM (SELECT a, COUNT(*) AS n FROM r GROUP BY a) x WHERE x.n > 100 AND x.a IN (SELECT a FROM u WHERE pk < 50)"},
		{"filter [", "SELECT x.a, x.n FROM (SELECT a, COUNT(*) AS n FROM r GROUP BY a) x WHERE x.n > 100 AND odd(x.n)"},
	}
	build := func(opts Options) *Engine {
		opts.DisableRewrites = true
		e := bigRandSchema(t, opts, 5)
		e.RegisterPredicate("odd", 1.0, 0.5, func(args []any) bool {
			v, ok := args[0].(int64)
			return ok && v%2 == 1
		})
		return e
	}
	oracle := build(Options{Optimizer: Reference})
	type arm struct {
		name string
		eng  *Engine
	}
	var arms []arm
	for _, disk := range []bool{false, true} {
		for _, degree := range []int{1, 4} {
			for _, mode := range []VectorizeMode{VectorizeAuto, VectorizeOff} {
				opts := Options{Optimizer: SystemR, Parallelism: degree, Vectorize: mode}
				if disk {
					// A 1-byte cache keeps every read cold.
					opts.StorageDir, opts.SegmentRows, opts.SegmentCacheBytes = t.TempDir(), 512, 1
				}
				arms = append(arms, arm{fmt.Sprintf("disk=%v degree=%d kernels=%v", disk, degree, mode == VectorizeAuto), build(opts)})
			}
		}
	}
	for _, tc := range cases {
		want, err := oracle.Exec(tc.query)
		if err != nil {
			t.Fatalf("oracle: %v\nquery: %s", err, tc.query)
		}
		if len(want.Rows) == 0 {
			t.Fatalf("degenerate case, no rows: %s", tc.query)
		}
		for _, a := range arms {
			got, err := a.eng.Exec(tc.query)
			if err != nil {
				t.Fatalf("%s: %v\nquery: %s", a.name, err, tc.query)
			}
			if !strings.Contains(got.Plan, tc.op) {
				t.Fatalf("%s: plan lost the %q the case is about\nquery: %s\nplan:\n%s", a.name, tc.op, tc.query, got.Plan)
			}
			if g, w := canonRows(got), canonRows(want); strings.Join(g, ";") != strings.Join(w, ";") {
				t.Errorf("%s disagrees with EvalLogical\nquery: %s\nwant (%d rows): %.300v\ngot  (%d rows): %.300v\nplan:\n%s",
					a.name, tc.query, len(w), w, len(g), g, got.Plan)
			}
		}
	}

	// A residual-only predicate must not make the scan decode whole rows: it
	// reads the columns the query names, at any worker count. (The predicate
	// keeps no row, so nothing is read a second time to materialize output.)
	coldBytes := func(degree int, query string) int64 {
		e := build(Options{Optimizer: SystemR, Parallelism: degree, StorageDir: t.TempDir(), SegmentRows: 512, SegmentCacheBytes: 1})
		res, err := e.Exec(query)
		if err != nil {
			t.Fatalf("degree %d: %v\nquery: %s", degree, err, query)
		}
		return res.Stats.BytesRead
	}
	residualOnly := "SELECT pk FROM r WHERE s LIKE 'zz%'"
	one, four := coldBytes(1, residualOnly), coldBytes(4, residualOnly)
	if one == 0 || four > one {
		t.Errorf("residual-only scan read %d bytes at degree 4, %d at degree 1", four, one)
	}
	if twoCols := coldBytes(1, "SELECT pk, s FROM r"); one > twoCols {
		t.Errorf("residual-only scan over (pk, s) read %d bytes, the two columns are %d", one, twoCols)
	}
}
