package queryopt

// parallel_equivalence_test.go extends the equivalence net to the
// morsel-driven parallel executor: for the same random query corpus, engines
// running with Parallelism 1, 2 and 8 must return exactly the multiset the
// serial engine returns — bit-identical floats included (SUM/AVG use exact
// compensated summation, so partitioning must not change a single bit) — and
// the identical row order whenever the query has an ORDER BY. Tables here are
// large enough (thousands of rows) that the
// parallel operators really fan out rather than falling back to the serial
// path below the morsel threshold.

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/systemr"
)

// bigRandSchema is randSchema scaled past the morsel threshold (~2k rows).
func bigRandSchema(t *testing.T, opts Options, seed int64) *Engine {
	t.Helper()
	return sizedRandSchema(t, opts, seed, 5000, 2000, 400)
}

// sizedRandSchema is bigRandSchema with rRows, tRows and uRows rows in r, t
// and u; r.fk ranges over t's keys, t.fk over u's.
func sizedRandSchema(t *testing.T, opts Options, seed int64, rRows, tRows, uRows int) *Engine {
	t.Helper()
	e := New(opts)
	t.Cleanup(e.Close)
	e.MustExec(`CREATE TABLE r (pk INT NOT NULL, fk INT, a INT, s VARCHAR, f FLOAT, PRIMARY KEY (pk))`)
	e.MustExec(`CREATE TABLE t (pk INT NOT NULL, fk INT, a INT, s VARCHAR, f FLOAT, PRIMARY KEY (pk))`)
	e.MustExec(`CREATE TABLE u (pk INT NOT NULL, a INT, s VARCHAR, PRIMARY KEY (pk))`)
	e.MustExec(`CREATE INDEX r_fk ON r (fk)`)
	e.MustExec(`CREATE INDEX t_a ON t (a)`)
	rng := rand.New(rand.NewSource(seed))
	strs := []string{"ant", "bee", "cat", "dog", "elk"}
	load := func(table string, n, fkDom int, withFK bool) {
		var rows [][]any
		for i := 0; i < n; i++ {
			row := []any{i}
			if withFK {
				if rng.Intn(10) == 0 {
					row = append(row, nil)
				} else {
					row = append(row, rng.Intn(fkDom))
				}
			}
			if rng.Intn(12) == 0 {
				row = append(row, nil)
			} else {
				row = append(row, rng.Intn(20))
			}
			row = append(row, strs[rng.Intn(len(strs))])
			if table != "u" {
				if rng.Intn(12) == 0 {
					row = append(row, nil)
				} else {
					row = append(row, float64(rng.Intn(1000))/4)
				}
			}
			rows = append(rows, row)
		}
		if err := e.LoadRows(table, rows); err != nil {
			t.Fatal(err)
		}
	}
	load("r", rRows, tRows, true)
	load("t", tRows, uRows, true)
	load("u", uRows, 0, false)
	e.MustExec("ANALYZE")
	return e
}

// TestParallelQueryEquivalence: same corpus as TestRandomQueryEquivalence,
// baselined on the serial SystemR engine (serial-vs-reference equivalence is
// already covered there).
func TestParallelQueryEquivalence(t *testing.T) {
	const trials = 25
	degrees := []int{1, 2, 8}
	for seed := int64(1); seed <= 2; seed++ {
		serial := bigRandSchema(t, Options{Optimizer: SystemR}, seed)
		engines := make([]*Engine, len(degrees))
		for i, d := range degrees {
			engines[i] = bigRandSchema(t, Options{Optimizer: SystemR, Parallelism: d}, seed)
		}
		rng := rand.New(rand.NewSource(seed * 1000))
		for trial := 0; trial < trials; trial++ {
			q := randQuery(rng)
			res, err := serial.Exec(q)
			if err != nil {
				t.Fatalf("seed %d trial %d serial: %v\nquery: %s", seed, trial, err, q)
			}
			baseline := canonRows(res)
			ordered := strings.Contains(q, "ORDER BY")
			var orderedBaseline []string
			if ordered {
				for _, r := range res.Rows {
					orderedBaseline = append(orderedBaseline, canonRow(r))
				}
			}
			for i, d := range degrees {
				pres, err := engines[i].Exec(q)
				if err != nil {
					t.Fatalf("seed %d trial %d degree %d: %v\nquery: %s", seed, trial, d, err, q)
				}
				got := canonRows(pres)
				if strings.Join(got, ";") != strings.Join(baseline, ";") {
					t.Fatalf("seed %d trial %d: degree %d disagrees with serial\nquery: %s\nserial (%d rows): %.500v\ngot    (%d rows): %.500v\nplan:\n%s",
						seed, trial, d, q, len(baseline), baseline, len(got), got, pres.Plan)
				}
				if ordered {
					var rows []string
					for _, r := range pres.Rows {
						rows = append(rows, canonRow(r))
					}
					if strings.Join(rows, ";") != strings.Join(orderedBaseline, ";") {
						t.Fatalf("seed %d trial %d: degree %d row order differs under ORDER BY\nquery: %s\nplan:\n%s",
							seed, trial, d, q, pres.Plan)
					}
				}
			}
		}
	}
}

// TestParallelAllNullAggregates: groups whose aggregate input is entirely
// NULL must come out the same from the serial and every parallel path —
// SUM/AVG/MIN/MAX NULL, COUNT(x) 0, COUNT(*) the group size. The table is
// large enough (4096 rows) that parallel runs really take the morsel path.
func TestParallelAllNullAggregates(t *testing.T) {
	build := func(par int) *Engine {
		e := New(Options{Parallelism: par})
		t.Cleanup(e.Close)
		e.MustExec(`CREATE TABLE m (pk INT NOT NULL, g INT, v FLOAT, PRIMARY KEY (pk))`)
		var rows [][]any
		for i := 0; i < 4096; i++ {
			g := i % 8
			// Groups 0-3 are entirely NULL in v; 4-7 mix NULLs and values.
			var v any
			if g >= 4 && i%3 == 0 {
				v = float64(i%97) + 0.25
			}
			rows = append(rows, []any{i, g, v})
		}
		if err := e.LoadRows("m", rows); err != nil {
			t.Fatal(err)
		}
		e.MustExec("ANALYZE")
		return e
	}
	q := `SELECT g, COUNT(*), COUNT(v), SUM(v), AVG(v), MIN(v), MAX(v) FROM m GROUP BY g ORDER BY g`
	serial := build(1)
	sres, err := serial.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	// Sanity on the serial truth itself: all-NULL groups 0-3.
	for _, r := range sres.Rows {
		if g := r[0].(int64); g < 4 {
			if r[1].(int64) != 512 || r[2].(int64) != 0 {
				t.Fatalf("group %d counts wrong: %v", g, r)
			}
			for c := 3; c <= 6; c++ {
				if r[c] != nil {
					t.Fatalf("group %d column %d = %v, want NULL", g, c, r[c])
				}
			}
		}
	}
	for _, par := range []int{2, 4, 8} {
		pres, err := build(par).Exec(q)
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if len(pres.Rows) != len(sres.Rows) {
			t.Fatalf("parallelism %d: %d rows, serial has %d", par, len(pres.Rows), len(sres.Rows))
		}
		for i := range sres.Rows {
			if canonRow(pres.Rows[i]) != canonRow(sres.Rows[i]) {
				t.Errorf("parallelism %d row %d: got %v, serial %v", par, i, pres.Rows[i], sres.Rows[i])
			}
		}
	}
}

// TestParallelismKeepsPlan: the degree belongs to the executor, not the plan.
// An engine at Parallelism 4 explains every statement shape — a star join
// with GROUP BY, ORDER BY ... LIMIT, a merge join, UNION ALL, a correlated
// subquery — in the same text as one at Parallelism 1, and EXPLAIN ANALYZE at
// 4 reports per-worker rows on the pipeline stages that fanned out.
func TestParallelismKeepsPlan(t *testing.T) {
	stmts := []string{
		`SELECT u.s, t.s, COUNT(*), SUM(r.f) FROM r, t, u WHERE r.fk = t.pk AND r.a = u.pk AND u.a < 8 GROUP BY u.s, t.s`,
		`SELECT r.pk, r.f FROM r WHERE r.a > 3 ORDER BY r.f DESC, r.pk LIMIT 10`,
		`SELECT r.pk, t.a FROM r, t WHERE r.fk = t.pk AND r.a < 5`,
		`SELECT r.a FROM r WHERE r.f > 0 UNION ALL SELECT t.a FROM t WHERE t.s = 'cat'`,
		`SELECT t.pk FROM t WHERE t.a < 3 OR EXISTS (SELECT 1 FROM r WHERE r.fk = t.pk AND r.f > t.f)`,
	}
	merge := systemr.Options{DisableHashJoin: true, DisableINLJoin: true}
	for _, sro := range []systemr.Options{{}, merge} {
		serial := bigRandSchema(t, Options{SystemR: sro}, 7)
		par := bigRandSchema(t, Options{SystemR: sro, Parallelism: 4}, 7)
		for _, q := range stmts {
			want, err := serial.Explain(q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := par.Explain(q)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("%s\nParallelism 4 plans\n%s\nParallelism 1 plans\n%s", q, got, want)
			}
			if sro == merge && q == stmts[2] && !strings.Contains(got, "merge-inner") {
				t.Errorf("want a merge join:\n%s", got)
			}
		}
		_, pa, err := par.QueryAnalyze(stmts[0])
		if err != nil {
			t.Fatal(err)
		}
		fanned := 0
		pa.Root.Walk(func(n *NodeAnalysis) {
			var in int64
			for _, w := range n.WorkerRows {
				in += w
			}
			if len(n.WorkerRows) > 1 && in >= 2*exec.MorselSize {
				fanned++
			}
		})
		if fanned == 0 || !strings.Contains(pa.Text, "worker_rows=") {
			t.Errorf("no pipeline stage reports worker_rows over %d input rows:\n%s", 2*exec.MorselSize, pa.Text)
		}
	}
}
