package queryopt

// edgecases_test.go injects the degenerate shapes §5–§6's machinery must
// survive: empty tables, single rows, all-NULL columns, missing statistics,
// and adversarial mixes — run through every optimizer architecture.

import (
	"fmt"
	"math/big"
	"testing"
)

func allKinds() []OptimizerKind {
	return []OptimizerKind{Reference, SystemR, Starburst, Cascades}
}

func TestEmptyTables(t *testing.T) {
	for _, kind := range allKinds() {
		e := New(Options{Optimizer: kind})
		e.MustExec("CREATE TABLE a (x INT NOT NULL, y VARCHAR, PRIMARY KEY (x))")
		e.MustExec("CREATE TABLE b (x INT NOT NULL, z FLOAT, PRIMARY KEY (x))")
		e.MustExec("ANALYZE")
		cases := []struct {
			sql  string
			rows int
		}{
			{"SELECT * FROM a", 0},
			{"SELECT a.y, b.z FROM a, b WHERE a.x = b.x", 0},
			{"SELECT a.y FROM a LEFT OUTER JOIN b ON a.x = b.x", 0},
			{"SELECT COUNT(*), SUM(b.z), MIN(a.y) FROM a, b WHERE a.x = b.x", 1},
			{"SELECT x, COUNT(*) FROM a GROUP BY x", 0},
			{"SELECT DISTINCT y FROM a", 0},
			{"SELECT y FROM a ORDER BY x DESC LIMIT 3", 0},
			{"SELECT y FROM a WHERE x IN (SELECT x FROM b)", 0},
			{"SELECT y FROM a WHERE EXISTS (SELECT 1 FROM b)", 0},
		}
		for _, c := range cases {
			res, err := e.Exec(c.sql)
			if err != nil {
				t.Fatalf("[%v] %s: %v", kind, c.sql, err)
			}
			if len(res.Rows) != c.rows {
				t.Errorf("[%v] %s: rows = %d, want %d", kind, c.sql, len(res.Rows), c.rows)
			}
		}
		// Scalar aggregates over nothing: COUNT 0, others NULL.
		res := e.MustExec("SELECT COUNT(*), SUM(x), AVG(x), MIN(y), MAX(y) FROM a")
		r := res.Rows[0]
		if r[0].(int64) != 0 || r[1] != nil || r[2] != nil || r[3] != nil || r[4] != nil {
			t.Errorf("[%v] empty scalar agg = %v", kind, r)
		}
	}
}

func TestSingleRowTables(t *testing.T) {
	for _, kind := range allKinds() {
		e := New(Options{Optimizer: kind})
		e.MustExec("CREATE TABLE s (x INT, y VARCHAR)")
		e.MustExec("INSERT INTO s VALUES (1, 'only')")
		e.MustExec("ANALYZE")
		res := e.MustExec("SELECT s1.y FROM s s1, s s2 WHERE s1.x = s2.x")
		if len(res.Rows) != 1 || res.Rows[0][0] != "only" {
			t.Errorf("[%v] self-join single row: %v", kind, res.Rows)
		}
		res = e.MustExec("SELECT x, COUNT(*) FROM s GROUP BY x HAVING COUNT(*) > 0")
		if len(res.Rows) != 1 {
			t.Errorf("[%v] single-row group: %v", kind, res.Rows)
		}
	}
}

func TestAllNullColumn(t *testing.T) {
	for _, kind := range allKinds() {
		e := New(Options{Optimizer: kind})
		e.MustExec("CREATE TABLE n (k INT, v INT)")
		rows := make([][]any, 50)
		for i := range rows {
			rows[i] = []any{i, nil}
		}
		if err := e.LoadRows("n", rows); err != nil {
			t.Fatal(err)
		}
		e.MustExec("ANALYZE")
		// Aggregates over all NULLs.
		res := e.MustExec("SELECT COUNT(v), SUM(v), AVG(v), MIN(v) FROM n")
		r := res.Rows[0]
		if r[0].(int64) != 0 || r[1] != nil || r[2] != nil || r[3] != nil {
			t.Errorf("[%v] all-NULL aggregates = %v", kind, r)
		}
		// Grouping on the NULL column: one group.
		res = e.MustExec("SELECT v, COUNT(*) FROM n GROUP BY v")
		if len(res.Rows) != 1 || res.Rows[0][0] != nil || res.Rows[0][1].(int64) != 50 {
			t.Errorf("[%v] NULL group = %v", kind, res.Rows)
		}
		// Equality on NULLs never matches (joins, filters, IN).
		for _, q := range []string{
			"SELECT k FROM n WHERE v = 5",
			"SELECT k FROM n WHERE v = v",
			"SELECT a.k FROM n a, n b WHERE a.v = b.v",
			"SELECT k FROM n WHERE v IN (1, 2, 3)",
		} {
			res := e.MustExec(q)
			if len(res.Rows) != 0 {
				t.Errorf("[%v] %s: NULL equality matched %d rows", kind, q, len(res.Rows))
			}
		}
		// IS NULL matches everything.
		if res := e.MustExec("SELECT k FROM n WHERE v IS NULL"); len(res.Rows) != 50 {
			t.Errorf("[%v] IS NULL rows = %d", kind, len(res.Rows))
		}
	}
}

func TestQueriesWithoutStatistics(t *testing.T) {
	// No ANALYZE at all: optimizers must still produce correct plans from
	// default assumptions.
	for _, kind := range allKinds() {
		e := New(Options{Optimizer: kind})
		e.MustExec("CREATE TABLE u (x INT NOT NULL, y INT, PRIMARY KEY (x))")
		var rows [][]any
		for i := 0; i < 300; i++ {
			rows = append(rows, []any{i, i % 7})
		}
		if err := e.LoadRows("u", rows); err != nil {
			t.Fatal(err)
		}
		res := e.MustExec("SELECT y, COUNT(*) FROM u WHERE x < 100 GROUP BY y")
		if len(res.Rows) != 7 {
			t.Errorf("[%v] stats-less query rows = %d, want 7", kind, len(res.Rows))
		}
	}
}

func TestWideDuplicateHeavyData(t *testing.T) {
	// Many duplicates stress histogram boundaries and group tables.
	for _, kind := range []OptimizerKind{SystemR, Cascades} {
		e := New(Options{Optimizer: kind})
		e.MustExec("CREATE TABLE dup (a INT, b VARCHAR)")
		var rows [][]any
		for i := 0; i < 2000; i++ {
			rows = append(rows, []any{7, "same"})
		}
		rows = append(rows, []any{8, "other"})
		if err := e.LoadRows("dup", rows); err != nil {
			t.Fatal(err)
		}
		e.MustExec("ANALYZE")
		res := e.MustExec("SELECT a, COUNT(*) FROM dup GROUP BY a ORDER BY a")
		if len(res.Rows) != 2 || res.Rows[0][1].(int64) != 2000 {
			t.Errorf("[%v] duplicate-heavy grouping: %v", kind, res.Rows)
		}
		res = e.MustExec("SELECT COUNT(*) FROM dup WHERE a = 7")
		if res.Rows[0][0].(int64) != 2000 {
			t.Errorf("[%v] eq on heavy value: %v", kind, res.Rows)
		}
	}
}

func TestDeepSubqueryNesting(t *testing.T) {
	e := New(Options{})
	e.MustExec("CREATE TABLE d (x INT)")
	e.MustExec("INSERT INTO d VALUES (1), (2), (3)")
	e.MustExec("ANALYZE")
	res := e.MustExec(`SELECT x FROM d WHERE x IN
		(SELECT x FROM d WHERE x IN
			(SELECT x FROM d WHERE x > 1))`)
	if len(res.Rows) != 2 {
		t.Errorf("nested IN rows = %d, want 2", len(res.Rows))
	}
}

func TestManyJoinsGreedyPath(t *testing.T) {
	// 10 relations exceed the DP cap (MaxRelations default 16? force lower).
	e := New(Options{})
	e.opts.SystemR.MaxRelations = 4 // force the greedy fallback
	var from, where string
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("j%d", i)
		e.MustExec("CREATE TABLE " + name + " (pk INT NOT NULL, fk INT, PRIMARY KEY (pk))")
		var rows [][]any
		for r := 0; r < 40; r++ {
			rows = append(rows, []any{r, (r + 1) % 40})
		}
		if err := e.LoadRows(name, rows); err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			from += ", "
			where += fmt.Sprintf(" AND j%d.fk = j%d.pk", i-1, i)
		}
		from += name
	}
	e.MustExec("ANALYZE")
	q := "SELECT COUNT(*) FROM " + from + " WHERE 1 = 1" + where
	res, err := e.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].(int64) != 40 {
		t.Errorf("chain of 8 joins count = %v, want 40", res.Rows[0][0])
	}
}

// TestSumNearMaxFloat64: a FLOAT SUM whose running total passes MaxFloat64
// on the way to a finite answer, and one whose exact sum rounds to +Inf,
// return the correctly rounded math/big answer at every parallelism degree
// with kernels on and off — never a NaN from an intermediate overflow.
func TestSumNearMaxFloat64(t *testing.T) {
	at := map[int]float64{7: 4.567004089022277e+307, 1907: 2.65797520472452e+307, 3807: 7.32793269513411e+307,
		5707: 3.570790706803777e+307, 7607: -3.1582221052763156e+306}
	exact := func(vals ...float64) float64 {
		acc := new(big.Float).SetPrec(2200)
		for _, v := range vals {
			acc.Add(acc, new(big.Float).SetFloat64(v))
		}
		f, _ := acc.Float64()
		return f
	}
	var wide []float64
	for _, v := range at {
		wide = append(wide, v)
	}
	want := map[string]float64{"SELECT SUM(x) FROM t": exact(wide...), "SELECT SUM(x) FROM u": exact(1e308, 1e308)}
	if w := want["SELECT SUM(x) FROM t"]; w != 1.7807880485157054e+308 {
		t.Fatalf("reference sum %v", w)
	}
	for _, par := range []int{1, 2, 4} {
		for _, vec := range []VectorizeMode{VectorizeAuto, VectorizeOff} {
			e := New(Options{Parallelism: par, Vectorize: vec})
			t.Cleanup(e.Close)
			e.MustExec("CREATE TABLE t (id INT NOT NULL, x FLOAT, PRIMARY KEY (id))")
			e.MustExec("CREATE TABLE u (id INT NOT NULL, x FLOAT, PRIMARY KEY (id))")
			rows := make([][]any, 8192)
			for i := range rows {
				rows[i] = []any{i, at[i]} // 0 where at has no entry
			}
			if err := e.LoadRows("t", rows); err != nil {
				t.Fatal(err)
			}
			if err := e.LoadRows("u", [][]any{{1, 1e308}, {2, 1e308}}); err != nil {
				t.Fatal(err)
			}
			e.MustExec("ANALYZE")
			for q, w := range want {
				res, err := e.Exec(q)
				if err != nil {
					t.Fatalf("parallelism %d kernels %v: %s: %v", par, vec == VectorizeAuto, q, err)
				}
				if got := res.Rows[0][0].(float64); got != w {
					t.Errorf("parallelism %d kernels %v: %s = %v, want %v", par, vec == VectorizeAuto, q, got, w)
				}
			}
		}
	}
}
