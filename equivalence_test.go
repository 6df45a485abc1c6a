package queryopt

// equivalence_test.go is the repository's strongest correctness net: it
// generates random queries over a seeded schema and checks that every
// optimizer architecture — System-R DP, Starburst, Cascades — returns
// exactly the multiset the unoptimized reference evaluator returns. Any
// unsound transformation, join algorithm, or enumeration bug shows up as a
// diff here.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/physical"
	"repro/internal/sql"
)

// randSchema builds one engine with seeded random data.
func randSchema(t *testing.T, kind OptimizerKind, seed int64) *Engine {
	t.Helper()
	return randSchemaWith(t, Options{Optimizer: kind}, seed)
}

// randSchemaWith is randSchema with full control over engine options (used by
// the disk-backed storage equivalence tests).
func randSchemaWith(t *testing.T, opts Options, seed int64) *Engine {
	t.Helper()
	e := New(opts)
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
	load("r", 180, 60, true)
	load("t", 60, 40, true)
	load("u", 40, 0, false)
	e.MustExec("ANALYZE")
	return e
}

// randQuery emits a random but valid SQL query.
func randQuery(rng *rand.Rand) string {
	cols := []string{"pk", "fk", "a", "s", "f"}
	uCols := []string{"pk", "a", "s"}
	cmp := []string{"=", "<>", "<", "<=", ">", ">="}

	pred := func(binding string, isU bool) string {
		cs := cols
		if isU {
			cs = uCols
		}
		col := binding + "." + cs[rng.Intn(len(cs))]
		switch rng.Intn(7) {
		case 0:
			return col + " IS NULL"
		case 1:
			return col + " IS NOT NULL"
		case 2:
			if strings.HasSuffix(col, ".s") {
				return col + " IN ('ant', 'cat')"
			}
			return col + fmt.Sprintf(" IN (%d, %d, %d)", rng.Intn(20), rng.Intn(20), rng.Intn(60))
		case 3:
			if strings.HasSuffix(col, ".s") {
				return col + " LIKE '%a%'"
			}
			return col + fmt.Sprintf(" BETWEEN %d AND %d", rng.Intn(10), 10+rng.Intn(50))
		default:
			if strings.HasSuffix(col, ".s") {
				return col + " " + cmp[rng.Intn(2)] + " 'cat'"
			}
			if strings.HasSuffix(col, ".f") {
				return col + " " + cmp[rng.Intn(len(cmp))] + fmt.Sprintf(" %d.5", rng.Intn(250))
			}
			return col + " " + cmp[rng.Intn(len(cmp))] + fmt.Sprintf(" %d", rng.Intn(60))
		}
	}

	nTables := 1 + rng.Intn(3)
	bindings := []string{"x"}
	from := "r x"
	var conds []string
	if nTables >= 2 {
		bindings = append(bindings, "y")
		switch rng.Intn(3) {
		case 0:
			from += ", t y"
			conds = append(conds, "x.fk = y.pk")
		case 1:
			from += " JOIN t y ON x.fk = y.pk"
		default:
			from += " LEFT OUTER JOIN t y ON x.fk = y.pk"
		}
	}
	if nTables >= 3 {
		bindings = append(bindings, "z")
		from += ", u z"
		conds = append(conds, "y.a = z.pk")
	}
	for i := 0; i < rng.Intn(3); i++ {
		b := bindings[rng.Intn(len(bindings))]
		conds = append(conds, pred(b, b == "z"))
	}
	// Occasionally a subquery predicate.
	if rng.Intn(4) == 0 {
		switch rng.Intn(3) {
		case 0:
			conds = append(conds, "EXISTS (SELECT 1 FROM u uu WHERE uu.pk = x.a)")
		case 1:
			conds = append(conds, "x.a IN (SELECT zz.a FROM u zz WHERE zz.s = 'cat')")
		default:
			conds = append(conds, "x.f > (SELECT AVG(tt.f) FROM t tt WHERE tt.pk = x.fk)")
		}
	}

	var sb strings.Builder
	// Occasionally a UNION of two single-table arms.
	if nTables == 1 && rng.Intn(5) == 0 {
		all := ""
		if rng.Intn(2) == 0 {
			all = "ALL "
		}
		return fmt.Sprintf("SELECT x.a FROM r x WHERE %s UNION %sSELECT y.a FROM t y WHERE %s",
			pred("x", false), all, pred("y", false))
	}
	sb.WriteString("SELECT ")
	agg := rng.Intn(3) == 0
	if agg {
		sb.WriteString("x.a, COUNT(*), SUM(x.f), MIN(x.s)")
	} else {
		if rng.Intn(4) == 0 {
			sb.WriteString("DISTINCT ")
		}
		sb.WriteString("x.pk, x.s")
		if len(bindings) > 1 {
			sb.WriteString(", y.a")
		}
	}
	sb.WriteString(" FROM " + from)
	if len(conds) > 0 {
		sb.WriteString(" WHERE " + strings.Join(conds, " AND "))
	}
	if agg {
		sb.WriteString(" GROUP BY x.a")
		if rng.Intn(2) == 0 {
			sb.WriteString(" HAVING COUNT(*) >= 1")
		}
		sb.WriteString(" ORDER BY x.a")
	} else if rng.Intn(2) == 0 {
		sb.WriteString(" ORDER BY x.pk")
		if rng.Intn(3) == 0 {
			sb.WriteString(fmt.Sprintf(" LIMIT %d", 1+rng.Intn(20)))
		}
	}
	return sb.String()
}

// canonRow renders one result row with floats as exact hexadecimal bit
// patterns, so a difference in any bit fails a comparison.
func canonRow(r []any) string {
	var sb strings.Builder
	for j, v := range r {
		if j > 0 {
			sb.WriteByte('|')
		}
		switch t := v.(type) {
		case nil:
			sb.WriteString("NULL")
		case float64:
			sb.WriteString(strconv.FormatFloat(t, 'x', -1, 64))
		default:
			fmt.Fprint(&sb, t)
		}
	}
	return sb.String()
}

// canonRows is the multiset form: exact rows, sorted.
func canonRows(res *Result) []string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = canonRow(r)
	}
	sort.Strings(out)
	return out
}

func TestRandomQueryEquivalence(t *testing.T) {
	const trials = 60
	kinds := []OptimizerKind{Reference, SystemR, Starburst, Cascades}
	for seed := int64(1); seed <= 3; seed++ {
		engines := make([]*Engine, len(kinds))
		for i, k := range kinds {
			engines[i] = randSchema(t, k, seed)
		}
		rng := rand.New(rand.NewSource(seed * 1000))
		for trial := 0; trial < trials; trial++ {
			q := randQuery(rng)
			var baseline []string
			for i, k := range kinds {
				res, err := engines[i].Exec(q)
				if err != nil {
					t.Fatalf("seed %d trial %d [%v]: %v\nquery: %s", seed, trial, k, err, q)
				}
				got := canonRows(res)
				if i == 0 {
					baseline = got
					continue
				}
				if strings.Join(got, ";") != strings.Join(baseline, ";") {
					plan := res.Plan
					t.Fatalf("seed %d trial %d: %v disagrees with reference\nquery: %s\nref  (%d rows): %.500v\ngot  (%d rows): %.500v\nplan:\n%s",
						seed, trial, k, q, len(baseline), baseline, len(got), got, plan)
				}
			}
		}
	}
}

// TestRandomQueriesOrderByLimitPrefix checks ordered prefixes precisely:
// with ORDER BY x.pk (unique), row order must match exactly, not just as a
// multiset.
func TestRandomOrderedQueries(t *testing.T) {
	kinds := []OptimizerKind{Reference, SystemR, Starburst, Cascades}
	engines := make([]*Engine, len(kinds))
	for i, k := range kinds {
		engines[i] = randSchema(t, k, 42)
	}
	queries := []string{
		"SELECT x.pk FROM r x WHERE x.a > 5 ORDER BY x.pk LIMIT 7",
		"SELECT x.pk, y.pk FROM r x JOIN t y ON x.fk = y.pk ORDER BY x.pk DESC LIMIT 5",
		"SELECT x.a, COUNT(*) FROM r x GROUP BY x.a ORDER BY x.a",
	}
	for _, q := range queries {
		var baseline []string
		for i, k := range kinds {
			res, err := engines[i].Exec(q)
			if err != nil {
				t.Fatalf("[%v] %s: %v", k, q, err)
			}
			var rows []string
			for _, r := range res.Rows {
				rows = append(rows, fmt.Sprint(r...))
			}
			if i == 0 {
				baseline = rows
				continue
			}
			if strings.Join(rows, ";") != strings.Join(baseline, ";") {
				t.Errorf("[%v] %s: ordered rows differ\nref: %v\ngot: %v", k, q, baseline, rows)
			}
		}
	}
}

// subqueryShapes are the subqueries the §4 rewrites leave in place, run by
// nested iteration over an optimized sub-plan: EXISTS under OR, NOT IN over a
// nullable column, a scalar subquery in the select list and in HAVING, a
// two-level correlation whose innermost block reads the outermost, a
// correlated subquery in a join's ON, a correlated predicate over three of
// the body's tables, which a join block applies where they meet, a filter
// on outer columns only over a scalar aggregate, which must stay above it (the
// aggregate returns a row even when the filter rejects all of its input), and
// an outer column in a grouped body's HAVING, a constant within each group.
var subqueryShapes = []string{
	"SELECT x.pk FROM r x WHERE x.a = 3 OR EXISTS (SELECT 1 FROM t y WHERE y.fk = x.pk AND y.f > x.f)",
	"SELECT x.pk FROM r x WHERE x.a < 4 OR NOT EXISTS (SELECT 1 FROM t y, u z WHERE y.a = z.pk AND z.s = x.s AND y.fk = x.fk)",
	"SELECT x.pk FROM r x WHERE x.a NOT IN (SELECT y.a FROM t y WHERE y.s = 'cat')",
	"SELECT x.pk FROM r x WHERE x.a NOT IN (SELECT y.a FROM t y WHERE y.fk = x.fk)",
	"SELECT x.pk, (SELECT COUNT(*) FROM t y WHERE y.fk = x.pk) FROM r x",
	"SELECT x.pk, (SELECT MAX(z.a) FROM u z WHERE z.s = x.s) FROM r x WHERE x.a > 10",
	"SELECT x.a, COUNT(*) FROM r x GROUP BY x.a HAVING COUNT(*) > (SELECT COUNT(*) FROM u z WHERE z.a = 7)",
	"SELECT x.a, SUM(x.f) FROM r x GROUP BY x.a HAVING COUNT(*) >= (SELECT COUNT(*) FROM t y WHERE y.a = x.a)",
	"SELECT x.pk FROM r x WHERE EXISTS (SELECT 1 FROM t y WHERE y.fk = x.pk AND EXISTS (SELECT 1 FROM u z WHERE z.pk = y.a AND z.a = x.a))",
	"SELECT x.pk, y.pk FROM r x JOIN t y ON x.fk = y.pk AND EXISTS (SELECT 1 FROM u z WHERE z.pk = x.a AND z.a = y.a)",
	"SELECT x.pk, y.pk FROM r x LEFT OUTER JOIN t y ON x.fk = y.pk AND y.a > (SELECT MIN(z.a) FROM u z WHERE z.pk = x.a)",
	"SELECT x.pk FROM r x WHERE x.a < 3 OR EXISTS (SELECT 1 FROM u y, u z, u w WHERE y.a = z.pk AND z.a = w.pk AND y.a + z.a + w.a > x.a + 20)",
	"SELECT x.pk FROM r x WHERE x.a = 3 OR EXISTS (SELECT 1 FROM (SELECT COUNT(*) AS c FROM t y) g WHERE x.a > 5)",
	"SELECT x.pk, (SELECT g.c FROM (SELECT COUNT(*) AS c FROM t y) g WHERE x.a > 5) FROM r x",
	"SELECT x.pk FROM r x WHERE EXISTS (SELECT y.a FROM t y WHERE y.fk = x.fk GROUP BY y.a HAVING COUNT(*) > x.a - 18)",
}

// TestSubqueryShapesEquivalence: every optimizer returns the reference
// evaluator's rows for the subqueryShapes at one and four workers, with the
// rewrites on and off, and after compile every subquery reachable from the
// plan — in sub-plans too — carries its optimized body.
func TestSubqueryShapesEquivalence(t *testing.T) {
	for _, disable := range []bool{false, true} {
		ref := randSchemaWith(t, Options{Optimizer: Reference, DisableRewrites: disable}, 5)
		want := make([][]string, len(subqueryShapes))
		for i, q := range subqueryShapes {
			want[i] = canonRows(ref.MustExec(q))
		}
		for _, kind := range []OptimizerKind{SystemR, Starburst, Cascades} {
			for _, par := range []int{1, 4} {
				e := randSchemaWith(t, Options{Optimizer: kind, Parallelism: par, DisableRewrites: disable}, 5)
				for i, q := range subqueryShapes {
					label := fmt.Sprintf("%v parallel=%d rewrites-off=%v: %s", kind, par, disable, q)
					res, err := e.Exec(q)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if got := canonRows(res); strings.Join(got, ";") != strings.Join(want[i], ";") {
						t.Fatalf("%s: disagrees with reference\nref (%d rows): %.300v\ngot (%d rows): %.300v\nplan:\n%s",
							label, len(want[i]), want[i], len(got), got, res.Plan)
					}
					sel, err := sql.ParseSelect(q)
					if err != nil {
						t.Fatal(err)
					}
					c, err := e.compile(sel, nil)
					if err != nil {
						t.Fatal(err)
					}
					subs, missing := subPlans(c.plan)
					if missing > 0 {
						t.Errorf("%s: %d of %d subqueries carry no sub-plan", label, missing, subs)
					}
					if disable && subs == 0 {
						t.Errorf("%s: rewrites off, yet no subquery is left", label)
					}
				}
				e.Close()
			}
		}
	}
}

// subPlans counts the subqueries reachable from p, inside sub-plans too, and
// those without a sub-plan.
func subPlans(p physical.Plan) (subs, missing int) {
	for _, sub := range physical.Subqueries(p) {
		subs++
		body, ok := sub.Body.(physical.Plan)
		if !ok {
			missing++
			continue
		}
		s, m := subPlans(body)
		subs, missing = subs+s, missing+m
	}
	for _, c := range physical.Children(p) {
		s, m := subPlans(c)
		subs, missing = subs+s, missing+m
	}
	return subs, missing
}

// TestStarSumsIgnoreRewrites runs star queries through System-R, Starburst
// (which always rewrites) and Cascades with the rewrites on and off: every
// answer must be System-R's without rewrites to the bit. Eager aggregation
// may not split a FLOAT sum, since adding partial sums already rounded to
// float64 rounds the answer a second time, nor an AVG, whose exact float sum
// an INT partial sum matches only below 2^53; each dimension attribute
// combines two join keys, so two partials. The INT column holds values past
// 2^53 and near MaxInt64, whose SUM wraps alike split or not.
func TestStarSumsIgnoreRewrites(t *testing.T) {
	stmts := []string{
		`SELECT d.attr, SUM(s.amount), AVG(s.amount), COUNT(*), SUM(s.qty)
			FROM sales s, dim d WHERE s.k1 = d.k GROUP BY d.attr ORDER BY d.attr`,
		`SELECT d.attr, SUM(s.big), COUNT(*), MIN(s.big) FROM sales s, dim d WHERE s.k1 = d.k GROUP BY d.attr ORDER BY d.attr`,
		`SELECT d.attr, AVG(s.big), AVG(s.qty) FROM sales s, dim d WHERE s.k1 = d.k GROUP BY d.attr ORDER BY d.attr`,
	}
	rng := rand.New(rand.NewSource(1))
	var fact, dim [][]any
	for i := 0; i < 20000; i++ {
		big := int64(1)<<53 + 1 + int64(rng.Intn(3))
		if i%2 == 1 {
			big = math.MaxInt64 - int64(rng.Intn(1000))
		}
		fact = append(fact, []any{i, rng.Intn(400), 1 + rng.Intn(20), float64(rng.Intn(100000)) / 100, big})
	}
	for k := 0; k < 400; k++ {
		dim = append(dim, []any{k, fmt.Sprintf("a%03d", k/2)})
	}
	run := func(kind OptimizerKind, disable bool, qs string) (string, string) {
		e := New(Options{Optimizer: kind, DisableRewrites: disable})
		defer e.Close()
		e.MustExec(`CREATE TABLE sales (id INT NOT NULL, k1 INT, qty INT, amount FLOAT, big INT, PRIMARY KEY (id))`)
		e.MustExec(`CREATE TABLE dim (k INT NOT NULL, attr VARCHAR, PRIMARY KEY (k))`)
		if err := e.LoadRows("sales", fact); err != nil {
			t.Fatal(err)
		}
		if err := e.LoadRows("dim", dim); err != nil {
			t.Fatal(err)
		}
		e.MustExec("ANALYZE")
		res, err := e.Exec(qs)
		if err != nil {
			t.Fatalf("%v rewrites-off=%v: %v", kind, disable, err)
		}
		var sb strings.Builder
		for _, r := range res.Rows {
			for _, v := range r {
				if f, ok := v.(float64); ok {
					sb.WriteString(strconv.FormatFloat(f, 'g', -1, 64))
				} else {
					fmt.Fprint(&sb, v)
				}
				sb.WriteByte('|')
			}
			sb.WriteByte('\n')
		}
		return sb.String(), res.Plan
	}
	for _, qs := range stmts {
		want, _ := run(SystemR, true, qs)
		for _, kind := range []OptimizerKind{SystemR, Starburst, Cascades} {
			for _, disable := range []bool{false, true} {
				if got, plan := run(kind, disable, qs); got != want {
					t.Errorf("%v rewrites-off=%v: the answer differs from System-R's without rewrites\n%s\nwant:\n%.300s\ngot:\n%.300s\nplan:\n%s",
						kind, disable, qs, want, got, plan)
				}
			}
		}
	}
}
