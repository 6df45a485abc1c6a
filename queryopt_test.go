package queryopt

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

func demoEngine(t *testing.T, opts Options) *Engine {
	t.Helper()
	e := New(opts)
	e.MustExec(`CREATE TABLE emp (eid INT NOT NULL, name VARCHAR, did INT, sal FLOAT, PRIMARY KEY (eid))`)
	e.MustExec(`CREATE TABLE dept (did INT NOT NULL, dname VARCHAR, loc VARCHAR, PRIMARY KEY (did))`)
	e.MustExec(`CREATE INDEX emp_did ON emp (did)`)
	e.MustExec(`INSERT INTO emp VALUES
		(1, 'alice', 10, 120.5), (2, 'bob', 10, 95.0), (3, 'carol', 20, 210.0),
		(4, 'dave', NULL, 50.0), (5, 'erin', 30, NULL)`)
	e.MustExec(`INSERT INTO dept VALUES (10, 'eng', 'Denver'), (20, 'sales', 'Austin'), (30, 'ops', 'Denver')`)
	e.MustExec(`ANALYZE`)
	return e
}

func TestEndToEndAllOptimizers(t *testing.T) {
	queries := []struct {
		sql  string
		rows int
	}{
		{"SELECT name FROM emp WHERE sal > 100", 2},
		{"SELECT e.name, d.dname FROM emp e, dept d WHERE e.did = d.did", 4},
		{"SELECT d.loc, COUNT(*) FROM emp e, dept d WHERE e.did = d.did GROUP BY d.loc ORDER BY d.loc", 2},
		{"SELECT name FROM emp ORDER BY sal DESC LIMIT 2", 2},
		{"SELECT d.dname FROM dept d WHERE EXISTS (SELECT 1 FROM emp e WHERE e.did = d.did)", 3},
		{"SELECT COUNT(*), AVG(sal) FROM emp", 1},
		{"SELECT DISTINCT d.loc FROM dept d", 2},
	}
	for _, kind := range []OptimizerKind{SystemR, Starburst, Cascades, Reference} {
		e := demoEngine(t, Options{Optimizer: kind})
		for _, qc := range queries {
			res, err := e.Exec(qc.sql)
			if err != nil {
				t.Fatalf("[%v] %s: %v", kind, qc.sql, err)
			}
			if len(res.Rows) != qc.rows {
				t.Errorf("[%v] %s: got %d rows, want %d", kind, qc.sql, len(res.Rows), qc.rows)
			}
		}
	}
}

func TestOptimizersAgree(t *testing.T) {
	q := "SELECT e.name, d.dname FROM emp e, dept d WHERE e.did = d.did AND d.loc = 'Denver' ORDER BY e.name"
	var results [][]string
	for _, kind := range []OptimizerKind{SystemR, Starburst, Cascades, Reference} {
		e := demoEngine(t, Options{Optimizer: kind})
		res, err := e.Exec(q)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		var rows []string
		for _, r := range res.Rows {
			rows = append(rows, strings.TrimSpace(strings.Join([]string{r[0].(string), r[1].(string)}, "|")))
		}
		results = append(results, rows)
	}
	for i := 1; i < len(results); i++ {
		if strings.Join(results[i], ";") != strings.Join(results[0], ";") {
			t.Errorf("optimizer %d disagrees: %v vs %v", i, results[i], results[0])
		}
	}
}

func TestExplain(t *testing.T) {
	e := demoEngine(t, Options{})
	// With only 5 rows a sequential scan is legitimately optimal; grow the
	// table so the point lookup pays off.
	rows := make([][]any, 0, 5000)
	for i := 100; i < 5100; i++ {
		rows = append(rows, []any{i, "filler", 10, 1.0})
	}
	if err := e.LoadRows("emp", rows); err != nil {
		t.Fatal(err)
	}
	e.MustExec("ANALYZE emp")
	plan, err := e.Explain("SELECT name FROM emp WHERE eid = 3")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "index-scan") {
		t.Errorf("point lookup should use the primary index:\n%s", plan)
	}
}

// EXPLAIN names columns and leaves string literals as written, even one that
// looks like a column reference.
func TestExplainKeepsLiteralText(t *testing.T) {
	e := demoEngine(t, Options{})
	plan, err := e.Explain("SELECT eid FROM emp WHERE name = 'x@1' AND sal > 5")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "(emp.name = 'x@1')") || strings.Contains(plan, "xemp") {
		t.Errorf("literal 'x@1' rewritten in plan text:\n%s", plan)
	}
}

func TestOrdinaryViews(t *testing.T) {
	e := demoEngine(t, Options{})
	e.MustExec("CREATE VIEW denver AS SELECT e.name AS name, e.sal AS sal FROM emp e, dept d WHERE e.did = d.did AND d.loc = 'Denver'")
	res, err := e.Exec("SELECT name FROM denver WHERE sal > 100")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != "alice" {
		t.Errorf("view query wrong: %v", res.Rows)
	}
}

func TestMaterializedViews(t *testing.T) {
	e := demoEngine(t, Options{UseMaterializedViews: true})
	e.MustExec("CREATE MATERIALIZED VIEW emp_by_dept AS SELECT e.did AS did, COUNT(*) AS cnt FROM emp e GROUP BY e.did")
	e.MustExec("ANALYZE emp_by_dept")
	res, err := e.Exec("SELECT e.did, COUNT(*) FROM emp e GROUP BY e.did")
	if err != nil {
		t.Fatal(err)
	}
	if res.UsedMaterializedView != "emp_by_dept" {
		t.Errorf("expected the materialized view to be used\n%s", res.Plan)
	}
	if len(res.Rows) != 4 {
		t.Errorf("rows = %d, want 4 (incl. NULL group)", len(res.Rows))
	}
}

func TestUserDefinedPredicate(t *testing.T) {
	e := demoEngine(t, Options{})
	e.RegisterPredicate("expensive_match", 25.0, 0.4, func(args []any) bool {
		s, _ := args[0].(string)
		return strings.Contains(s, "a")
	})
	res, err := e.Exec("SELECT name FROM emp WHERE expensive_match(name)")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 { // alice, carol, dave
		t.Errorf("UDP rows = %d, want 3: %v", len(res.Rows), res.Rows)
	}
}

func TestResultStatsAndEstimates(t *testing.T) {
	e := demoEngine(t, Options{})
	res, err := e.Exec("SELECT e.name FROM emp e, dept d WHERE e.did = d.did")
	if err != nil {
		t.Fatal(err)
	}
	if res.EstCost <= 0 || res.Plan == "" {
		t.Error("plan and estimates should be populated")
	}
	if res.Stats.RowsProcessed == 0 {
		t.Error("execution counters should be populated")
	}
}

func TestDDLErrors(t *testing.T) {
	e := New(Options{})
	if _, err := e.Exec("CREATE TABLE t (a INT, PRIMARY KEY (nope))"); err == nil {
		t.Error("bad primary key should fail")
	}
	e.MustExec("CREATE TABLE t (a INT)")
	if _, err := e.Exec("CREATE TABLE t (a INT)"); err == nil {
		t.Error("duplicate table should fail")
	}
	if _, err := e.Exec("CREATE INDEX i ON missing (a)"); err == nil {
		t.Error("index on missing table should fail")
	}
	if _, err := e.Exec("CREATE INDEX i ON t (nope)"); err == nil {
		t.Error("index on missing column should fail")
	}
	if _, err := e.Exec("INSERT INTO missing VALUES (1)"); err == nil {
		t.Error("insert into missing table should fail")
	}
	if _, err := e.Exec("ANALYZE missing"); err == nil {
		t.Error("analyze missing table should fail")
	}
	if _, err := e.Exec("SELECT * FROM missing"); err == nil {
		t.Error("select from missing table should fail")
	}
	if _, err := e.Exec("NOT SQL AT ALL"); err == nil {
		t.Error("parse error should surface")
	}
}

func TestClusteredIndexSortsHeap(t *testing.T) {
	e := New(Options{})
	e.MustExec("CREATE TABLE t (a INT, b INT)")
	e.MustExec("INSERT INTO t VALUES (3, 1), (1, 2), (2, 3)")
	e.MustExec("CREATE CLUSTERED INDEX t_a ON t (a)")
	e.MustExec("ANALYZE t")
	res, err := e.Exec("SELECT a FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].(int64) != 1 || res.Rows[2][0].(int64) != 3 {
		t.Errorf("heap should be physically sorted: %v", res.Rows)
	}
	if _, err := e.Exec("CREATE CLUSTERED INDEX t_b ON t (b)"); err == nil {
		t.Error("second clustered index should fail")
	}
}

func TestLoadRows(t *testing.T) {
	e := New(Options{})
	e.MustExec("CREATE TABLE t (a INT, b VARCHAR, c FLOAT, d BOOLEAN)")
	if err := e.LoadRows("t", [][]any{
		{int64(1), "x", 1.5, true},
		{2, "y", 2.5, false},
		{nil, nil, nil, nil},
	}); err != nil {
		t.Fatal(err)
	}
	res, err := e.Exec("SELECT COUNT(*) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].(int64) != 3 {
		t.Errorf("count = %v", res.Rows[0][0])
	}
	if err := e.LoadRows("t", [][]any{{struct{}{}, nil, nil, nil}}); err == nil {
		t.Error("unsupported type should fail")
	}
	if err := e.LoadRows("missing", nil); err == nil {
		t.Error("missing table should fail")
	}
}

func TestNullsSurfaceAsNil(t *testing.T) {
	e := demoEngine(t, Options{})
	res, err := e.Exec("SELECT sal FROM emp WHERE name = 'erin'")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != nil {
		t.Errorf("NULL should surface as nil, got %#v", res.Rows[0][0])
	}
}

func TestDisableRewrites(t *testing.T) {
	e := demoEngine(t, Options{DisableRewrites: true})
	res, err := e.Exec("SELECT d.dname FROM dept d WHERE EXISTS (SELECT 1 FROM emp e WHERE e.did = d.did)")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Errorf("rows = %d", len(res.Rows))
	}
	// Without unnesting, tuple-iteration must have evaluated subqueries.
	if res.Stats.SubqueryEvals == 0 {
		t.Error("expected tuple-iteration subquery evaluation")
	}
}

// TestOneStatementPath pins the one statement path: every SELECT — ad hoc,
// EXPLAINed, analyzed or prepared — is rewritten, answered from views and
// optimized by the same calls, so each has exactly one call site among the
// package's non-test files. No file imports internal/parallel: the degree of
// parallelism is the executor's, and the statement path plans one plan for
// every degree.
func TestOneStatementPath(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	calls := map[string]int{}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if imp.Path.Value == `"repro/internal/parallel"` {
				t.Errorf("%s imports internal/parallel", name)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
					calls[sel.Sel.Name]++
				}
			}
			return true
		})
	}
	for _, fn := range []string{"UnnestSubqueries", "AssociateJoinOuterjoin", "MovePredicates", "PushDownGroupBy",
		"RewriteWithViews", "optimizeOne"} {
		if calls[fn] != 1 {
			t.Errorf("%s has %d call sites, want 1", fn, calls[fn])
		}
	}
}

// TestCorrelatedPredicateOnScan: normalizing a subquery's body treats its
// correlated columns as constants, so a conjunct over one inner table and the
// outer row is pushed to that table's scan — by System-R and Cascades alike —
// instead of staying on the join above it.
func TestCorrelatedPredicateOnScan(t *testing.T) {
	for _, kind := range []OptimizerKind{SystemR, Cascades} {
		e := demoEngine(t, Options{Optimizer: kind})
		plan, err := e.Explain(`SELECT d.dname FROM dept d WHERE d.did > 20 OR EXISTS
			(SELECT 1 FROM emp e, dept d2 WHERE e.did = d2.did AND d2.loc = d.loc AND e.sal > 100)`)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(plan, "scan dept filter=[(d2.loc = d.loc)]") {
			t.Errorf("%v: d2.loc = d.loc is not on the scan of dept d2:\n%s", kind, plan)
		}
	}
}

// TestNaiveSubqueryCasesThroughEngine runs the reference evaluator's four
// subquery cases through every optimizer, with the rewrites on and off and at
// one and four workers: unnested or run as sub-plans, the rows are the same.
func TestNaiveSubqueryCasesThroughEngine(t *testing.T) {
	cases := []struct{ sql, want string }{
		// CorrelatedIn: the paper's §4.2.2 pattern.
		{`SELECT e.name FROM emp e WHERE e.did IN
			(SELECT d.did FROM dept d WHERE d.dname = 'eng' AND e.sal > 50) ORDER BY e.name`, "[[alice] [bob]]"},
		// ExistsAndNotExists.
		{`SELECT d.dname FROM dept d WHERE EXISTS (SELECT 1 FROM emp e WHERE e.did = d.did) ORDER BY d.dname`,
			"[[eng] [ops] [sales]]"},
		{`SELECT d.dname FROM dept d WHERE NOT EXISTS (SELECT 1 FROM emp e WHERE e.did = d.did)`, "[]"},
		// ScalarSubquery: the average salary is 118.875.
		{`SELECT e.name FROM emp e WHERE e.sal > (SELECT AVG(e2.sal) FROM emp e2) ORDER BY e.name`, "[[alice] [carol]]"},
		// InSubqueryNullSemantics: NOT IN over a set holding NULL is never TRUE.
		{`SELECT d.dname FROM dept d WHERE d.did NOT IN (SELECT e.did FROM emp e)`, "[]"},
	}
	for _, kind := range allKinds() {
		for _, disable := range []bool{false, true} {
			for _, par := range []int{1, 4} {
				e := demoEngine(t, Options{Optimizer: kind, DisableRewrites: disable, Parallelism: par})
				for _, c := range cases {
					res, err := e.Exec(c.sql)
					if err != nil {
						t.Fatalf("%v rewrites-off=%v parallel=%d: %s: %v", kind, disable, par, c.sql, err)
					}
					if got := fmt.Sprint(res.Rows); got != c.want {
						t.Errorf("%v rewrites-off=%v parallel=%d: %s = %s, want %s\n%s", kind, disable, par, c.sql, got, c.want, res.Plan)
					}
				}
				e.Close()
			}
		}
	}
}
