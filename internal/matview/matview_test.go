package matview

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/datum"
	"repro/internal/logical"
	"repro/internal/reference"
	"repro/internal/sql"
	"repro/internal/stats"
	"repro/internal/workload"
)

func buildQuery(t *testing.T, db *workload.DB, q string) *logical.Query {
	t.Helper()
	sel, err := sql.ParseSelect(q)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	query, err := logical.NewBuilder(db.Cat).Build(sel)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	logical.NormalizeQuery(query, logical.DefaultNormalize())
	return query
}

// naive computes a view's rows with the reference evaluator.
func naive(db *workload.DB) Compute {
	return reference.Compute(db.Cat, db.Store)
}

func runRows(t *testing.T, db *workload.DB, q *logical.Query) []string {
	t.Helper()
	res, err := reference.New(db.Store, q.Meta).RunQuery(q)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, logical.Format(q.Root, q.Meta))
	}
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		var sb strings.Builder
		for j, d := range r {
			if j > 0 {
				sb.WriteString("|")
			}
			if !d.IsNull() && d.Kind() == datum.KindFloat {
				fmt.Fprintf(&sb, "%.4g", d.Float())
			} else {
				sb.WriteString(d.String())
			}
		}
		out[i] = sb.String()
	}
	sort.Strings(out)
	return out
}

func TestMaterializeAndMatchSPJ(t *testing.T) {
	db := workload.EmpDept(workload.EmpDeptConfig{Emps: 800, Depts: 40})
	db.Analyze(stats.AnalyzeOptions{})
	mv, err := Materialize(db.Cat, db.Store, "denver_emps",
		"SELECT e.eid AS eid, e.name AS name, e.sal AS sal, e.did AS did FROM Emp e, Dept d WHERE e.did = d.did AND d.loc = 'Denver'", naive(db))
	if err != nil {
		t.Fatal(err)
	}
	if mv.Table.Stats == nil {
		mvTab, _ := db.Store.Table("denver_emps")
		stats.Analyze(mvTab, stats.AnalyzeOptions{})
	}

	// A query subsuming the view's predicates.
	qs := "SELECT e.name FROM Emp e, Dept d WHERE e.did = d.did AND d.loc = 'Denver' AND e.sal > 10000"
	q := buildQuery(t, db, qs)
	rewrites := RewriteWithViews(q, db.Cat)
	if len(rewrites) != 1 {
		t.Fatalf("expected 1 rewrite, got %d", len(rewrites))
	}
	want := runRows(t, db, buildQuery(t, db, qs))
	got := runRows(t, db, rewrites[0].Query)
	if strings.Join(got, ";") != strings.Join(want, ";") {
		t.Fatalf("rewritten query differs\ngot:  %.300v\nwant: %.300v\n%s",
			got, want, logical.Format(rewrites[0].Query.Root, rewrites[0].Query.Meta))
	}
	// The rewrite must actually scan the backing table and not Dept.
	usesMV, usesDept := false, false
	logical.VisitRel(rewrites[0].Query.Root, func(e logical.RelExpr) {
		if s, ok := e.(*logical.Scan); ok {
			switch strings.ToLower(s.Table.Name) {
			case "denver_emps":
				usesMV = true
			case "dept":
				usesDept = true
			}
		}
	})
	if !usesMV || usesDept {
		t.Errorf("rewrite should replace Emp ⋈ Dept with the view: mv=%v dept=%v", usesMV, usesDept)
	}
}

func TestNoMatchWhenPredicatesNotContained(t *testing.T) {
	db := workload.EmpDept(workload.EmpDeptConfig{Emps: 300, Depts: 20})
	if _, err := Materialize(db.Cat, db.Store, "rich_emps",
		"SELECT e.eid AS eid, e.did AS did FROM Emp e WHERE e.sal > 15000", naive(db)); err != nil {
		t.Fatal(err)
	}
	// Query wants MORE rows than the view holds: no rewrite.
	q := buildQuery(t, db, "SELECT e.eid FROM Emp e WHERE e.sal > 1000")
	if got := RewriteWithViews(q, db.Cat); len(got) != 0 {
		t.Errorf("view with stronger predicate must not match, got %d rewrites", len(got))
	}
}

func TestNoMatchWhenColumnMissing(t *testing.T) {
	db := workload.EmpDept(workload.EmpDeptConfig{Emps: 300, Depts: 20})
	if _, err := Materialize(db.Cat, db.Store, "emp_ids",
		"SELECT e.eid AS eid FROM Emp e WHERE e.sal > 100", naive(db)); err != nil {
		t.Fatal(err)
	}
	// Query needs e.name, which the view does not expose.
	q := buildQuery(t, db, "SELECT e.name FROM Emp e WHERE e.sal > 100")
	if got := RewriteWithViews(q, db.Cat); len(got) != 0 {
		t.Errorf("view missing a needed column must not match, got %d", len(got))
	}
}

func TestAggregateExactMatch(t *testing.T) {
	db := workload.EmpDept(workload.EmpDeptConfig{Emps: 600, Depts: 30})
	if _, err := Materialize(db.Cat, db.Store, "dept_stats",
		"SELECT e.did AS did, COUNT(*) AS cnt, SUM(e.sal) AS total FROM Emp e GROUP BY e.did", naive(db)); err != nil {
		t.Fatal(err)
	}
	qs := "SELECT e.did, COUNT(*), SUM(e.sal) FROM Emp e GROUP BY e.did"
	q := buildQuery(t, db, qs)
	rewrites := RewriteWithViews(q, db.Cat)
	if len(rewrites) != 1 {
		t.Fatalf("expected exact aggregate match, got %d", len(rewrites))
	}
	want := runRows(t, db, buildQuery(t, db, qs))
	got := runRows(t, db, rewrites[0].Query)
	if strings.Join(got, ";") != strings.Join(want, ";") {
		t.Fatalf("aggregate rewrite differs\ngot:  %.300v\nwant: %.300v", got, want)
	}
	// Exact match must not re-aggregate.
	hasGB := false
	logical.VisitRel(rewrites[0].Query.Root, func(e logical.RelExpr) {
		if _, ok := e.(*logical.GroupBy); ok {
			hasGB = true
		}
	})
	if hasGB {
		t.Error("exact aggregate match should read the view directly")
	}
}

func TestAggregateRollup(t *testing.T) {
	db := workload.Star(workload.StarConfig{FactRows: 3000, DimRows: []int{30}, Seed: 3})
	if _, err := Materialize(db.Cat, db.Store, "sales_by_k1_qty",
		"SELECT s.k1 AS k1, s.qty AS qty, COUNT(*) AS cnt, SUM(s.amount) AS amt FROM sales s GROUP BY s.k1, s.qty", naive(db)); err != nil {
		t.Fatal(err)
	}
	// Coarser grouping: roll the view up.
	qs := "SELECT s.k1, COUNT(*), SUM(s.amount) FROM sales s GROUP BY s.k1"
	q := buildQuery(t, db, qs)
	rewrites := RewriteWithViews(q, db.Cat)
	if len(rewrites) != 1 {
		t.Fatalf("expected rollup match, got %d", len(rewrites))
	}
	want := runRows(t, db, buildQuery(t, db, qs))
	got := runRows(t, db, rewrites[0].Query)
	if strings.Join(got, ";") != strings.Join(want, ";") {
		t.Fatalf("rollup rewrite differs\ngot:  %.200v\nwant: %.200v\n%s",
			got, want, logical.Format(rewrites[0].Query.Root, rewrites[0].Query.Meta))
	}
}

func TestAggregateRollupRejectsAvg(t *testing.T) {
	db := workload.Star(workload.StarConfig{FactRows: 1000, DimRows: []int{10}, Seed: 5})
	if _, err := Materialize(db.Cat, db.Store, "avg_view",
		"SELECT s.k1 AS k1, s.qty AS qty, AVG(s.amount) AS a FROM sales s GROUP BY s.k1, s.qty", naive(db)); err != nil {
		t.Fatal(err)
	}
	q := buildQuery(t, db, "SELECT s.k1, AVG(s.amount) FROM sales s GROUP BY s.k1")
	if got := RewriteWithViews(q, db.Cat); len(got) != 0 {
		t.Errorf("AVG cannot roll up, got %d rewrites", len(got))
	}
}

func TestSelfJoinRejected(t *testing.T) {
	db := workload.EmpDept(workload.EmpDeptConfig{Emps: 100, Depts: 10})
	if _, err := Materialize(db.Cat, db.Store, "emp_all",
		"SELECT e.eid AS eid, e.did AS did FROM Emp e", naive(db)); err != nil {
		t.Fatal(err)
	}
	q := buildQuery(t, db, "SELECT e1.eid FROM Emp e1, Emp e2 WHERE e1.did = e2.did")
	if got := RewriteWithViews(q, db.Cat); len(got) != 0 {
		t.Errorf("self-join queries are out of scope, got %d", len(got))
	}
}

func TestExtraPredOnViewOutput(t *testing.T) {
	db := workload.EmpDept(workload.EmpDeptConfig{Emps: 500, Depts: 25})
	if _, err := Materialize(db.Cat, db.Store, "emp_slim",
		"SELECT e.eid AS eid, e.sal AS sal, e.did AS did FROM Emp e WHERE e.age < 40", naive(db)); err != nil {
		t.Fatal(err)
	}
	qs := "SELECT e.eid FROM Emp e WHERE e.age < 40 AND e.sal > 12000"
	q := buildQuery(t, db, qs)
	rewrites := RewriteWithViews(q, db.Cat)
	if len(rewrites) != 1 {
		t.Fatalf("expected 1 rewrite, got %d", len(rewrites))
	}
	want := runRows(t, db, buildQuery(t, db, qs))
	got := runRows(t, db, rewrites[0].Query)
	if strings.Join(got, ";") != strings.Join(want, ";") {
		t.Fatal("extra predicate over view output must survive the rewrite")
	}
}
