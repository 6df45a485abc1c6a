package cascades

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/datum"
	"repro/internal/exec"
	"repro/internal/logical"
	"repro/internal/physical"
	"repro/internal/reference"
	"repro/internal/sql"
	"repro/internal/stats"
	"repro/internal/workload"
)

func buildQuery(t testing.TB, db *workload.DB, q string) *logical.Query {
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
	logical.PruneColumns(query)
	return query
}

func rowStrings(res *exec.Result) []string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		var sb strings.Builder
		for j, d := range r {
			if j > 0 {
				sb.WriteString("|")
			}
			if !d.IsNull() && d.Kind() == datum.KindFloat {
				fmt.Fprintf(&sb, "%.6g", d.Float())
			} else {
				sb.WriteString(d.String())
			}
		}
		out[i] = sb.String()
	}
	sort.Strings(out)
	return out
}

func verifyPlan(t *testing.T, db *workload.DB, q *logical.Query, plan physical.Plan) {
	t.Helper()
	ctx := exec.NewCtx(db.Store, q.Meta)
	got, err := exec.RunPlanQuery(plan, q, ctx)
	if err != nil {
		t.Fatalf("execute: %v\n%s", err, physical.Format(plan, q.Meta))
	}
	want, err := reference.New(db.Store, q.Meta).RunQuery(q)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	g, w := rowStrings(got), rowStrings(&exec.Result{Rows: want.Rows})
	if strings.Join(g, ";") != strings.Join(w, ";") {
		t.Fatalf("results disagree\nplan: %.300v\nref:  %.300v\n%s", g, w, physical.Format(plan, q.Meta))
	}
}

func TestCascadesBasicQueries(t *testing.T) {
	db := workload.EmpDept(workload.EmpDeptConfig{Emps: 2000, Depts: 40})
	db.Analyze(stats.AnalyzeOptions{})
	queries := []string{
		"SELECT name FROM Emp WHERE eid = 7",
		"SELECT name FROM Emp WHERE sal > 10000 ORDER BY sal DESC LIMIT 5",
		"SELECT e.name, d.dname FROM Emp e, Dept d WHERE e.did = d.did AND d.loc = 'Denver'",
		"SELECT d.loc, COUNT(*) FROM Emp e, Dept d WHERE e.did = d.did GROUP BY d.loc",
		"SELECT DISTINCT loc FROM Dept",
		"SELECT e1.name FROM Emp e1, Emp e2 WHERE e1.did = e2.did AND e2.eid = 3",
		"SELECT COUNT(*) FROM Emp",
	}
	for _, qs := range queries {
		q := buildQuery(t, db, qs)
		o := New(stats.NewEstimator(q.Meta), cost.DefaultModel(), DefaultOptions())
		plan, err := o.Optimize(q)
		if err != nil {
			t.Fatalf("%s: %v", qs, err)
		}
		verifyPlan(t, db, q, plan)
	}
}

func TestCascadesExploresJoinOrders(t *testing.T) {
	db := workload.Chain(workload.ChainConfig{Tables: 4, RowsPer: []int{2000, 100, 1000, 50}, Seed: 3})
	db.Analyze(stats.AnalyzeOptions{})
	q := buildQuery(t, db, workload.ChainQuery(4))
	o := New(stats.NewEstimator(q.Meta), cost.DefaultModel(), DefaultOptions())
	plan, err := o.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	if o.Metrics.RulesFired == 0 {
		t.Error("exploration should fire transformation rules")
	}
	if o.memo.DedupHits == 0 {
		t.Error("memoization should deduplicate re-derived expressions")
	}
	verifyPlan(t, db, q, plan)
}

// TestCascadesMatchesSystemRPlanQuality: bushy System-R DP without Cartesian
// products searches the space commutativity and associativity generate, through
// the same implementation layer, so the two optima are equal.
func TestCascadesMatchesSystemRPlanQuality(t *testing.T) {
	db := workload.Chain(workload.ChainConfig{Tables: 5, RowsPer: []int{3000, 400, 1500, 100, 600}, Seed: 5})
	db.Analyze(stats.AnalyzeOptions{})
	q := buildQuery(t, db, workload.ChainQuery(5))
	cPlan, _ := bothOptima(t, q, workload.ChainQuery(5))
	verifyPlan(t, db, q, cPlan)
}

func TestCascadesPruningReducesWork(t *testing.T) {
	db := workload.Chain(workload.ChainConfig{Tables: 5, RowsPer: []int{1000, 1000, 1000, 1000, 1000}, Seed: 7})
	db.Analyze(stats.AnalyzeOptions{})
	q := buildQuery(t, db, workload.ChainQuery(5))

	pruned := New(stats.NewEstimator(q.Meta), cost.DefaultModel(), Options{Pruning: true, MaxExprs: 200000})
	if _, err := pruned.Optimize(q); err != nil {
		t.Fatal(err)
	}
	full := New(stats.NewEstimator(q.Meta), cost.DefaultModel(), Options{Pruning: false, MaxExprs: 200000})
	if _, err := full.Optimize(q); err != nil {
		t.Fatal(err)
	}
	if pruned.Metrics.PlansCosted > full.Metrics.PlansCosted {
		t.Errorf("pruning should not increase plans costed: %d vs %d",
			pruned.Metrics.PlansCosted, full.Metrics.PlansCosted)
	}
}

func TestCascadesMemoBudget(t *testing.T) {
	db := workload.Chain(workload.ChainConfig{Tables: 6, RowsPer: []int{100, 100, 100, 100, 100, 100}, Seed: 9})
	db.Analyze(stats.AnalyzeOptions{})
	q := buildQuery(t, db, workload.ChainQuery(6))
	o := New(stats.NewEstimator(q.Meta), cost.DefaultModel(), Options{Pruning: true, MaxExprs: 40})
	plan, err := o.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	// Budget-capped exploration must still produce a correct plan.
	verifyPlan(t, db, q, plan)
	if o.memo.NumExprs() > 200 {
		t.Errorf("memo budget ignored: %d exprs", o.memo.NumExprs())
	}
}

func TestCascadesOuterAndAggregates(t *testing.T) {
	db := workload.EmpDept(workload.EmpDeptConfig{Emps: 1500, Depts: 30})
	db.Analyze(stats.AnalyzeOptions{})
	for _, qs := range []string{
		"SELECT d.dname, COUNT(*) FROM Dept d LEFT OUTER JOIN Emp e ON d.did = e.did GROUP BY d.dname",
		"SELECT did, AVG(sal) FROM Emp GROUP BY did ORDER BY did",
	} {
		q := buildQuery(t, db, qs)
		o := New(stats.NewEstimator(q.Meta), cost.DefaultModel(), DefaultOptions())
		plan, err := o.Optimize(q)
		if err != nil {
			t.Fatalf("%s: %v", qs, err)
		}
		verifyPlan(t, db, q, plan)
	}
}

func TestMemoDedup(t *testing.T) {
	db := workload.EmpDept(workload.EmpDeptConfig{Emps: 100, Depts: 10})
	db.Analyze(stats.AnalyzeOptions{})
	q := buildQuery(t, db, "SELECT e.name FROM Emp e, Dept d WHERE e.did = d.did")
	m := NewMemo()
	g1, err := m.Build(q.Root)
	if err != nil {
		t.Fatal(err)
	}
	n := len(m.groups)
	g2, err := m.Build(q.Root)
	if err != nil {
		t.Fatal(err)
	}
	if g1 != g2 || len(m.groups) != n {
		t.Error("identical trees must intern to the same groups")
	}
	if m.DedupHits == 0 {
		t.Error("dedup hits should be counted")
	}
}

func TestCascadesStreamGroupByOnIndex(t *testing.T) {
	db := workload.EmpDept(workload.EmpDeptConfig{Emps: 5000, Depts: 50})
	db.Analyze(stats.AnalyzeOptions{})
	q := buildQuery(t, db, "SELECT eid, COUNT(*) FROM Emp GROUP BY eid")
	o := New(stats.NewEstimator(q.Meta), cost.DefaultModel(), DefaultOptions())
	plan, err := o.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	var walk func(p physical.Plan)
	walk = func(p physical.Plan) {
		if _, ok := p.(*physical.StreamGroupBy); ok {
			found = true
		}
		for _, c := range physical.Children(p) {
			walk(c)
		}
	}
	walk(plan)
	if !found {
		t.Errorf("grouping on the clustered key should stream:\n%s", physical.Format(plan, q.Meta))
	}
}

// planNodes returns every node of the plan, root first.
func planNodes(p physical.Plan) []physical.Plan {
	out := []physical.Plan{p}
	for _, c := range physical.Children(p) {
		out = append(out, planNodes(c)...)
	}
	return out
}

// TestCascadesRangeIndexScan: a selective BETWEEN on the clustered key is
// answered by a range index scan, as System-R's access-path selection does.
func TestCascadesRangeIndexScan(t *testing.T) {
	db := workload.EmpDept(workload.EmpDeptConfig{Emps: 20000, Depts: 200})
	db.Analyze(stats.AnalyzeOptions{})
	q := buildQuery(t, db, "SELECT name FROM Emp WHERE eid BETWEEN 100 AND 140")
	plan, err := New(stats.NewEstimator(q.Meta), cost.DefaultModel(), DefaultOptions()).Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, n := range planNodes(plan) {
		if ix, ok := n.(*physical.IndexScan); ok && !ix.Lo.IsNull() && !ix.Hi.IsNull() {
			found = true
		}
	}
	if !found {
		t.Errorf("a selective range on the clustered key should range-scan the index:\n%s", physical.Format(plan, q.Meta))
	}
	verifyPlan(t, db, q, plan)

	// Several bounds on one side of the index column: the scan takes one of
	// them and the others stay residual filters, in either order.
	for _, text := range []string{
		"SELECT name FROM Emp WHERE eid > 19990 AND eid > 100",
		"SELECT name FROM Emp WHERE eid > 100 AND eid > 19990",
		"SELECT name FROM Emp WHERE eid > 19990 AND eid >= 19990",
		"SELECT name FROM Emp WHERE eid >= 19990 AND eid > 19990",
		"SELECT name FROM Emp WHERE eid < 10 AND eid < 500",
		"SELECT name FROM Emp WHERE eid <= 500 AND eid < 10 AND eid > 3",
	} {
		q := buildQuery(t, db, text)
		plan, err := New(stats.NewEstimator(q.Meta), cost.DefaultModel(), DefaultOptions()).Optimize(q)
		if err != nil {
			t.Fatal(err)
		}
		verifyPlan(t, db, q, plan)
	}
}

// orderDB is one table t(pk, k, n, v) of 5000 rows: a clustered primary
// key, a NOT NULL unique k and a nullable n (every 7th row NULL), each with a
// secondary index.
func orderDB() *workload.DB {
	db := workload.NewDB()
	st := db.MustAddTable(&catalog.Table{
		Name: "t", PrimaryKey: []int{0},
		Cols: []catalog.Column{{Name: "pk", Kind: datum.KindInt, NotNull: true}, {Name: "k", Kind: datum.KindInt, NotNull: true},
			{Name: "n", Kind: datum.KindInt}, {Name: "v", Kind: datum.KindInt}},
		Indexes: []*catalog.Index{{Name: "t_pk", Cols: []int{0}, Unique: true, Clustered: true},
			{Name: "t_k", Cols: []int{1}, Unique: true}, {Name: "t_n", Cols: []int{2}}},
	})
	for i := 0; i < 5000; i++ {
		n := datum.NewInt(int64(i % 100))
		if i%7 == 0 {
			n = datum.Null
		}
		if err := st.Insert(datum.Row{datum.NewInt(int64(i)), datum.NewInt(int64(i * 7919 % 5000)), n, datum.NewInt(int64(i % 50))}); err != nil {
			panic(err)
		}
	}
	db.Analyze(stats.AnalyzeOptions{})
	return db
}

// TestCascadesOrderedIndexScan: ORDER BY an indexed NOT NULL column under a
// filter the index does not answer is delivered by a full scan of that
// index — no Sort. A full scan of an index on a nullable column would skip
// the NULL keys, so ordering by one keeps every row.
func TestCascadesOrderedIndexScan(t *testing.T) {
	db := orderDB()
	q := buildQuery(t, db, "SELECT pk, k FROM t WHERE v > 10 ORDER BY k LIMIT 10")
	plan, err := New(stats.NewEstimator(q.Meta), cost.DefaultModel(), DefaultOptions()).Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	ordered := false
	for _, n := range planNodes(plan) {
		switch n := n.(type) {
		case *physical.Sort:
			t.Errorf("the index delivers the order; no Sort expected:\n%s", physical.Format(plan, q.Meta))
		case *physical.IndexScan:
			ordered = ordered || n.Index.Name == "t_k"
		}
	}
	if !ordered {
		t.Errorf("ORDER BY k should scan t_k:\n%s", physical.Format(plan, q.Meta))
	}
	verifyPlan(t, db, q, plan)

	q = buildQuery(t, db, "SELECT pk, n FROM t WHERE v > 10 ORDER BY n")
	if plan, err = New(stats.NewEstimator(q.Meta), cost.DefaultModel(), DefaultOptions()).Optimize(q); err != nil {
		t.Fatal(err)
	}
	verifyPlan(t, db, q, plan)
}
