package systemr

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
	logical.PruneColumns(query)
	return query
}

func optimizer(q *logical.Query, opts Options) *Optimizer {
	return New(stats.NewEstimator(q.Meta), cost.DefaultModel(), opts)
}

// runBoth executes the optimized plan and the naive reference and compares
// multisets.
func verifyPlan(t *testing.T, db *workload.DB, q *logical.Query, plan physical.Plan) {
	t.Helper()
	ctx := exec.NewCtx(db.Store, q.Meta)
	got, err := exec.RunPlanQuery(plan, q, ctx)
	if err != nil {
		t.Fatalf("execute plan: %v\n%s", err, physical.Format(plan, q.Meta))
	}
	want, err := reference.New(db.Store, q.Meta).RunQuery(q)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	gs, ws := rowStrings(got), rowStrings(&exec.Result{Rows: want.Rows})
	if strings.Join(gs, ";") != strings.Join(ws, ";") {
		t.Fatalf("plan and reference disagree\nplan (%d rows): %.300v\nref  (%d rows): %.300v\n%s",
			len(gs), gs, len(ws), ws, physical.Format(plan, q.Meta))
	}
}

// rowStrings renders rows with floats rounded, so that plans whose summation
// order differs still compare equal.
func rowStrings(res *exec.Result) []string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		var sb strings.Builder
		sb.WriteByte('(')
		for j, d := range r {
			if j > 0 {
				sb.WriteString(", ")
			}
			if !d.IsNull() && d.Kind() == datum.KindFloat {
				fmt.Fprintf(&sb, "%.6g", d.Float())
			} else {
				sb.WriteString(d.String())
			}
		}
		sb.WriteByte(')')
		out[i] = sb.String()
	}
	sort.Strings(out)
	return out
}

func TestOptimizeSimpleFilterUsesIndex(t *testing.T) {
	db := workload.EmpDept(workload.EmpDeptConfig{Emps: 20000, Depts: 200})
	db.Analyze(stats.AnalyzeOptions{})
	q := buildQuery(t, db, "SELECT name FROM Emp WHERE eid = 17")
	o := optimizer(q, DefaultOptions())
	plan, err := o.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	hasIndexScan := false
	var walk func(p physical.Plan)
	walk = func(p physical.Plan) {
		if _, ok := p.(*physical.IndexScan); ok {
			hasIndexScan = true
		}
		for _, c := range physical.Children(p) {
			walk(c)
		}
	}
	walk(plan)
	if !hasIndexScan {
		t.Errorf("point lookup should use the index:\n%s", physical.Format(plan, q.Meta))
	}
	verifyPlan(t, db, q, plan)
}

func TestOptimizeUnselectiveUsesSeqScan(t *testing.T) {
	db := workload.EmpDept(workload.EmpDeptConfig{Emps: 20000, Depts: 200})
	db.Analyze(stats.AnalyzeOptions{})
	// did has a non-clustered index; an unselective range over it would pay
	// one random fetch per row, so the sequential scan must win.
	q := buildQuery(t, db, "SELECT name FROM Emp WHERE did >= 0")
	o := optimizer(q, DefaultOptions())
	plan, err := o.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rootScan(plan).(*physical.TableScan); !ok {
		t.Errorf("unselective predicate should sequential-scan:\n%s", physical.Format(plan, q.Meta))
	}
}

func rootScan(p physical.Plan) physical.Plan {
	for {
		ch := physical.Children(p)
		if len(ch) == 0 {
			return p
		}
		p = ch[0]
	}
}

func TestDPMatchesNaive(t *testing.T) {
	db := workload.Chain(workload.ChainConfig{Tables: 5, RowsPer: []int{2000, 500, 1000, 100, 400}, Seed: 3})
	db.Analyze(stats.AnalyzeOptions{})
	q := buildQuery(t, db, workload.ChainQuery(5))

	dpOpt := optimizer(q, DefaultOptions())
	dpPlan, err := dpOpt.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	nvOpt := optimizer(q, DefaultOptions())
	nvPlan, err := nvOpt.OptimizeNaive(q)
	if err != nil {
		t.Fatal(err)
	}
	_, dpCost := dpPlan.Estimate()
	_, nvCost := nvPlan.Estimate()
	// DP must find a plan at least as good as exhaustive left-deep search.
	if dpCost > nvCost*1.0001 {
		t.Errorf("DP cost %v worse than naive %v\nDP:\n%s\nNaive:\n%s",
			dpCost, nvCost, physical.Format(dpPlan, q.Meta), physical.Format(nvPlan, q.Meta))
	}
	// And do so while costing far fewer plans.
	if dpOpt.Metrics.PlansCosted >= nvOpt.Metrics.PlansCosted {
		t.Errorf("DP costed %d plans, naive %d — DP should be cheaper",
			dpOpt.Metrics.PlansCosted, nvOpt.Metrics.PlansCosted)
	}
	verifyPlan(t, db, q, dpPlan)
	verifyPlan(t, db, q, nvPlan)
}

func TestInterestingOrdersImprovePlans(t *testing.T) {
	// Three-way join on the same column: R1.fk = R2.pk and R2.pk = R3...
	// Use the chain where orderings on the shared columns matter.
	db := workload.Chain(workload.ChainConfig{Tables: 4, RowsPer: []int{20000, 20000, 20000, 20000}, Seed: 5})
	db.Analyze(stats.AnalyzeOptions{})
	q := buildQuery(t, db, workload.ChainQuery(4))

	withIO := optimizer(q, Options{InterestingOrders: true, MaxRelations: 16})
	planIO, err := withIO.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	withoutIO := optimizer(q, Options{InterestingOrders: false, MaxRelations: 16})
	planNoIO, err := withoutIO.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	_, cIO := planIO.Estimate()
	_, cNoIO := planNoIO.Estimate()
	if cIO > cNoIO*1.0001 {
		t.Errorf("interesting orders should never hurt: with=%v without=%v", cIO, cNoIO)
	}
	// More plans are kept with interesting orders on.
	if withIO.Metrics.EntriesKept <= withoutIO.Metrics.EntriesKept {
		t.Errorf("interesting orders should retain more DP entries: %d vs %d",
			withIO.Metrics.EntriesKept, withoutIO.Metrics.EntriesKept)
	}
}

func TestBushyNoWorseThanLinear(t *testing.T) {
	db := workload.Chain(workload.ChainConfig{Tables: 5, RowsPer: []int{3000, 50, 3000, 50, 3000}, Seed: 7})
	db.Analyze(stats.AnalyzeOptions{})
	q := buildQuery(t, db, workload.ChainQuery(5))

	lin := optimizer(q, DefaultOptions())
	linPlan, err := lin.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	bushy := optimizer(q, Options{Bushy: true, InterestingOrders: true, MaxRelations: 16})
	bushyPlan, err := bushy.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	_, cl := linPlan.Estimate()
	_, cb := bushyPlan.Estimate()
	if cb > cl*1.0001 {
		t.Errorf("bushy space includes linear; cost must not increase: bushy=%v linear=%v", cb, cl)
	}
	if bushy.Metrics.PlansCosted <= lin.Metrics.PlansCosted {
		t.Errorf("bushy enumeration should cost more plans: %d vs %d",
			bushy.Metrics.PlansCosted, lin.Metrics.PlansCosted)
	}
	verifyPlan(t, db, q, bushyPlan)
}

func TestCartesianProductHelpsStar(t *testing.T) {
	db := workload.Star(workload.StarConfig{FactRows: 20000, DimRows: []int{50, 50}, Seed: 11})
	db.Analyze(stats.AnalyzeOptions{})
	// Highly selective dimension filters: joining the dimensions first via a
	// Cartesian product, then one probe into the fact, can win.
	q := buildQuery(t, db, `SELECT sales.amount FROM sales, dim1, dim2
		WHERE sales.k1 = dim1.k AND sales.k2 = dim2.k
		AND dim1.filt < 1 AND dim2.filt < 1`)
	noCP := optimizer(q, Options{InterestingOrders: true, MaxRelations: 16})
	planNo, err := noCP.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	withCP := optimizer(q, Options{InterestingOrders: true, CartesianProducts: true, Bushy: true, MaxRelations: 16})
	planCP, err := withCP.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	_, cNo := planNo.Estimate()
	_, cCP := planCP.Estimate()
	if cCP > cNo*1.0001 {
		t.Errorf("expanded space must not be worse: with CP %v vs without %v", cCP, cNo)
	}
	verifyPlan(t, db, q, planCP)
	verifyPlan(t, db, q, planNo)
}

func TestOptimizeGroupByChoosesStreamWhenSorted(t *testing.T) {
	db := workload.EmpDept(workload.EmpDeptConfig{Emps: 20000, Depts: 100})
	db.Analyze(stats.AnalyzeOptions{})
	// Grouping on the clustered key: stream aggregation needs no sort.
	q := buildQuery(t, db, "SELECT eid, COUNT(*) FROM Emp GROUP BY eid")
	o := optimizer(q, DefaultOptions())
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
		t.Errorf("grouping on clustered key should stream:\n%s", physical.Format(plan, q.Meta))
	}
	verifyPlan(t, db, q, plan)
}

func TestOptimizeOuterAndSemiJoins(t *testing.T) {
	db := workload.EmpDept(workload.EmpDeptConfig{Emps: 3000, Depts: 50})
	db.Analyze(stats.AnalyzeOptions{})
	for _, qs := range []string{
		"SELECT e.name, d.dname FROM Emp e LEFT OUTER JOIN Dept d ON e.did = d.did AND d.budget > 500",
		"SELECT d.dname FROM Dept d WHERE EXISTS (SELECT 1 FROM Emp e WHERE e.did = d.did AND e.sal > 10000)",
	} {
		q := buildQuery(t, db, qs)
		// The EXISTS stays a subquery: its body is planned first, as the
		// engine does, and runs once per Dept row.
		err := logical.PlanSubqueries(q.Root, q.Meta, func(body *logical.Query) (logical.SubPlan, error) {
			return optimizer(body, DefaultOptions()).Optimize(body)
		})
		if err != nil {
			t.Fatalf("%s: %v", qs, err)
		}
		plan, err := optimizer(q, DefaultOptions()).Optimize(q)
		if err != nil {
			t.Fatalf("%s: %v", qs, err)
		}
		verifyPlan(t, db, q, plan)
	}
}

func TestOptimizeManyQueriesAgainstReference(t *testing.T) {
	db := workload.EmpDept(workload.EmpDeptConfig{Emps: 2000, Depts: 40})
	db.Analyze(stats.AnalyzeOptions{})
	queries := []string{
		"SELECT name FROM Emp WHERE sal > 10000 ORDER BY sal DESC LIMIT 10",
		"SELECT e.name, d.loc FROM Emp e, Dept d WHERE e.did = d.did AND d.loc = 'Denver'",
		"SELECT d.loc, COUNT(*), AVG(e.sal) FROM Emp e, Dept d WHERE e.did = d.did GROUP BY d.loc",
		"SELECT DISTINCT d.loc FROM Dept d",
		"SELECT e.name FROM Emp e, Dept d WHERE e.did = d.did AND d.budget > 900 AND e.age < 25",
		"SELECT e1.name FROM Emp e1, Emp e2 WHERE e1.did = e2.did AND e2.eid = 5",
		"SELECT COUNT(*) FROM Emp WHERE age BETWEEN 30 AND 40",
		"SELECT d.dname, SUM(e.sal) FROM Dept d LEFT OUTER JOIN Emp e ON d.did = e.did GROUP BY d.dname",
		// Two lower or two upper bounds on the clustered key: a range scan
		// seeks one and keeps the other as a residual filter.
		"SELECT name FROM Emp WHERE eid > 1990 AND eid > 100",
		"SELECT name FROM Emp WHERE eid > 100 AND eid > 1990",
		"SELECT name FROM Emp WHERE eid > 1990 AND eid >= 1990",
		"SELECT name FROM Emp WHERE eid >= 1990 AND eid > 1990",
		"SELECT name FROM Emp WHERE eid < 10 AND eid < 500",
		"SELECT name FROM Emp WHERE eid <= 500 AND eid < 10 AND eid > 3",
	}
	for _, qs := range queries {
		q := buildQuery(t, db, qs)
		// The EXISTS stays a subquery: its body is planned first, as the
		// engine does, and runs once per Dept row.
		err := logical.PlanSubqueries(q.Root, q.Meta, func(body *logical.Query) (logical.SubPlan, error) {
			return optimizer(body, DefaultOptions()).Optimize(body)
		})
		if err != nil {
			t.Fatalf("%s: %v", qs, err)
		}
		plan, err := optimizer(q, DefaultOptions()).Optimize(q)
		if err != nil {
			t.Fatalf("%s: %v", qs, err)
		}
		verifyPlan(t, db, q, plan)
	}
}

func TestGreedyFallbackLargeJoin(t *testing.T) {
	db := workload.Chain(workload.ChainConfig{Tables: 8, RowsPer: []int{200, 200, 200, 200, 200, 200, 200, 200}, Seed: 13})
	db.Analyze(stats.AnalyzeOptions{})
	q := buildQuery(t, db, workload.ChainQuery(8))
	o := optimizer(q, Options{InterestingOrders: true, MaxRelations: 4}) // force greedy
	plan, err := o.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	verifyPlan(t, db, q, plan)
}

func TestDisabledAlgorithms(t *testing.T) {
	db := workload.EmpDept(workload.EmpDeptConfig{Emps: 2000, Depts: 40})
	db.Analyze(stats.AnalyzeOptions{})
	q := buildQuery(t, db, "SELECT e.name FROM Emp e, Dept d WHERE e.did = d.did")
	o := optimizer(q, Options{
		InterestingOrders: true, MaxRelations: 16,
		DisableHashJoin: true, DisableMergeJoin: true, DisableINLJoin: true,
	})
	plan, err := o.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	var walk func(p physical.Plan)
	walk = func(p physical.Plan) {
		switch p.(type) {
		case *physical.HashJoin, *physical.MergeJoin, *physical.INLJoin:
			t.Errorf("disabled algorithm appeared: %T", p)
		}
		for _, c := range physical.Children(p) {
			walk(c)
		}
	}
	walk(plan)
	verifyPlan(t, db, q, plan)
}

func TestMetricsGrowth(t *testing.T) {
	db := workload.Chain(workload.ChainConfig{Tables: 6, RowsPer: []int{100, 100, 100, 100, 100, 100}, Seed: 17})
	db.Analyze(stats.AnalyzeOptions{})
	var prev int
	for n := 3; n <= 6; n++ {
		q := buildQuery(t, db, workload.ChainQuery(n))
		o := optimizer(q, DefaultOptions())
		if _, err := o.Optimize(q); err != nil {
			t.Fatal(err)
		}
		if o.Metrics.PlansCosted <= prev {
			t.Errorf("n=%d: plans costed %d should grow with n (prev %d)", n, o.Metrics.PlansCosted, prev)
		}
		prev = o.Metrics.PlansCosted
	}
}

func TestOrderByExploitsRetainedOrder(t *testing.T) {
	db := workload.Chain(workload.ChainConfig{Tables: 2, RowsPer: []int{30000, 30000}, Seed: 33})
	db.Analyze(stats.AnalyzeOptions{})
	// ORDER BY on the join column: a merge-join (or ordered index) plan
	// provides the order for free; the final pick must avoid a root Sort
	// when that is cheaper overall.
	q := buildQuery(t, db, "SELECT r1.pk, r2.payload FROM r1, r2 WHERE r1.fk = r2.pk ORDER BY r2.pk")
	o := optimizer(q, Options{InterestingOrders: true, MaxRelations: 16,
		DisableHashJoin: true, DisableINLJoin: true})
	plan, err := o.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, isSort := plan.(*physical.Sort); isSort {
		t.Errorf("root sort should be avoided by picking an ordered plan:\n%s",
			physical.Format(plan, q.Meta))
	}
	if !q.OrderBy.SatisfiedBy(plan.Ordering()) {
		t.Errorf("plan must still provide the required order:\n%s", physical.Format(plan, q.Meta))
	}
	// Execute the ordered plan (cheap: merge join); the naive reference
	// would be quadratic at this size and is covered by equivalence tests.
	ctx := exec.NewCtx(db.Store, q.Meta)
	res, err := exec.RunPlanQuery(plan, q, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 30000 {
		t.Errorf("FK join should return one row per r1 tuple, got %d", len(res.Rows))
	}
}

// TestOrderByNullableIndexKeepsNulls: a full scan of an index skips NULL
// keys, so it may deliver an ORDER BY on its column only when the column is
// NOT NULL or no row holding NULL there reaches the result. Here n is
// nullable and only the ORDER BY names it: every row must come back.
func TestOrderByNullableIndexKeepsNulls(t *testing.T) {
	db := workload.NewDB()
	st := db.MustAddTable(&catalog.Table{
		Name: "t", PrimaryKey: []int{0},
		Cols: []catalog.Column{{Name: "pk", Kind: datum.KindInt, NotNull: true}, {Name: "k", Kind: datum.KindInt},
			{Name: "n", Kind: datum.KindInt}},
		Indexes: []*catalog.Index{{Name: "t_pk", Cols: []int{0}, Unique: true, Clustered: true},
			{Name: "t_n", Cols: []int{2}}},
	})
	for i := 0; i < 1000; i++ {
		n := datum.NewInt(int64(i % 100))
		if i%7 == 0 {
			n = datum.Null
		}
		if err := st.Insert(datum.Row{datum.NewInt(int64(i)), datum.NewInt(int64(i * 7 % 1000)), n}); err != nil {
			t.Fatal(err)
		}
	}
	db.Analyze(stats.AnalyzeOptions{})
	for _, qs := range []string{
		"SELECT a.pk, a.n FROM t a, t b WHERE a.k = b.pk ORDER BY a.n",
		"SELECT a.pk, a.n, b.n FROM t a, t b WHERE a.k = b.pk AND b.pk < 200 ORDER BY a.n",
	} {
		q := buildQuery(t, db, qs)
		plan, err := optimizer(q, DefaultOptions()).Optimize(q)
		if err != nil {
			t.Fatalf("%s: %v", qs, err)
		}
		verifyPlan(t, db, q, plan)
	}
}
