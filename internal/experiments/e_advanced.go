package experiments

import (
	"fmt"
	"math"

	"repro/internal/cascades"
	"repro/internal/cost"
	"repro/internal/logical"
	"repro/internal/matview"
	"repro/internal/parallel"
	"repro/internal/qgm"
	"repro/internal/reference"
	"repro/internal/stats"
	"repro/internal/systemr"
	"repro/internal/udp"
	"repro/internal/workload"
)

// E14Architectures compares the enumeration architectures of §6: Starburst's
// forward-chaining rewrite + bottom-up planning against Volcano/Cascades'
// single-phase goal-driven memo search, with System-R DP as the reference.
// Bushy System-R DP without Cartesian products searches the space Cascades'
// commutativity and associativity rules generate, through the same
// implementation layer and cost model, so its best cost must equal Cascades'.
func E14Architectures() Table {
	t := Table{
		ID:      "E14",
		Title:   "Enumeration architectures (§6.1 vs §6.2)",
		Claim:   "Cascades memoizes (group, property) tasks top-down; Starburst separates heuristic rewrite from cost-based planning",
		Headers: []string{"relations", "architecture", "plans costed", "rules fired", "memo hits", "best est cost", "identical"},
	}
	for _, n := range []int{3, 4, 5, 6} {
		sizes := make([]int, n)
		for i := range sizes {
			sizes[i] = 1000 * (1 + i%3)
		}
		db := workload.Chain(workload.ChainConfig{Tables: n, RowsPer: sizes, Seed: int64(n) * 7})
		db.Analyze(stats.AnalyzeOptions{})
		qs := workload.ChainQuery(n)

		// System-R DP, linear (the default) and bushy.
		q1 := mustBuild(db, qs)
		plan1, opt1 := optimize(db, q1, systemr.DefaultOptions())
		_, c1 := plan1.Estimate()
		t.Rows = append(t.Rows, []string{d(n), "system-r DP", d(opt1.Metrics.PlansCosted), "-", "-", f1(c1), "-"})
		qb := mustBuild(db, qs)
		bushy := systemr.DefaultOptions()
		bushy.Bushy = true
		planB, optB := optimize(db, qb, bushy)
		_, cb := planB.Estimate()
		t.Rows = append(t.Rows, []string{d(n), "system-r bushy DP", d(optB.Metrics.PlansCosted), "-", "-", f1(cb), "-"})

		// Starburst: rewrite engine + bottom-up planning.
		q2 := mustBuild(db, qs)
		sb := &qgm.Optimizer{
			Engine: qgm.DefaultEngine(),
			Plan:   systemr.New(stats.NewEstimator(q2.Meta), cost.DefaultModel(), systemr.DefaultOptions()),
		}
		plan2, st2, err := sb.Optimize(q2)
		if err != nil {
			panic(err)
		}
		_, c2 := plan2.Estimate()
		t.Rows = append(t.Rows, []string{
			d(n), "starburst", d(st2.Plan.PlansCosted), d(st2.Rewrite.TotalFired), "-", f1(c2), "-"})

		// Cascades.
		q3 := mustBuild(db, qs)
		co := cascades.New(stats.NewEstimator(q3.Meta), cost.DefaultModel(), cascades.DefaultOptions())
		plan3, err := co.Optimize(q3)
		if err != nil {
			panic(err)
		}
		_, c3 := plan3.Estimate()
		t.Rows = append(t.Rows, []string{
			d(n), "cascades", d(co.Metrics.PlansCosted), d(co.Metrics.RulesFired),
			d(co.Metrics.WinnerHits + co.Memo().DedupHits), f1(c3),
			fmt.Sprint(math.Abs(c3-cb) <= 1e-9*math.Max(c3, cb))})
	}
	// A multi-block query shows Starburst's rewrite phase actually firing.
	db := workload.EmpDept(workload.EmpDeptConfig{Emps: 2000, Depts: 60})
	db.Analyze(stats.AnalyzeOptions{})
	nested := buildRaw(db, `SELECT d.dname FROM Dept d WHERE EXISTS
		(SELECT 1 FROM Emp e WHERE e.did = d.did AND e.sal > 12000)`)
	sb2 := &qgm.Optimizer{
		Engine: qgm.DefaultEngine(),
		Plan:   systemr.New(stats.NewEstimator(nested.Meta), cost.DefaultModel(), systemr.DefaultOptions()),
	}
	planN, stN, err := sb2.Optimize(nested)
	if err != nil {
		panic(err)
	}
	_, cn := planN.Estimate()
	t.Rows = append(t.Rows, []string{
		"2+subq", "starburst", d(stN.Plan.PlansCosted), d(stN.Rewrite.TotalFired), "-", f1(cn), "-"})
	t.Notes = "all architectures share one cost model, one implementation layer and one executor; identical: Cascades' best estimated cost equals bushy System-R DP's (relative 1e-9), the two searching one plan space; the subquery row shows rewrite rules (unnesting) firing"
	return t
}

// E15ExpensivePredicates reproduces §7.2: rank ordering is optimal without
// joins; with joins the rank heuristic can lose, while treating the applied
// set as a physical property in DP is optimal.
func E15ExpensivePredicates() Table {
	t := Table{
		ID:      "E15",
		Title:   "Expensive user-defined predicates (§7.2, [29,30] vs [8])",
		Claim:   "pushdown is unsound for expensive predicates; rank order is optimal only without joins; DP with placement property is optimal",
		Headers: []string{"scenario", "pushdown cost", "rank cost", "optimal (DP) cost", "pushdown penalty"},
	}
	scenarios := []struct {
		name string
		pl   *udp.Pipeline
	}{
		{"cheap predicate", &udp.Pipeline{
			InputRows: 100000,
			Joins:     []udp.JoinStep{{Factor: 0.01, CostPerRow: 0.01}},
			Preds:     []udp.Predicate{{Name: "p", Cost: 0.001, Sel: 0.5}},
		}},
		{"expensive predicate, selective join", &udp.Pipeline{
			InputRows: 100000,
			Joins:     []udp.JoinStep{{Factor: 0.001, CostPerRow: 0.01}},
			Preds:     []udp.Predicate{{Name: "image-match", Cost: 50, Sel: 0.5}},
		}},
		{"two predicates, expanding then reducing join", &udp.Pipeline{
			InputRows: 10000,
			Joins: []udp.JoinStep{
				{Factor: 3.0, CostPerRow: 0.02},
				{Factor: 0.01, CostPerRow: 0.02},
			},
			Preds: []udp.Predicate{
				{Name: "cheap", Cost: 0.05, Sel: 0.3},
				{Name: "costly", Cost: 20, Sel: 0.6},
			},
		}},
	}
	for _, sc := range scenarios {
		push := sc.pl.Cost(sc.pl.PushdownPlacement())
		rank := sc.pl.Cost(sc.pl.RankPlacement())
		_, opt := sc.pl.OptimalPlacement()
		t.Rows = append(t.Rows, []string{
			sc.name, f1(push), f1(rank), f1(opt), fmt.Sprintf("%.1fx", push/opt),
		})
	}
	t.Notes = "for cheap predicates pushdown is fine; for expensive ones it pays the predicate on every pre-join row"
	return t
}

// E16MatViews reproduces §7.3: answering queries using materialized views,
// and the cost of optimizing rewrites separately versus together.
func E16MatViews() Table {
	t := Table{
		ID:      "E16",
		Title:   "Materialized views (§7.3)",
		Claim:   "substituting a view avoids recomputation; enumerating rewrites inside one optimization bounds the added effort",
		Headers: []string{"query", "base est cost", "view est cost", "improvement", "extra plans costed"},
	}
	db := workload.Star(workload.StarConfig{FactRows: 60000, DimRows: []int{50}, Seed: 16})
	db.Analyze(stats.AnalyzeOptions{})
	if _, err := matview.Materialize(db.Cat, db.Store, "sales_by_k1",
		"SELECT s.k1 AS k1, COUNT(*) AS cnt, SUM(s.amount) AS amt FROM sales s GROUP BY s.k1", reference.Compute(db.Cat, db.Store)); err != nil {
		panic(err)
	}
	if tab, ok := db.Store.Table("sales_by_k1"); ok {
		stats.Analyze(tab, stats.AnalyzeOptions{})
	}
	queries := []struct{ name, sql string }{
		{"exact", "SELECT s.k1, COUNT(*), SUM(s.amount) FROM sales s GROUP BY s.k1"},
		{"rollup-total", "SELECT COUNT(*), SUM(s.amount) FROM sales s GROUP BY s.k1"},
		{"unanswerable", "SELECT s.qty, SUM(s.amount) FROM sales s GROUP BY s.qty"},
	}
	for _, qc := range queries {
		q := mustBuild(db, qc.sql)
		basePlan, baseOpt := optimize(db, q, systemr.DefaultOptions())
		_, baseCost := basePlan.Estimate()

		best := baseCost
		extra := 0
		for _, rw := range matview.RewriteWithViews(q, db.Cat) {
			logical.PruneColumns(rw.Query)
			plan, opt := optimize(db, rw.Query, systemr.DefaultOptions())
			extra += opt.Metrics.PlansCosted
			if _, c := plan.Estimate(); c < best {
				best = c
			}
		}
		improvement := "-"
		if best < baseCost {
			improvement = fmt.Sprintf("%.1fx", baseCost/best)
		}
		_ = baseOpt
		t.Rows = append(t.Rows, []string{qc.name, f1(baseCost), f1(best), improvement, d(extra)})
	}
	t.Notes = "the unanswerable query pays no extra enumeration (no rewrite matches)"
	return t
}

// E17Parallel reproduces §7.1: response time scales with processors, total
// work does not shrink, and ignoring repartitioning cost in phase one (XPRS)
// can pick a plan that is worse once communication is expensive (Hasan).
func E17Parallel() Table {
	t := Table{
		ID:      "E17",
		Title:   "Two-phase parallel optimization (§7.1, XPRS vs Hasan)",
		Claim:   "parallelism reduces response time, not work; phase one must see communication costs when they matter",
		Headers: []string{"config", "strategy", "serial cost", "response time", "comm cost", "exchanged rows"},
	}
	db := workload.Star(workload.StarConfig{FactRows: 40000, DimRows: []int{40, 40}, Seed: 17})
	db.Analyze(stats.AnalyzeOptions{})
	q := mustBuild(db, workload.StarQuery(2, 5))
	estf := func() *stats.Estimator { return stats.NewEstimator(q.Meta) }

	for _, cfg := range []parallel.Config{
		{Degree: 8, CommCostPerRow: 0.0001},
		{Degree: 8, CommCostPerRow: 0.05},
	} {
		label := fmt.Sprintf("degree=%d comm=%.4f", cfg.Degree, cfg.CommCostPerRow)
		for _, strat := range []parallel.Strategy{parallel.XPRS, parallel.CommAware} {
			res, err := parallel.Optimize(q, estf, cost.DefaultModel(), cfg, strat)
			if err != nil {
				panic(err)
			}
			_, sc := res.Serial.Estimate()
			t.Rows = append(t.Rows, []string{
				label, strat.String(), f1(sc), f1(res.Parallel.ResponseTime),
				f1(res.Parallel.CommCost), f0(res.Parallel.ExchangedRows),
			})
		}
	}
	// Degree sweep with the XPRS plan.
	plan, _ := optimize(db, q, systemr.DefaultOptions())
	for _, degree := range []int{1, 2, 4, 8, 16} {
		par := parallel.Parallelize(plan, parallel.Config{Degree: degree, CommCostPerRow: 0.0005}, cost.DefaultModel())
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("sweep degree=%d", degree), "-", f1(par.TotalWork), f1(par.ResponseTime),
			f1(par.CommCost), f0(par.ExchangedRows),
		})
	}
	t.Notes = "comm-aware phase one matches XPRS under cheap communication and dominates under expensive communication"
	return t
}

// E18QueryGraph reproduces Figure 3: the query graph of the paper's Emp/Dept
// example, and shows how graph connectivity drives enumeration (Cartesian-
// product avoidance).
func E18QueryGraph() Table {
	t := Table{
		ID:      "E18",
		Title:   "Query graphs (Fig. 3) and connectivity-driven enumeration",
		Claim:   "the query graph captures join structure; disconnected subsets are skipped unless Cartesian products are enabled",
		Headers: []string{"query shape", "nodes", "edges", "local preds", "DP subsets (no CP)", "DP subsets (with CP)"},
	}
	db := workload.EmpDept(workload.EmpDeptConfig{Emps: 2000, Depts: 50})
	db.Analyze(stats.AnalyzeOptions{})
	// The Fig. 3 query: Emp ⋈ Dept plus a self-join through the manager.
	paperQ := `SELECT e.name FROM Emp e, Dept d, Emp e2
		WHERE e.did = d.did AND d.mgr = e2.eid AND e.sal > 5000`

	chain5 := workload.Chain(workload.ChainConfig{Tables: 5, RowsPer: []int{500, 500, 500, 500, 500}, Seed: 18})
	chain5.Analyze(stats.AnalyzeOptions{})
	star3 := workload.Star(workload.StarConfig{FactRows: 5000, DimRows: []int{20, 20, 20}, Seed: 18})
	star3.Analyze(stats.AnalyzeOptions{})

	cases := []struct {
		name string
		db   *workload.DB
		sql  string
	}{
		{"paper Fig.3 (Emp/Dept/Emp)", db, paperQ},
		{"chain-5", chain5, workload.ChainQuery(5)},
		{"star-3", star3, `SELECT sales.amount FROM sales, dim1, dim2, dim3
			WHERE sales.k1 = dim1.k AND sales.k2 = dim2.k AND sales.k3 = dim3.k`},
	}
	for _, c := range cases {
		q := mustBuild(c.db, c.sql)
		var g *logical.QueryGraph
		logical.VisitRel(q.Root, func(e logical.RelExpr) {
			if g != nil {
				return
			}
			if leaves, preds, ok := logical.ExtractJoinBlock(e); ok && len(leaves) > 1 {
				g = logical.BuildQueryGraph(leaves, preds)
			}
		})
		if g == nil {
			continue
		}
		local := 0
		for _, l := range g.Local {
			local += len(l)
		}
		_, noCP := optimize(c.db, mustBuild(c.db, c.sql), systemr.DefaultOptions())
		_, withCP := optimize(c.db, mustBuild(c.db, c.sql), systemr.Options{
			InterestingOrders: true, CartesianProducts: true, MaxRelations: 16})
		t.Rows = append(t.Rows, []string{
			c.name, d(len(g.Nodes)), d(len(g.Edges)), d(local),
			d(noCP.Metrics.PlansCosted), d(withCP.Metrics.PlansCosted),
		})
	}
	t.Notes = "plans costed (not subsets) shown: connectivity pruning shrinks the effective space most for chains"
	return t
}
