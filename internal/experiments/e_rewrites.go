package experiments

import (
	"fmt"

	"repro/internal/catalog"
	"repro/internal/logical"
	"repro/internal/rewrite"
	"repro/internal/stats"
	"repro/internal/systemr"
	"repro/internal/workload"
)

// E6GroupByPushdown reproduces Figure 4 / §4.1.3: evaluating a group-by
// before the join can shrink the join input dramatically; the sweep varies
// the data-reduction factor (fact rows per group).
func E6GroupByPushdown() Table {
	t := Table{
		ID:      "E6",
		Title:   "Group-by pushdown / eager aggregation (§4.1.3, Fig. 4)",
		Claim:   "performing the group-by early reduces join input; the benefit scales with the reduction factor",
		Headers: []string{"fact rows", "groups", "plain rows processed", "eager rows processed", "speedup"},
	}
	for _, factRows := range []int{5000, 20000, 50000} {
		for _, dimRows := range []int{10, 100} {
			db := workload.Star(workload.StarConfig{FactRows: factRows, DimRows: []int{dimRows}, Seed: 6})
			db.Analyze(stats.AnalyzeOptions{})
			qs := `SELECT dim1.attr, SUM(sales.qty), COUNT(*) FROM sales, dim1
				WHERE sales.k1 = dim1.k GROUP BY dim1.attr`
			plain := mustBuild(db, qs)
			_, plainCounters := runNaive(db, plain)

			eager := mustBuild(db, qs)
			rewrite.PushDownGroupBy(eager)
			_, eagerCounters := runNaive(db, eager)

			t.Rows = append(t.Rows, []string{
				d(factRows), d(dimRows),
				d64(plainCounters.RowsProcessed), d64(eagerCounters.RowsProcessed),
				fmt.Sprintf("%.1fx", float64(plainCounters.RowsProcessed)/float64(eagerCounters.RowsProcessed)),
			})
		}
	}
	t.Notes = "speedup grows with rows-per-group: the aggregation's data-reduction effect (paper: 'significant reduction in the number of tuples')"
	return t
}

// E7ViewMerging reproduces §4.2.1: unfolding a two-table SPJ view into the
// parent block turns a 2-relation join into a 3-relation one, letting the
// optimizer start from the selective outer table instead of materializing
// the whole view.
func E7ViewMerging() Table {
	db := workload.Chain(workload.ChainConfig{Tables: 3, RowsPer: []int{20000, 20000, 20000}, Seed: 7})
	db.Analyze(stats.AnalyzeOptions{})
	if err := db.Cat.AddView(&catalog.View{Name: "v23",
		SQL: "SELECT r2.pk AS pk, r2.payload AS p2, r3.payload AS p3 FROM r2, r3 WHERE r2.fk = r3.pk"}); err != nil {
		panic(err)
	}
	qs := "SELECT v.p2 FROM r1, v23 v WHERE r1.fk = v.pk AND r1.payload < 10"

	// Unmerged: the view stays a nested block (no project/select merging),
	// forcing the optimizer to treat it as an opaque leaf.
	unmerged := buildRaw(db, qs)
	logical.NormalizeQuery(unmerged, logical.NormalizeOptions{FoldConstants: true})
	planU, optU := optimize(db, unmerged, systemr.DefaultOptions())
	_, cu := planU.Estimate()
	_, countersU := runPlan(db, unmerged, planU)

	// Merged: full normalization collapses the view into the parent block.
	merged := mustBuild(db, qs)
	planM, optM := optimize(db, merged, systemr.DefaultOptions())
	_, cm := planM.Estimate()
	_, countersM := runPlan(db, merged, planM)

	return Table{
		ID:      "E7",
		Title:   "View merging (§4.2.1)",
		Claim:   "unfolding view definitions exposes join reordering unavailable to nested evaluation",
		Headers: []string{"form", "block relations", "plans costed", "est cost", "rows processed", "index seeks"},
		Rows: [][]string{
			{"unmerged (opaque view)", d(blockSize(unmerged)), d(optU.Metrics.PlansCosted), f1(cu),
				d64(countersU.RowsProcessed), d64(countersU.IndexSeeks)},
			{"merged (unfolded)", d(blockSize(merged)), d(optM.Metrics.PlansCosted), f1(cm),
				d64(countersM.RowsProcessed), d64(countersM.IndexSeeks)},
		},
		Notes: "merged: the selective r1 filter drives index joins into r2 and r3; unmerged: the full r2⋈r3 view is computed first",
	}
}

func blockSize(q *logical.Query) int {
	best := 1
	logical.VisitRel(q.Root, func(e logical.RelExpr) {
		if leaves, _, ok := logical.ExtractJoinBlock(e); ok {
			scans := 0
			for _, l := range leaves {
				switch t := l.(type) {
				case *logical.Scan:
					scans++
				case *logical.Select:
					if _, isScan := t.Input.(*logical.Scan); isScan {
						scans++
					}
				}
			}
			if scans > best {
				best = scans
			}
		}
	})
	return best
}

// E8Unnesting reproduces §4.2.2: merging correlated nested subqueries into
// joins beats tuple-iteration execution, and the outerjoin form preserves
// the COUNT-over-empty-group semantics.
func E8Unnesting() Table {
	t := Table{
		ID:      "E8",
		Title:   "Merging nested subqueries (§4.2.2, Kim/Dayal)",
		Claim:   "unnesting replaces per-tuple subquery evaluation with set-oriented joins; COUNT needs the outerjoin form",
		Headers: []string{"emps", "query", "nested: subq evals", "rows processed", "unnested: rows processed", "speedup"},
	}
	for _, emps := range []int{1000, 4000, 16000} {
		db := workload.EmpDept(workload.EmpDeptConfig{Emps: emps, Depts: 100})
		db.Analyze(stats.AnalyzeOptions{})
		queries := []struct {
			name string
			sql  string
		}{
			{"EXISTS", `SELECT d.dname FROM Dept d WHERE EXISTS (SELECT 1 FROM Emp e WHERE e.did = d.did AND e.sal > 15000)`},
			{"corr IN", `SELECT e.name FROM Emp e WHERE e.did IN (SELECT d.did FROM Dept d WHERE d.loc = 'Denver' AND e.age < 30)`},
			{"COUNT agg", `SELECT d.dname FROM Dept d WHERE d.num_machines >= (SELECT COUNT(*) FROM Emp e WHERE e.did = d.did)`},
		}
		for _, qc := range queries {
			nested := mustBuild(db, qc.sql)
			_, nc := runNaive(db, nested)

			flat := mustBuild(db, qc.sql)
			rewrite.UnnestSubqueries(flat)
			logical.NormalizeQuery(flat, logical.DefaultNormalize())
			planF, _ := optimize(db, flat, systemr.DefaultOptions())
			_, fc := runPlan(db, flat, planF)

			t.Rows = append(t.Rows, []string{
				d(emps), qc.name, d64(nc.SubqueryEvals), d64(nc.RowsProcessed),
				d64(fc.RowsProcessed),
				fmt.Sprintf("%.0fx", float64(nc.RowsProcessed)/float64(max64(fc.RowsProcessed, 1))),
			})
		}
	}
	t.Notes = "the nested form evaluates the inner block once per outer tuple; the merged form is one (semi/outer) join"
	return t
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// E9MagicSets reproduces §4.3: passing the set of relevant keys into a view
// restricts the view's computation. The measured quantity is the paper's:
// rows flowing into the view's aggregation and groups it computes. The
// PartialResult tradeoff appears as extra work outside the view.
func E9MagicSets() Table {
	t := Table{
		ID:      "E9",
		Title:   "Magic / semijoin information passing (§4.3)",
		Claim:   "restricting a view to keys the outer query can use avoids redundant computation in the view",
		Headers: []string{"emps", "selectivity", "plain: rows aggregated", "groups", "magic: rows aggregated", "groups", "filter-side extra rows"},
	}
	for _, emps := range []int{4000, 12000} {
		for _, ageLimit := range []int{22, 35, 60} {
			db := workload.EmpDept(workload.EmpDeptConfig{Emps: emps, Depts: 150})
			db.Analyze(stats.AnalyzeOptions{})
			if err := db.Cat.AddView(&catalog.View{Name: "DepAvgSal",
				SQL: "SELECT e.did AS did, AVG(e.sal) AS avgsal FROM Emp e GROUP BY e.did"}); err != nil {
				panic(err)
			}
			qs := fmt.Sprintf(`SELECT e.eid FROM Emp e, Dept d, DepAvgSal v
				WHERE e.did = d.did AND e.did = v.did
				AND e.age < %d AND d.budget > 800 AND e.sal > v.avgsal`, ageLimit)

			plain := mustBuild(db, qs)
			pIn, pGroups := viewAggWork(db, plain)

			magic := mustBuild(db, qs)
			st := rewrite.ApplyMagic(magic)
			if st.ViewsRestricted != 1 {
				panic("E9: magic did not apply")
			}
			logical.NormalizeQuery(magic, logical.DefaultNormalize())
			mIn, mGroups := viewAggWork(db, magic)

			t.Rows = append(t.Rows, []string{
				d(emps), fmt.Sprintf("age<%d", ageLimit),
				f0(pIn), f0(pGroups), f0(mIn), f0(mGroups),
				f0(pIn), // PartialResult re-scans roughly the plain view input
			})
		}
	}
	t.Notes = "magic aggregates only groups the outer query can use; the paper's tradeoff is the cost of computing the Filter view"
	return t
}

// viewAggWork finds the view's GroupBy in the query and measures the rows
// entering it and the groups it produces.
func viewAggWork(db *workload.DB, q *logical.Query) (inRows, groups float64) {
	var gb *logical.GroupBy
	logical.VisitRel(q.Root, func(e logical.RelExpr) {
		if g, ok := e.(*logical.GroupBy); ok && len(g.Aggs) > 0 {
			gb = g
		}
	})
	if gb == nil {
		return 0, 0
	}
	inQ := &logical.Query{Meta: q.Meta, Root: gb.Input, ResultCols: gb.Input.OutputCols().Ordered()}
	inRes, _ := runNaive(db, inQ)
	outQ := &logical.Query{Meta: q.Meta, Root: gb, ResultCols: gb.OutputCols().Ordered()}
	outRes, _ := runNaive(db, outQ)
	return float64(len(inRes.Rows)), float64(len(outRes.Rows))
}
