package parallel

import (
	"testing"

	"repro/internal/cost"
	"repro/internal/logical"
	"repro/internal/physical"
	"repro/internal/sql"
	"repro/internal/stats"
	"repro/internal/systemr"
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

func serialPlan(t *testing.T, db *workload.DB, qs string) (*logical.Query, physical.Plan) {
	t.Helper()
	q := buildQuery(t, db, qs)
	opt := systemr.New(stats.NewEstimator(q.Meta), cost.DefaultModel(), systemr.DefaultOptions())
	plan, err := opt.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	return q, plan
}

func TestParallelizeReducesResponseTime(t *testing.T) {
	db := workload.Star(workload.StarConfig{FactRows: 30000, DimRows: []int{100, 100}, Seed: 3})
	db.Analyze(stats.AnalyzeOptions{})
	_, plan := serialPlan(t, db, workload.StarQuery(2, 0))
	serialCost := 0.0
	if _, c := plan.Estimate(); true {
		serialCost = c
	}
	par := Parallelize(plan, Config{Degree: 8, CommCostPerRow: 0.0001}, cost.DefaultModel())
	if par.ResponseTime >= serialCost {
		t.Errorf("8-way parallelism should beat serial: response %v vs serial %v", par.ResponseTime, serialCost)
	}
	if par.TotalWork < serialCost*0.5 {
		t.Errorf("total work should not shrink dramatically: %v vs %v", par.TotalWork, serialCost)
	}
}

func TestParallelismIncreasesTotalWork(t *testing.T) {
	// §7.1 footnote: parallel execution may increase total work (comm). Emp
	// stays below storage.DefaultSegmentRows: once it seals, its encoded pages
	// make index nested-loop the serial plan, which repartitions nothing.
	db := workload.EmpDept(workload.EmpDeptConfig{Emps: 4000, Depts: 100})
	db.Analyze(stats.AnalyzeOptions{})
	_, plan := serialPlan(t, db, "SELECT e.name, d.dname FROM Emp e, Dept d WHERE e.did = d.did")
	par := Parallelize(plan, Config{Degree: 4, CommCostPerRow: 0.01}, cost.DefaultModel())
	_, serialCost := plan.Estimate()
	if par.TotalWork+par.CommCost <= serialCost {
		t.Errorf("work + comm (%v) should exceed serial work (%v)", par.TotalWork+par.CommCost, serialCost)
	}
	if par.CommCost <= 0 || par.ExchangedRows <= 0 {
		t.Error("repartitioning should cost something")
	}
}

func TestExchangeInsertedForGroupBy(t *testing.T) {
	db := workload.EmpDept(workload.EmpDeptConfig{Emps: 3000, Depts: 60})
	db.Analyze(stats.AnalyzeOptions{})
	_, plan := serialPlan(t, db, "SELECT did, COUNT(*) FROM Emp GROUP BY did")
	par := Parallelize(plan, Config{Degree: 4, CommCostPerRow: 0.001}, cost.DefaultModel())
	if par.ExchangedRows <= 0 || par.CommCost <= 0 {
		t.Errorf("group-by should be charged a repartitioning: %+v\n%s", par, physical.Format(plan, nil))
	}
	if par.Plan != plan {
		t.Error("Parallelize must return the serial plan it was given")
	}
}

func TestDegreeScaling(t *testing.T) {
	db := workload.Star(workload.StarConfig{FactRows: 20000, DimRows: []int{50}, Seed: 7})
	db.Analyze(stats.AnalyzeOptions{})
	_, plan := serialPlan(t, db, workload.StarQuery(1, 0))
	prev := 0.0
	for i, degree := range []int{1, 2, 4, 8, 16} {
		par := Parallelize(plan, Config{Degree: degree, CommCostPerRow: 0.0001}, cost.DefaultModel())
		if i > 0 && par.ResponseTime >= prev {
			t.Errorf("degree %d response %v should improve on %v", degree, par.ResponseTime, prev)
		}
		prev = par.ResponseTime
	}
}

func TestCommAwareBeatsXPRSUnderExpensiveComm(t *testing.T) {
	db := workload.Star(workload.StarConfig{FactRows: 30000, DimRows: []int{40, 40}, Seed: 9})
	db.Analyze(stats.AnalyzeOptions{})
	q := buildQuery(t, db, workload.StarQuery(2, 5))
	cfg := Config{Degree: 8, CommCostPerRow: 0.05} // expensive network
	estf := func() *stats.Estimator { return stats.NewEstimator(q.Meta) }

	xprs, err := Optimize(q, estf, cost.DefaultModel(), cfg, XPRS)
	if err != nil {
		t.Fatal(err)
	}
	aware, err := Optimize(q, estf, cost.DefaultModel(), cfg, CommAware)
	if err != nil {
		t.Fatal(err)
	}
	if aware.Parallel.ResponseTime > xprs.Parallel.ResponseTime*1.0001 {
		t.Errorf("comm-aware phase one must not be worse: %v vs %v",
			aware.Parallel.ResponseTime, xprs.Parallel.ResponseTime)
	}
	if xprs.Candidates == 0 || aware.Candidates == 0 {
		t.Error("candidates should be counted")
	}
}

func TestSegmentsAndMakespan(t *testing.T) {
	db := workload.EmpDept(workload.EmpDeptConfig{Emps: 4000, Depts: 80})
	db.Analyze(stats.AnalyzeOptions{})
	for _, qs := range []string{
		`SELECT d.loc, COUNT(*) FROM Emp e, Dept d WHERE e.did = d.did GROUP BY d.loc`,
		`SELECT e.did FROM Emp e UNION ALL SELECT d.did FROM Dept d`,
	} {
		_, plan := serialPlan(t, db, qs)
		segs := Segments(plan)
		if len(segs) < 2 {
			t.Fatalf("expected multiple pipeline segments, got %d", len(segs))
		}
		// The executor cuts a pipeline at a union: it is a segment of its
		// own that waits for both arms.
		if _, ok := plan.(*physical.UnionAll); ok {
			if root := segs[len(segs)-1]; len(root.DependsOn) != 2 || root.Ops[0] != "UnionAll" {
				t.Errorf("union segment %+v: want UnionAll depending on both arms", root)
			}
		}
		total := 0.0
		for _, s := range segs {
			if s.Work < 0 {
				t.Errorf("segment %d negative work", s.ID)
			}
			total += s.Work
		}
		m1 := Makespan(segs, 1)
		m4 := Makespan(segs, 4)
		if m4 > m1 {
			t.Errorf("more processors should not increase makespan: %v vs %v", m4, m1)
		}
		if m1 < total*0.99 {
			t.Errorf("single processor makespan %v should be ~total work %v", m1, total)
		}
		// Precedence must be honored: makespan at infinite processors is at
		// least the critical path, which is > 0.
		if Makespan(segs, 1000) <= 0 {
			t.Error("critical path should be positive")
		}
	}
}
