package qgm

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/logical"
	"repro/internal/physical"
	"repro/internal/reference"
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
	return query
}

func TestQGMStructure(t *testing.T) {
	db := workload.EmpDept(workload.EmpDeptConfig{Emps: 100, Depts: 10})
	q := buildQuery(t, db, `SELECT e.name FROM Emp e WHERE e.did IN
		(SELECT d.did FROM Dept d WHERE d.loc = 'Denver')`)
	box := BuildQGM(q)
	if box.Blocks() < 2 {
		t.Errorf("nested query should yield multiple blocks, got %d\n%s", box.Blocks(), box)
	}
	s := box.String()
	for _, frag := range []string{"base Emp", "base Dept", "quantifier"} {
		if !strings.Contains(s, frag) {
			t.Errorf("QGM missing %q:\n%s", frag, s)
		}
	}
	// The IN subquery must appear as an existential quantifier.
	if !strings.Contains(s, "(E)") {
		t.Errorf("IN subquery should be existential:\n%s", s)
	}
}

func TestQGMSingleBlock(t *testing.T) {
	db := workload.EmpDept(workload.EmpDeptConfig{Emps: 100, Depts: 10})
	q := buildQuery(t, db, "SELECT e.name FROM Emp e, Dept d WHERE e.did = d.did")
	box := BuildQGM(q)
	if box.Blocks() != 1 {
		t.Errorf("flat SPJ should be a single block, got %d", box.Blocks())
	}
	if len(box.Quantifiers) != 2 {
		t.Errorf("expected 2 F quantifiers, got %d", len(box.Quantifiers))
	}
}

func TestQGMGroupByBox(t *testing.T) {
	db := workload.EmpDept(workload.EmpDeptConfig{Emps: 100, Depts: 10})
	q := buildQuery(t, db, "SELECT did, COUNT(*) FROM Emp GROUP BY did")
	box := BuildQGM(q)
	if !strings.Contains(box.String(), "GROUP BY") {
		t.Errorf("group-by box missing:\n%s", box)
	}
}

func TestEngineFiresAndConverges(t *testing.T) {
	db := workload.EmpDept(workload.EmpDeptConfig{Emps: 500, Depts: 20})
	q := buildQuery(t, db, `SELECT d.dname FROM Dept d WHERE EXISTS
		(SELECT 1 FROM Emp e WHERE e.did = d.did AND e.sal > 5000)`)
	// Count the unnest rule's firings on a copy of the shared rule set.
	eng := &Engine{Rules: append([]Rule(nil), DefaultEngine().Rules...)}
	unnests := 0
	for i := range eng.Rules {
		if r := &eng.Rules[i]; r.Name == "unnest-subqueries" {
			action := r.Action
			r.Action = func(q *logical.Query) bool {
				changed := action(q)
				if changed {
					unnests++
				}
				return changed
			}
		}
	}
	st := eng.Run(q)
	if unnests != 1 {
		t.Errorf("unnest should fire once, fired %d: %+v", unnests, st)
	}
	if st.BudgetSpent {
		t.Error("engine should converge before budget")
	}
	if logical.HasSubqueryRel(q.Root) {
		t.Error("subquery should be rewritten away")
	}
}

func TestEngineBudget(t *testing.T) {
	db := workload.EmpDept(workload.EmpDeptConfig{Emps: 100, Depts: 10})
	q := buildQuery(t, db, "SELECT name FROM Emp WHERE sal > 1 AND sal > 2 AND sal > 3")
	// Two rules that undo each other never converge, though each is
	// idempotent on its own output.
	fired := 0
	always := func(*logical.Query) bool {
		fired++
		return true
	}
	eng := &Engine{
		Budget: 3,
		Rules:  []Rule{{Name: "do", Class: "test", Action: always}, {Name: "undo", Class: "test", Action: always}},
	}
	st := eng.Run(q)
	if !st.BudgetSpent || fired != 3 {
		t.Errorf("budget should stop the engine: fired=%d spent=%v", fired, st.BudgetSpent)
	}
}

func TestStarburstTwoPhaseEndToEnd(t *testing.T) {
	db := workload.EmpDept(workload.EmpDeptConfig{Emps: 1500, Depts: 40})
	db.Analyze(stats.AnalyzeOptions{})
	queries := []string{
		`SELECT d.dname FROM Dept d WHERE EXISTS (SELECT 1 FROM Emp e WHERE e.did = d.did AND e.sal > 12000)`,
		`SELECT e.name, d.dname FROM Emp e, Dept d WHERE e.did = d.did AND d.budget > 500`,
		`SELECT d.loc, COUNT(*) FROM Emp e, Dept d WHERE e.did = d.did GROUP BY d.loc`,
	}
	for _, qs := range queries {
		q := buildQuery(t, db, qs)
		// The reference must run on an untouched copy.
		ref := buildQuery(t, db, qs)
		opt := &Optimizer{
			Engine: DefaultEngine(),
			Plan:   systemr.New(stats.NewEstimator(q.Meta), cost.DefaultModel(), systemr.DefaultOptions()),
		}
		plan, st, err := opt.Optimize(q)
		if err != nil {
			t.Fatalf("%s: %v", qs, err)
		}
		if st.Plan.PlansCosted == 0 {
			t.Error("plan phase should cost plans")
		}
		ctx := exec.NewCtx(db.Store, q.Meta)
		got, err := exec.RunPlanQuery(plan, q, ctx)
		if err != nil {
			t.Fatalf("%s: execute: %v\n%s", qs, err, physical.Format(plan, q.Meta))
		}
		want, err := reference.New(db.Store, ref.Meta).RunQuery(ref)
		if err != nil {
			t.Fatal(err)
		}
		g := rowSet(got)
		w := rowSet(&exec.Result{Rows: want.Rows})
		if strings.Join(g, ";") != strings.Join(w, ";") {
			t.Errorf("%s: results disagree\ngot:  %.300v\nwant: %.300v", qs, g, w)
		}
	}
}

func rowSet(r *exec.Result) []string {
	out := make([]string, len(r.Rows))
	for i, row := range r.Rows {
		out[i] = row.String()
	}
	sort.Strings(out)
	return out
}

func TestOptimizerMisconfigured(t *testing.T) {
	o := &Optimizer{}
	if _, _, err := o.Optimize(&logical.Query{}); err == nil {
		t.Error("unconfigured optimizer should error")
	}
}
