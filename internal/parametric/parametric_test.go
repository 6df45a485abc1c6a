package parametric

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/datum"
	"repro/internal/logical"
	"repro/internal/reference"
	"repro/internal/sql"
	"repro/internal/stats"
	"repro/internal/systemr"
	"repro/internal/workload"
)

func prep(t *testing.T) (*workload.DB, *DynamicPlan) {
	t.Helper()
	db := workload.EmpDept(workload.EmpDeptConfig{Emps: 100000, Depts: 2000})
	db.Analyze(stats.AnalyzeOptions{Buckets: 40})
	// Selectivity of did <= $1 sweeps ~0%..100%: the secondary-index plan
	// wins while matches are few and flips to a sequential scan past the
	// random-I/O crossover (§5.2).
	template := "SELECT name FROM Emp WHERE did <= $1"
	var candidates []datum.D
	for _, v := range []int64{1, 5, 20, 100, 400, 1000, 1600, 1999} {
		candidates = append(candidates, datum.NewInt(v))
	}
	dp, err := Prepare(db, template, candidates, systemr.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return db, dp
}

func TestPlanDiagramHasCrossover(t *testing.T) {
	_, dp := prep(t)
	if dp.NumPlans() < 2 {
		for _, r := range dp.Ranges {
			t.Logf("range [%s,%s]: %s", r.Lo, r.Hi, r.Signature)
		}
		t.Fatalf("expected a plan crossover across selectivities, got %d plan(s)", dp.NumPlans())
	}
	// The low-selectivity end should use the did index; the high end a scan.
	first, last := dp.Ranges[0], dp.Ranges[len(dp.Ranges)-1]
	if !strings.Contains(first.Signature, "ixscan") {
		t.Errorf("selective end should use an index: %s", first.Signature)
	}
	if strings.Contains(last.Signature, "ixscan(Emp.emp_did)") {
		t.Errorf("unselective end should not use the secondary index: %s", last.Signature)
	}
}

func TestDynamicExecutionCorrect(t *testing.T) {
	db, dp := prep(t)
	for _, v := range []int64{2, 47, 500, 1900} {
		res, _, err := dp.Execute(db, datum.NewInt(v))
		if err != nil {
			t.Fatal(err)
		}
		want := referenceRows(t, db, v)
		got := sortedNames(res.Rows)
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Fatalf("param %d: dynamic plan returned %d rows, reference %d", v, len(got), len(want))
		}
	}
}

func TestStaticPlanRegret(t *testing.T) {
	db, dp := prep(t)
	// The plans run over segment files through a cold block cache smaller
	// than the columns they read. Static plan chosen for a very selective
	// representative, then run at an unselective actual value: it keeps
	// probing the secondary index, fetching rows in key order, and re-reads
	// the blocks the cache evicted in between; the dynamic choice scans each
	// block once.
	dir := t.TempDir()
	if err := db.SaveTo(dir); err != nil {
		t.Fatal(err)
	}
	cold := func() *workload.DB {
		c, err := db.Open(dir, 256<<10)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	rep := datum.NewInt(1)
	actual := datum.NewInt(1999)
	sres, staticCounters, err := dp.ExecuteStatic(cold(), rep, actual)
	if err != nil {
		t.Fatal(err)
	}
	dres, dynCounters, err := dp.Execute(cold(), actual)
	if err != nil {
		t.Fatal(err)
	}
	if staticCounters.BytesRead <= dynCounters.BytesRead {
		t.Errorf("static plan should pay for its stale choice: static %d bytes read vs dynamic %d",
			staticCounters.BytesRead, dynCounters.BytesRead)
	}
	// Both must return the same rows.
	if got, want := sortedNames(sres.Rows), sortedNames(dres.Rows); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("static and dynamic plans disagree: %d vs %d rows", len(got), len(want))
	}
}

func TestPrepareValidation(t *testing.T) {
	db := workload.EmpDept(workload.EmpDeptConfig{Emps: 100, Depts: 10})
	db.Analyze(stats.AnalyzeOptions{})
	if _, err := Prepare(db, "SELECT name FROM Emp", []datum.D{datum.NewInt(1)}, systemr.DefaultOptions()); err == nil {
		t.Error("template without marker should fail")
	}
	if _, err := Prepare(db, "SELECT name FROM Emp WHERE did <= $1", nil, systemr.DefaultOptions()); err == nil {
		t.Error("no candidates should fail")
	}
	if _, err := Prepare(db, "SELECT nope FROM Emp WHERE did <= $1",
		[]datum.D{datum.NewInt(1)}, systemr.DefaultOptions()); err == nil {
		t.Error("bad template should surface build errors")
	}
}

func TestRangeForBoundaries(t *testing.T) {
	db, dp := prep(t)
	_ = db
	below := dp.rangeFor(datum.NewInt(-5))
	if below != &dp.Ranges[0] {
		t.Error("values below the diagram should clamp to the first range")
	}
	above := dp.rangeFor(datum.NewInt(10_000))
	if above != &dp.Ranges[len(dp.Ranges)-1] {
		t.Error("values above the diagram should clamp to the last range")
	}
}

func referenceRows(t *testing.T, db *workload.DB, v int64) []string {
	t.Helper()
	sel, err := sql.ParseSelect("SELECT name FROM Emp WHERE did <= " + datum.NewInt(v).String())
	if err != nil {
		t.Fatal(err)
	}
	q, err := logical.NewBuilder(db.Cat).Build(sel)
	if err != nil {
		t.Fatal(err)
	}
	res, err := reference.New(db.Store, q.Meta).RunQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	return sortedNames(res.Rows)
}

func sortedNames(rows []datum.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r[0].Str()
	}
	sort.Strings(out)
	return out
}

func TestJoinTemplateSubstitution(t *testing.T) {
	// A template whose plans include joins, projections, filters and sorts,
	// exercising constant substitution across every operator kind.
	db := workload.EmpDept(workload.EmpDeptConfig{Emps: 5000, Depts: 100})
	db.Analyze(stats.AnalyzeOptions{})
	template := `SELECT e.name FROM Emp e, Dept d
		WHERE e.did = d.did AND e.age < $1 ORDER BY e.name`
	var candidates []datum.D
	for _, v := range []int64{21, 30, 45, 64} {
		candidates = append(candidates, datum.NewInt(v))
	}
	dp, err := Prepare(db, template, candidates, systemr.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []int64{22, 40, 64} {
		res, _, err := dp.Execute(db, datum.NewInt(v))
		if err != nil {
			t.Fatal(err)
		}
		// Reference via fresh build.
		sel, err := sql.ParseSelect(strings.ReplaceAll(template, Marker, datum.NewInt(v).String()))
		if err != nil {
			t.Fatal(err)
		}
		q, err := logical.NewBuilder(db.Cat).Build(sel)
		if err != nil {
			t.Fatal(err)
		}
		want, err := reference.New(db.Store, q.Meta).RunQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != len(want.Rows) {
			t.Fatalf("age<%d: dynamic %d rows vs reference %d", v, len(res.Rows), len(want.Rows))
		}
	}
	// Substitution with the same value is the identity.
	r := &dp.Ranges[0]
	if got := substituteConst(r.Plan, r.Probe, r.Probe); got != r.Plan {
		t.Error("identity substitution should return the original plan")
	}
	if Signature(r.Plan) == "" {
		t.Error("signature should be nonempty")
	}
}
