package parametric

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/cost"
	"repro/internal/datum"
	"repro/internal/exec"
	"repro/internal/logical"
	"repro/internal/reference"
	"repro/internal/sql"
	"repro/internal/stats"
	"repro/internal/systemr"
	"repro/internal/workload"
)

// Selectivity of did <= $1 sweeps ~0%..100%: the secondary-index plan wins
// while matches are few and flips to a sequential scan past the random-I/O
// crossover (§5.2).
const didTemplate = "SELECT name FROM Emp WHERE did <= $1"

func prep(t *testing.T) (*workload.DB, *Diagram) {
	t.Helper()
	db := workload.EmpDept(workload.EmpDeptConfig{Emps: 100000, Depts: 2000})
	db.Analyze(stats.AnalyzeOptions{Buckets: 40})
	return db, grow(t, db, didTemplate, 1, 5, 20, 100, 400, 1000, 1600, 1999)
}

// build builds template with $1 bound to v by tag, as a plan-cache miss
// builds it; normalized and pruned unless raw (the reference evaluator's
// input).
func build(t *testing.T, db *workload.DB, template string, v int64, raw bool) *logical.Query {
	t.Helper()
	sel, err := sql.ParseSelect(template)
	if err != nil {
		t.Fatal(err)
	}
	b := logical.NewBuilder(db.Cat)
	b.BindParams(ints(v))
	q, err := b.Build(sel)
	if err != nil {
		t.Fatal(err)
	}
	if !raw {
		logical.NormalizeQuery(q, logical.DefaultNormalize())
		logical.PruneColumns(q)
	}
	return q
}

// grow plans template at each value, ascending, and adds every plan to a
// one-parameter diagram.
func grow(t *testing.T, db *workload.DB, template string, vals ...int64) *Diagram {
	t.Helper()
	d := NewDiagram(1)
	for _, v := range vals {
		add(t, db, d, template, v)
	}
	return d
}

// add plans template at v and adds the plan to d, as a plan-cache miss does.
func add(t *testing.T, db *workload.DB, d *Diagram, template string, v int64) *Box {
	t.Helper()
	q := build(t, db, template, v, false)
	plan, err := systemr.New(stats.NewEstimator(q.Meta), cost.DefaultModel(), systemr.DefaultOptions()).Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	_, c := plan.Estimate()
	box, err := d.Add(ints(v), plan, q, Signature(plan), c)
	if err != nil {
		t.Fatal(err)
	}
	return box
}

// run executes box's plan over db with $1 bound to v and returns its rows
// and counters.
func run(t *testing.T, db *workload.DB, box *Box, v int64) ([]datum.Row, exec.Counters) {
	t.Helper()
	ctx := exec.NewCtx(db.Store, box.Query.Meta)
	b, err := exec.Prepare(box.Plan, box.Query).Run(ctx, ints(v))
	if err != nil {
		t.Fatal(err)
	}
	return b.ToRows(), ctx.Counters
}

// referenceRows runs template at $1 = v on the reference evaluator and
// returns its rows sorted.
func referenceRows(t *testing.T, db *workload.DB, template string, v int64) []string {
	t.Helper()
	q := build(t, db, template, v, true)
	res, err := reference.New(db.Store, q.Meta).RunQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	return sorted(res.Rows)
}

// sorted renders rows as strings, sorted: a multiset to compare.
func sorted(rows []datum.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	slices.Sort(out)
	return out
}

func TestPlanDiagramHasCrossover(t *testing.T) {
	_, d := prep(t)
	if d.NumPlans() < 2 {
		for _, b := range d.Boxes {
			t.Logf("box [%s,%s]: %s", b.Lo[0], b.Hi[0], b.Signature)
		}
		t.Fatalf("expected a plan crossover across selectivities, got %d plan(s)", d.NumPlans())
	}
	// The low-selectivity end should use the did index; the high end a scan.
	first, last := d.Find(ints(1)), d.Find(ints(1999))
	if !strings.Contains(first.Signature, "ixscan") {
		t.Errorf("selective end should use an index: %s", first.Signature)
	}
	if strings.Contains(last.Signature, "ixscan(Emp.emp_did)") {
		t.Errorf("unselective end should not use the secondary index: %s", last.Signature)
	}
}

func TestDynamicExecutionCorrect(t *testing.T) {
	db, d := prep(t)
	for _, v := range []int64{2, 47, 500, 1900} {
		// Dispatch as the plan cache does: a value outside every box is
		// planned anew and added.
		box := d.Find(ints(v))
		if box == nil {
			box = add(t, db, d, didTemplate, v)
		}
		got, _ := run(t, db, box, v)
		if want := referenceRows(t, db, didTemplate, v); !slices.Equal(sorted(got), want) {
			t.Fatalf("param %d: dynamic plan returned %d rows, reference %d", v, len(got), len(want))
		}
	}
}

func TestStaticPlanRegret(t *testing.T) {
	db, d := prep(t)
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
	const actual = 1999
	srows, staticCounters := run(t, cold(), d.Find(ints(1)), actual)
	drows, dynCounters := run(t, cold(), d.Find(ints(actual)), actual)
	if staticCounters.BytesRead <= dynCounters.BytesRead {
		t.Errorf("static plan should pay for its stale choice: static %d bytes read vs dynamic %d",
			staticCounters.BytesRead, dynCounters.BytesRead)
	}
	if got, want := sorted(srows), sorted(drows); !slices.Equal(got, want) {
		t.Fatalf("static and dynamic plans disagree: %d vs %d rows", len(got), len(want))
	}
}

// A plan runs correctly under bindings other than the ones it was planned
// at, also where another constant of the statement equals the planning
// value: only the parameter-tagged constant takes the new binding.
func TestPlanRunsUnderOtherBinding(t *testing.T) {
	db := workload.EmpDept(workload.EmpDeptConfig{Emps: 2000, Depts: 50})
	db.Analyze(stats.AnalyzeOptions{})
	const template = "SELECT name FROM Emp WHERE did <= $1 AND eid >= 1"
	d := grow(t, db, template, 1)
	got, _ := run(t, db, d.Find(ints(1)), 30)
	if want := referenceRows(t, db, template, 30); !slices.Equal(sorted(got), want) {
		t.Fatalf("planned at 1, run at 30: %d rows, reference %d", len(got), len(want))
	}
}

func TestJoinTemplateSubstitution(t *testing.T) {
	// A template whose plans include joins, projections, filters and sorts:
	// the bound value must reach every operator kind.
	db := workload.EmpDept(workload.EmpDeptConfig{Emps: 5000, Depts: 100})
	db.Analyze(stats.AnalyzeOptions{})
	const template = `SELECT e.name FROM Emp e, Dept d
		WHERE e.did = d.did AND e.age < $1 ORDER BY e.name`
	d := grow(t, db, template, 21, 30, 45, 64)
	// Every box's plan runs at every value: dispatch picks a plan for
	// quality, and whichever runs must return the right rows in order.
	for _, v := range []int64{22, 40, 64} {
		want := referenceRows(t, db, template, v)
		for i := range d.Boxes {
			got, _ := run(t, db, &d.Boxes[i], v)
			if !slices.IsSortedFunc(got, func(a, b datum.Row) int { return datum.Compare(a[0], b[0]) }) {
				t.Errorf("age<%d, box %d: rows not in ORDER BY e.name order", v, i)
			}
			if !slices.Equal(sorted(got), want) {
				t.Fatalf("age<%d, box %d: %d rows vs reference %d", v, i, len(got), len(want))
			}
		}
	}
	if Signature(d.Boxes[0].Plan) == "" {
		t.Error("signature should be nonempty")
	}
}
