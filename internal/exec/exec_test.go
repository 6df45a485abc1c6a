package exec

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/datum"
	"repro/internal/logical"
	"repro/internal/physical"
	"repro/internal/reference"
	"repro/internal/sql"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/systemr"
)

type fixture struct {
	cat   *catalog.Catalog
	store *storage.Store
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	cat := catalog.New()
	store := storage.NewStore()
	emp := &catalog.Table{
		Name: "Emp",
		Cols: []catalog.Column{
			{Name: "eid", Kind: datum.KindInt, NotNull: true},
			{Name: "name", Kind: datum.KindString},
			{Name: "did", Kind: datum.KindInt},
			{Name: "sal", Kind: datum.KindFloat},
		},
		Indexes: []*catalog.Index{
			{Name: "emp_eid", Cols: []int{0}, Unique: true, Clustered: true},
			{Name: "emp_did", Cols: []int{2}},
		},
	}
	dept := &catalog.Table{
		Name: "Dept",
		Cols: []catalog.Column{
			{Name: "did", Kind: datum.KindInt, NotNull: true},
			{Name: "dname", Kind: datum.KindString},
		},
	}
	if err := cat.AddTable(emp); err != nil {
		t.Fatal(err)
	}
	if err := cat.AddTable(dept); err != nil {
		t.Fatal(err)
	}
	et, _ := store.CreateTable(emp)
	dt, _ := store.CreateTable(dept)
	rows := []datum.Row{
		{datum.NewInt(1), datum.NewString("alice"), datum.NewInt(10), datum.NewFloat(100)},
		{datum.NewInt(2), datum.NewString("bob"), datum.NewInt(10), datum.NewFloat(200)},
		{datum.NewInt(3), datum.NewString("carol"), datum.NewInt(20), datum.NewFloat(300)},
		{datum.NewInt(4), datum.NewString("dave"), datum.Null, datum.NewFloat(50)},
		{datum.NewInt(5), datum.NewString("erin"), datum.NewInt(30), datum.Null},
	}
	if err := et.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}
	if err := dt.InsertBatch([]datum.Row{
		{datum.NewInt(10), datum.NewString("eng")},
		{datum.NewInt(20), datum.NewString("sales")},
		{datum.NewInt(40), datum.NewString("empty")},
	}); err != nil {
		t.Fatal(err)
	}
	return &fixture{cat: cat, store: store}
}

func (f *fixture) query(t *testing.T, q string) *logical.Query {
	t.Helper()
	sel, err := sql.ParseSelect(q)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	query, err := logical.NewBuilder(f.cat).Build(sel)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return query
}

// optimize normalizes and column-prunes q and plans it with System-R, the
// bodies of its subqueries first, as the engine does.
func optimize(t *testing.T, q *logical.Query) physical.Plan {
	t.Helper()
	logical.NormalizeQuery(q, logical.DefaultNormalize())
	logical.PruneColumns(q)
	opt := func(q *logical.Query) (physical.Plan, error) {
		return systemr.New(stats.NewEstimator(q.Meta), cost.DefaultModel(), systemr.DefaultOptions()).Optimize(q)
	}
	err := logical.PlanSubqueries(q.Root, q.Meta, func(body *logical.Query) (logical.SubPlan, error) { return opt(body) })
	if err != nil {
		t.Fatalf("plan subqueries: %v", err)
	}
	plan, err := opt(q)
	if err != nil {
		t.Fatalf("optimize: %v", err)
	}
	return plan
}

// run answers q with the executor over a System-R plan, at one and at four
// workers, and checks both answers against the reference evaluator's as a
// bag.
func (f *fixture) run(t *testing.T, q string) *Result {
	t.Helper()
	query := f.query(t, q)
	ref, err := reference.New(f.store, query.Meta).RunQuery(query)
	if err != nil {
		t.Fatalf("reference %q: %v", q, err)
	}
	plan := optimize(t, query)
	var res *Result
	for _, workers := range []int{1, 4} {
		ctx := NewCtx(f.store, query.Meta)
		ctx.Parallelism = workers
		got, err := RunPlanQuery(plan, query, ctx)
		ctx.Close()
		if err != nil {
			t.Fatalf("run %q at %d workers: %v\n%s", q, workers, err, physical.Format(plan, query.Meta))
		}
		if a, b := rowStrings(got), rowStrings(&Result{Rows: ref.Rows}); strings.Join(a, ";") != strings.Join(b, ";") {
			t.Fatalf("%q at %d workers: %v, reference evaluator %v", q, workers, a, b)
		}
		if res == nil {
			res = got
		}
	}
	return res
}

// rowStrings renders rows as sorted strings for multiset comparison.
func rowStrings(res *Result) []string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = r.String()
	}
	sort.Strings(out)
	return out
}

func expectRows(t *testing.T, res *Result, want ...string) {
	t.Helper()
	got := rowStrings(res)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("got %d rows %v, want %d %v", len(got), got, len(want), want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d = %s, want %s\nall: %v", i, got[i], want[i], got)
		}
	}
}

// The TestNaive* cases are the statements the reference evaluator's own tests
// pin (internal/reference), answered here by the executor: f.run checks every
// answer against the evaluator's too, and the subquery cases run their
// sub-plans by nested iteration.

func TestNaiveSelectProject(t *testing.T) {
	f := newFixture(t)
	res := f.run(t, "SELECT name FROM Emp WHERE sal > 100")
	expectRows(t, res, "('bob')", "('carol')")
}

func TestNaiveNullComparisons(t *testing.T) {
	f := newFixture(t)
	// erin's sal is NULL: excluded from both branches.
	res := f.run(t, "SELECT name FROM Emp WHERE sal > 0 OR sal <= 0")
	if len(res.Rows) != 4 {
		t.Errorf("NULL sal must not satisfy either branch: %v", rowStrings(res))
	}
	res = f.run(t, "SELECT name FROM Emp WHERE sal IS NULL")
	expectRows(t, res, "('erin')")
}

func TestNaiveJoin(t *testing.T) {
	f := newFixture(t)
	res := f.run(t, "SELECT e.name, d.dname FROM Emp e, Dept d WHERE e.did = d.did")
	expectRows(t, res, "('alice', 'eng')", "('bob', 'eng')", "('carol', 'sales')")
}

func TestNaiveLeftOuterJoin(t *testing.T) {
	f := newFixture(t)
	res := f.run(t, "SELECT e.name, d.dname FROM Emp e LEFT OUTER JOIN Dept d ON e.did = d.did")
	expectRows(t, res,
		"('alice', 'eng')", "('bob', 'eng')", "('carol', 'sales')",
		"('dave', NULL)", "('erin', NULL)")
}

func TestNaiveFullOuterJoin(t *testing.T) {
	f := newFixture(t)
	res := f.run(t, "SELECT e.name, d.dname FROM Emp e FULL OUTER JOIN Dept d ON e.did = d.did")
	expectRows(t, res,
		"('alice', 'eng')", "('bob', 'eng')", "('carol', 'sales')",
		"('dave', NULL)", "('erin', NULL)", "(NULL, 'empty')")
}

func TestNaiveGroupByAndHaving(t *testing.T) {
	f := newFixture(t)
	res := f.run(t, "SELECT did, COUNT(*), SUM(sal) FROM Emp GROUP BY did HAVING COUNT(*) >= 1 ORDER BY did")
	// NULL did forms its own group; order: NULL first.
	got := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		got[i] = r.String()
	}
	want := []string{"(NULL, 1, 50)", "(10, 2, 300)", "(20, 1, 300)", "(30, 1, NULL)"}
	if strings.Join(got, ";") != strings.Join(want, ";") {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestNaiveScalarAggEmptyInput(t *testing.T) {
	f := newFixture(t)
	res := f.run(t, "SELECT COUNT(*), SUM(sal), MIN(sal), AVG(sal) FROM Emp WHERE sal > 100000")
	expectRows(t, res, "(0, NULL, NULL, NULL)")
}

func TestNaiveDistinctAndCountDistinct(t *testing.T) {
	f := newFixture(t)
	res := f.run(t, "SELECT DISTINCT did FROM Emp")
	if len(res.Rows) != 4 { // 10, 20, 30, NULL
		t.Errorf("distinct dids = %v", rowStrings(res))
	}
	res = f.run(t, "SELECT COUNT(DISTINCT did) FROM Emp")
	expectRows(t, res, "(3)") // NULL not counted
}

func TestNaiveOrderByLimit(t *testing.T) {
	f := newFixture(t)
	res := f.run(t, "SELECT name FROM Emp ORDER BY sal DESC LIMIT 2")
	// SQL applies ORDER BY before LIMIT: top-2 salaries are carol, bob.
	if len(res.Rows) != 2 || res.Rows[0][0].Str() != "carol" || res.Rows[1][0].Str() != "bob" {
		t.Fatalf("ORDER BY must run before LIMIT: %v", rowStrings(res))
	}
}

func TestNaiveCorrelatedIn(t *testing.T) {
	f := newFixture(t)
	// The paper's §4.2.2 pattern.
	res := f.run(t, `SELECT e.name FROM Emp e WHERE e.did IN
		(SELECT d.did FROM Dept d WHERE d.dname = 'eng' AND e.sal > 50)`)
	expectRows(t, res, "('alice')", "('bob')")
}

func TestNaiveExistsAndNotExists(t *testing.T) {
	f := newFixture(t)
	res := f.run(t, `SELECT d.dname FROM Dept d WHERE EXISTS (SELECT 1 FROM Emp e WHERE e.did = d.did)`)
	expectRows(t, res, "('eng')", "('sales')")
	res = f.run(t, `SELECT d.dname FROM Dept d WHERE NOT EXISTS (SELECT 1 FROM Emp e WHERE e.did = d.did)`)
	expectRows(t, res, "('empty')")
}

func TestNaiveScalarSubquery(t *testing.T) {
	f := newFixture(t)
	res := f.run(t, `SELECT e.name FROM Emp e WHERE e.sal > (SELECT AVG(e2.sal) FROM Emp e2)`)
	// avg = (100+200+300+50)/4 = 162.5
	expectRows(t, res, "('bob')", "('carol')")
}

func TestNaiveInSubqueryNullSemantics(t *testing.T) {
	f := newFixture(t)
	// NOT IN with NULL in subquery result: nothing qualifies.
	res := f.run(t, `SELECT d.dname FROM Dept d WHERE d.did NOT IN (SELECT e.did FROM Emp e)`)
	if len(res.Rows) != 0 {
		t.Errorf("NOT IN over NULL-containing set must be empty, got %v", rowStrings(res))
	}
}

// TestSubqueryWithoutSubPlanFails: a subquery that reaches the executor
// without its optimized body is an execution error, at any worker count.
func TestSubqueryWithoutSubPlanFails(t *testing.T) {
	f := newFixture(t)
	q := f.query(t, `SELECT d.dname FROM Dept d WHERE d.did = 40 OR EXISTS (SELECT 1 FROM Emp e WHERE e.did = d.did)`)
	var sub *logical.Subquery
	logical.VisitRel(q.Root, func(e logical.RelExpr) {
		for _, s := range logical.Scalars(e) {
			logical.VisitScalar(s, func(sc logical.Scalar) {
				if s, ok := sc.(*logical.Subquery); ok {
					sub = s
				}
			})
		}
	})
	plan := &physical.Filter{Input: scanPlan(t, q, "d"), Preds: []logical.Scalar{sub}}
	for _, workers := range []int{1, 4} {
		c := NewCtx(f.store, q.Meta)
		c.Parallelism = workers
		_, err := Run(plan, c)
		c.Close()
		if err == nil || !strings.Contains(err.Error(), "has no sub-plan") {
			t.Fatalf("%d workers: got %v, want a missing sub-plan error", workers, err)
		}
	}
}

// --- Physical engine tests ---

// scanPlan builds a TableScan for all columns of a logical scan.
func scanPlan(t *testing.T, q *logical.Query, binding string) *physical.TableScan {
	t.Helper()
	var scan *logical.Scan
	logical.VisitRel(q.Root, func(e logical.RelExpr) {
		if s, ok := e.(*logical.Scan); ok && strings.EqualFold(s.Binding, binding) {
			scan = s
		}
	})
	if scan == nil {
		t.Fatalf("no scan for binding %s", binding)
	}
	ords := make([]int, len(scan.Cols))
	for i, id := range scan.Cols {
		ords[i] = q.Meta.Column(id).BaseOrd
	}
	return &physical.TableScan{Table: scan.Table, Binding: scan.Binding, Cols: scan.Cols, ColOrds: ords}
}

func colID(t *testing.T, q *logical.Query, binding, name string) logical.ColumnID {
	t.Helper()
	for i := 1; i <= q.Meta.NumColumns(); i++ {
		cm := q.Meta.Column(logical.ColumnID(i))
		if strings.EqualFold(cm.Binding, binding) && strings.EqualFold(cm.Name, name) {
			return logical.ColumnID(i)
		}
	}
	t.Fatalf("no column %s.%s", binding, name)
	return 0
}

func TestPhysicalJoinVariantsAgree(t *testing.T) {
	f := newFixture(t)
	q := f.query(t, "SELECT e.name, d.dname FROM Emp e, Dept d WHERE e.did = d.did")
	eScan := scanPlan(t, q, "e")
	dScan := scanPlan(t, q, "d")
	eDid := colID(t, q, "e", "did")
	dDid := colID(t, q, "d", "did")
	onPred := []logical.Scalar{&logical.Cmp{Op: logical.CmpEq, L: &logical.Col{ID: eDid}, R: &logical.Col{ID: dDid}}}

	for _, kind := range []logical.JoinKind{logical.InnerJoin, logical.LeftOuterJoin, logical.SemiJoin, logical.AntiJoin} {
		var plans []physical.Plan
		plans = append(plans, &physical.NLJoin{Kind: kind, Left: eScan, Right: dScan, On: onPred})
		plans = append(plans, &physical.HashJoin{
			Kind: kind, Left: eScan, Right: dScan,
			LeftKeys: []logical.ColumnID{eDid}, RightKeys: []logical.ColumnID{dDid},
		})
		plans = append(plans, &physical.MergeJoin{
			Kind: kind,
			Left: &physical.Sort{Input: eScan, By: logical.Ordering{{Col: eDid}}},
			Right: &physical.Sort{
				Input: dScan, By: logical.Ordering{{Col: dDid}}},
			LeftKeys: []logical.ColumnID{eDid}, RightKeys: []logical.ColumnID{dDid},
		})
		plans = append(plans, &physical.INLJoin{
			Kind: kind, Left: dummySwap(kind, eScan), Table: dScan.Table, Index: nil,
		})
		_ = plans[3]
		plans = plans[:3] // INLJoin needs an index on Dept; skip here

		var baseline []string
		for pi, p := range plans {
			ctx := NewCtx(f.store, q.Meta)
			res, err := Run(p, ctx)
			if err != nil {
				t.Fatalf("kind %v plan %d: %v", kind, pi, err)
			}
			got := rowStrings(res)
			if pi == 0 {
				baseline = got
				continue
			}
			if strings.Join(got, ";") != strings.Join(baseline, ";") {
				t.Errorf("kind %v: plan %d disagrees\nNL:   %v\nthis: %v", kind, pi, baseline, got)
			}
		}
	}
}

func dummySwap(_ logical.JoinKind, p physical.Plan) physical.Plan { return p }

func TestPhysicalINLJoin(t *testing.T) {
	f := newFixture(t)
	q := f.query(t, "SELECT d.dname, e.name FROM Dept d, Emp e WHERE d.did = e.did")
	dScan := scanPlan(t, q, "d")
	var eScanL *logical.Scan
	logical.VisitRel(q.Root, func(e logical.RelExpr) {
		if s, ok := e.(*logical.Scan); ok && strings.EqualFold(s.Binding, "e") {
			eScanL = s
		}
	})
	emp, _ := f.cat.Table("Emp")
	var didIx *catalog.Index
	for _, ix := range emp.Indexes {
		if ix.Name == "emp_did" {
			didIx = ix
		}
	}
	ords := make([]int, len(eScanL.Cols))
	for i, id := range eScanL.Cols {
		ords[i] = q.Meta.Column(id).BaseOrd
	}
	inl := &physical.INLJoin{
		Kind:     logical.InnerJoin,
		Left:     dScan,
		Table:    emp,
		Index:    didIx,
		Binding:  "e",
		Cols:     eScanL.Cols,
		ColOrds:  ords,
		LeftKeys: []logical.ColumnID{colID(t, q, "d", "did")},
	}
	ctx := NewCtx(f.store, q.Meta)
	res, err := Run(inl, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Errorf("INL join rows = %d, want 3: %v", len(res.Rows), rowStrings(res))
	}
	if ctx.Counters.IndexSeeks != 3 { // one per Dept row
		t.Errorf("index seeks = %d, want 3", ctx.Counters.IndexSeeks)
	}
}

func TestPhysicalIndexScan(t *testing.T) {
	f := newFixture(t)
	q := f.query(t, "SELECT e.eid, e.name FROM Emp e WHERE e.eid = 3")
	emp, _ := f.cat.Table("Emp")
	sc := scanPlan(t, q, "e")
	is := &physical.IndexScan{
		Table: emp, Index: emp.Indexes[0], Binding: "e",
		Cols: sc.Cols, ColOrds: sc.ColOrds,
		EqKey: datum.Row{datum.NewInt(3)},
	}
	ctx := NewCtx(f.store, q.Meta)
	res, err := Run(is, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 3 {
		t.Errorf("index scan rows = %v", rowStrings(res))
	}
	// Range scan.
	is2 := &physical.IndexScan{
		Table: emp, Index: emp.Indexes[0], Binding: "e",
		Cols: sc.Cols, ColOrds: sc.ColOrds,
		Lo: datum.NewInt(2), LoIncl: true, Hi: datum.NewInt(4), HiIncl: false,
	}
	ctx = NewCtx(f.store, q.Meta)
	res, err = Run(is2, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Errorf("range scan rows = %d, want 2", len(res.Rows))
	}
	// Ordering property: index scan output is sorted by eid.
	if got := is2.Ordering(); len(got) == 0 {
		t.Error("index scan should declare its ordering")
	}
}

func TestPhysicalGroupByStreamVsHash(t *testing.T) {
	f := newFixture(t)
	q := f.query(t, "SELECT e.did, COUNT(*) FROM Emp e GROUP BY e.did")
	sc := scanPlan(t, q, "e")
	did := colID(t, q, "e", "did")
	var aggs []logical.AggItem
	var g *logical.GroupBy
	logical.VisitRel(q.Root, func(e logical.RelExpr) {
		if gb, ok := e.(*logical.GroupBy); ok {
			g = gb
		}
	})
	aggs = g.Aggs
	hashPlan := &physical.HashGroupBy{Input: sc, GroupCols: []logical.ColumnID{did}, Aggs: aggs}
	streamPlan := &physical.StreamGroupBy{
		Input:     &physical.Sort{Input: sc, By: logical.Ordering{{Col: did}}},
		GroupCols: []logical.ColumnID{did},
		Aggs:      aggs,
	}
	ctx1 := NewCtx(f.store, q.Meta)
	r1, err := Run(hashPlan, ctx1)
	if err != nil {
		t.Fatal(err)
	}
	ctx2 := NewCtx(f.store, q.Meta)
	r2, err := Run(streamPlan, ctx2)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(rowStrings(r1), ";") != strings.Join(rowStrings(r2), ";") {
		t.Errorf("hash vs stream group-by disagree:\n%v\n%v", rowStrings(r1), rowStrings(r2))
	}
}

func TestPhysicalSortFilterProjectLimit(t *testing.T) {
	f := newFixture(t)
	q := f.query(t, "SELECT e.name FROM Emp e")
	sc := scanPlan(t, q, "e")
	sal := colID(t, q, "e", "sal")
	name := colID(t, q, "e", "name")
	plan := &physical.LimitOp{
		N: 2,
		Input: &physical.Project{
			Input: &physical.Sort{
				Input: &physical.Filter{
					Input: sc,
					Preds: []logical.Scalar{&logical.Cmp{Op: logical.CmpGt, L: &logical.Col{ID: sal}, R: &logical.Const{Val: datum.NewFloat(60)}}},
				},
				By: logical.Ordering{{Col: sal, Desc: true}},
			},
			Items: []logical.ProjectItem{{ID: name, Expr: &logical.Col{ID: name}}},
		},
	}
	ctx := NewCtx(f.store, q.Meta)
	res, err := Run(plan, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][0].Str() != "carol" || res.Rows[1][0].Str() != "bob" {
		t.Errorf("pipeline result: %v", rowStrings(res))
	}
}

func TestMergeJoinNullKeys(t *testing.T) {
	f := newFixture(t)
	q := f.query(t, "SELECT e.name, d.dname FROM Emp e LEFT OUTER JOIN Dept d ON e.did = d.did")
	eScan := scanPlan(t, q, "e")
	dScan := scanPlan(t, q, "d")
	eDid := colID(t, q, "e", "did")
	dDid := colID(t, q, "d", "did")
	mj := &physical.MergeJoin{
		Kind:     logical.LeftOuterJoin,
		Left:     &physical.Sort{Input: eScan, By: logical.Ordering{{Col: eDid}}},
		Right:    &physical.Sort{Input: dScan, By: logical.Ordering{{Col: dDid}}},
		LeftKeys: []logical.ColumnID{eDid}, RightKeys: []logical.ColumnID{dDid},
	}
	ctx := NewCtx(f.store, q.Meta)
	res, err := Run(mj, ctx)
	if err != nil {
		t.Fatal(err)
	}
	// dave (NULL did) must appear NULL-padded, not joined.
	if len(res.Rows) != 5 {
		t.Errorf("LOJ merge rows = %d, want 5: %v", len(res.Rows), rowStrings(res))
	}
}

// Property: on random data, NL / hash / merge joins agree for every kind.
func TestJoinEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	cat := catalog.New()
	a := &catalog.Table{Name: "A", Cols: []catalog.Column{
		{Name: "x", Kind: datum.KindInt}, {Name: "p", Kind: datum.KindInt}}}
	b := &catalog.Table{Name: "B", Cols: []catalog.Column{
		{Name: "y", Kind: datum.KindInt}, {Name: "q", Kind: datum.KindInt}}}
	if err := cat.AddTable(a); err != nil {
		t.Fatal(err)
	}
	if err := cat.AddTable(b); err != nil {
		t.Fatal(err)
	}
	store := storage.NewStore()
	at, _ := store.CreateTable(a)
	bt, _ := store.CreateTable(b)

	for trial := 0; trial < 10; trial++ {
		// Regenerate data each trial.
		at2, bt2 := at, bt
		if trial > 0 {
			// new store to reset rows
			store = storage.NewStore()
			at2, _ = store.CreateTable(a)
			bt2, _ = store.CreateTable(b)
		}
		mkVal := func() datum.D {
			if rng.Intn(8) == 0 {
				return datum.Null
			}
			return datum.NewInt(int64(rng.Intn(5)))
		}
		for i := 0; i < 20; i++ {
			at2.Insert(datum.Row{mkVal(), datum.NewInt(int64(i))})
		}
		for i := 0; i < 15; i++ {
			bt2.Insert(datum.Row{mkVal(), datum.NewInt(int64(i + 100))})
		}

		md := logical.NewMetadata()
		aCols := md.AddTable(a, "a")
		bCols := md.AddTable(b, "b")
		aScan := &physical.TableScan{Table: a, Binding: "a", Cols: aCols, ColOrds: []int{0, 1}}
		bScan := &physical.TableScan{Table: b, Binding: "b", Cols: bCols, ColOrds: []int{0, 1}}
		on := []logical.Scalar{&logical.Cmp{Op: logical.CmpEq, L: &logical.Col{ID: aCols[0]}, R: &logical.Col{ID: bCols[0]}}}

		for _, kind := range []logical.JoinKind{logical.InnerJoin, logical.LeftOuterJoin, logical.FullOuterJoin, logical.SemiJoin, logical.AntiJoin} {
			nl := &physical.NLJoin{Kind: kind, Left: aScan, Right: bScan, On: on}
			hj := &physical.HashJoin{Kind: kind, Left: aScan, Right: bScan,
				LeftKeys: []logical.ColumnID{aCols[0]}, RightKeys: []logical.ColumnID{bCols[0]}}
			plans := []physical.Plan{nl, hj}
			if kind != logical.FullOuterJoin {
				plans = append(plans, &physical.MergeJoin{Kind: kind,
					Left:     &physical.Sort{Input: aScan, By: logical.Ordering{{Col: aCols[0]}}},
					Right:    &physical.Sort{Input: bScan, By: logical.Ordering{{Col: bCols[0]}}},
					LeftKeys: []logical.ColumnID{aCols[0]}, RightKeys: []logical.ColumnID{bCols[0]}})
			}
			var baseline []string
			for pi, p := range plans {
				ctx := NewCtx(store, md)
				res, err := Run(p, ctx)
				if err != nil {
					t.Fatalf("trial %d kind %v plan %d: %v", trial, kind, pi, err)
				}
				got := rowStrings(res)
				if pi == 0 {
					baseline = got
				} else if strings.Join(got, ";") != strings.Join(baseline, ";") {
					t.Fatalf("trial %d kind %v: plan %d disagrees\nbase: %v\ngot:  %v", trial, kind, pi, baseline, got)
				}
			}
		}
	}
}

func TestCountersAccumulate(t *testing.T) {
	f := newFixture(t)
	q := f.query(t, "SELECT e.name FROM Emp e")
	sc := scanPlan(t, q, "e")
	ctx := NewCtx(f.store, q.Meta)
	if _, err := Run(sc, ctx); err != nil {
		t.Fatal(err)
	}
	if ctx.Counters.RowsProcessed != 5 {
		t.Errorf("counters: %+v", ctx.Counters)
	}
}
