package stats

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/catalog"
	"repro/internal/datum"
	"repro/internal/logical"
	"repro/internal/sql"
	"repro/internal/storage"
)

// fixture builds Emp (10000 rows) and Dept (100 rows) with a foreign key
// Emp.did -> Dept.did, analyzed.
type fixture struct {
	cat   *catalog.Catalog
	store *storage.Store
}

func newFixture(t *testing.T, opts AnalyzeOptions) *fixture {
	t.Helper()
	cat := catalog.New()
	store := storage.NewStore()
	emp := &catalog.Table{
		Name: "Emp",
		Cols: []catalog.Column{
			{Name: "eid", Kind: datum.KindInt, NotNull: true},
			{Name: "did", Kind: datum.KindInt},
			{Name: "sal", Kind: datum.KindFloat},
			{Name: "age", Kind: datum.KindInt},
		},
		Indexes: []*catalog.Index{
			{Name: "emp_did_age", Cols: []int{1, 3}},
		},
	}
	dept := &catalog.Table{
		Name: "Dept",
		Cols: []catalog.Column{
			{Name: "did", Kind: datum.KindInt, NotNull: true},
			{Name: "budget", Kind: datum.KindFloat},
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
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10000; i++ {
		age := datum.NewInt(int64(20 + rng.Intn(45)))
		if i%100 == 0 {
			age = datum.Null // some NULL ages
		}
		if err := et.Insert(datum.Row{
			datum.NewInt(int64(i)),
			datum.NewInt(int64(rng.Intn(100))),
			datum.NewFloat(float64(rng.Intn(100000)) / 10),
			age,
		}); err != nil {
			t.Fatal(err)
		}
	}
	for d := 0; d < 100; d++ {
		if err := dt.Insert(datum.Row{datum.NewInt(int64(d)), datum.NewFloat(float64(rng.Intn(1000)))}); err != nil {
			t.Fatal(err)
		}
	}
	AnalyzeAll(store, cat, opts)
	return &fixture{cat: cat, store: store}
}

func (f *fixture) build(t *testing.T, q string) *logical.Query {
	t.Helper()
	sel, err := sql.ParseSelect(q)
	if err != nil {
		t.Fatal(err)
	}
	query, err := logical.NewBuilder(f.cat).Build(sel)
	if err != nil {
		t.Fatal(err)
	}
	logical.NormalizeQuery(query, logical.DefaultNormalize())
	return query
}

func TestAnalyzeBasics(t *testing.T) {
	f := newFixture(t, AnalyzeOptions{Buckets: 20})
	emp, _ := f.cat.Table("Emp")
	ts := emp.Stats
	if ts.RowCount != 10000 {
		t.Fatalf("RowCount = %v", ts.RowCount)
	}
	if ts.PageCount < 1 {
		t.Error("PageCount missing")
	}
	didStats := ts.ColStats[1]
	if math.Abs(didStats.DistinctCount-100) > 5 {
		t.Errorf("did distinct = %v, want ~100", didStats.DistinctCount)
	}
	ageStats := ts.ColStats[3]
	if ageStats.NullCount != 100 {
		t.Errorf("age nulls = %v, want 100", ageStats.NullCount)
	}
	if didStats.Hist == nil || didStats.Hist.Total == 0 {
		t.Error("did histogram missing")
	}
	// Multi-column index stats.
	if emp.Indexes[0].DistinctKeys < 100 {
		t.Errorf("index distinct keys = %v", emp.Indexes[0].DistinctKeys)
	}
	// Second extremes exist and are not the outliers themselves necessarily.
	if didStats.SecondMin.IsNull() || didStats.SecondMax.IsNull() {
		t.Error("second extremes missing")
	}
}

func TestScanAndFilterEstimates(t *testing.T) {
	f := newFixture(t, AnalyzeOptions{Buckets: 30})
	q := f.build(t, "SELECT eid FROM Emp WHERE did = 5")
	est := NewEstimator(q.Meta)
	s := est.Stats(q.Root)
	// ~100 rows expected (10000/100).
	if s.Rows < 40 || s.Rows > 250 {
		t.Errorf("eq filter rows = %v, want ~100", s.Rows)
	}

	q = f.build(t, "SELECT eid FROM Emp WHERE sal > 5000")
	est = NewEstimator(q.Meta)
	s = est.Stats(q.Root)
	if s.Rows < 3500 || s.Rows > 6500 {
		t.Errorf("range filter rows = %v, want ~5000", s.Rows)
	}
}

func TestJoinEstimates(t *testing.T) {
	f := newFixture(t, AnalyzeOptions{Buckets: 30})
	q := f.build(t, "SELECT e.eid FROM Emp e, Dept d WHERE e.did = d.did")
	est := NewEstimator(q.Meta)
	s := est.Stats(q.Root)
	// FK join: every Emp row matches exactly one Dept row → ~10000.
	if s.Rows < 5000 || s.Rows > 20000 {
		t.Errorf("join rows = %v, want ~10000", s.Rows)
	}
}

func TestGroupByEstimates(t *testing.T) {
	f := newFixture(t, AnalyzeOptions{Buckets: 30})
	q := f.build(t, "SELECT did, COUNT(*) FROM Emp GROUP BY did")
	est := NewEstimator(q.Meta)
	s := est.Stats(q.Root)
	if s.Rows < 50 || s.Rows > 200 {
		t.Errorf("group rows = %v, want ~100", s.Rows)
	}
	q = f.build(t, "SELECT COUNT(*) FROM Emp")
	est = NewEstimator(q.Meta)
	if got := est.Stats(q.Root).Rows; got != 1 {
		t.Errorf("scalar agg rows = %v, want 1", got)
	}
}

func TestIndependenceVsMostSelective(t *testing.T) {
	f := newFixture(t, AnalyzeOptions{Buckets: 30})
	// age is correlated with itself: age >= 30 AND age >= 30 (a perfectly
	// correlated pair). Independence underestimates; most-selective is exact.
	q := f.build(t, "SELECT eid FROM Emp WHERE age >= 30 AND age >= 31")
	ind := NewEstimator(q.Meta)
	ind.Mode = Independence
	ms := NewEstimator(q.Meta)
	ms.Mode = MostSelective
	ri := ind.Stats(q.Root).Rows
	rm := ms.Stats(q.Root).Rows
	if ri >= rm {
		t.Errorf("independence (%v) should underestimate vs most-selective (%v) on correlated preds", ri, rm)
	}
}

func TestSelectivityBoundsProperty(t *testing.T) {
	f := newFixture(t, AnalyzeOptions{Buckets: 20})
	queries := []string{
		"SELECT eid FROM Emp WHERE did = 5",
		"SELECT eid FROM Emp WHERE did <> 5",
		"SELECT eid FROM Emp WHERE sal BETWEEN 100 AND 200",
		"SELECT eid FROM Emp WHERE age IS NULL",
		"SELECT eid FROM Emp WHERE age IS NOT NULL",
		"SELECT eid FROM Emp WHERE did IN (1, 2, 3)",
		"SELECT eid FROM Emp WHERE did NOT IN (1, 2, 3)",
		"SELECT eid FROM Emp WHERE did = 1 OR did = 2",
		"SELECT eid FROM Emp WHERE NOT (did = 1)",
		"SELECT eid FROM Emp WHERE sal > 100 AND did < 50 AND age >= 30",
	}
	for _, qs := range queries {
		q := f.build(t, qs)
		est := NewEstimator(q.Meta)
		rows := est.Stats(q.Root).Rows
		if rows < 0 || rows > 10000+1 {
			t.Errorf("%s: rows = %v out of bounds", qs, rows)
		}
	}
}

func TestNullFracEstimates(t *testing.T) {
	f := newFixture(t, AnalyzeOptions{Buckets: 20})
	q := f.build(t, "SELECT eid FROM Emp WHERE age IS NULL")
	est := NewEstimator(q.Meta)
	rows := est.Stats(q.Root).Rows
	if math.Abs(rows-100) > 20 {
		t.Errorf("IS NULL rows = %v, want ~100", rows)
	}
}

func TestHistogramsOffFallback(t *testing.T) {
	f := newFixture(t, AnalyzeOptions{Buckets: 20})
	q := f.build(t, "SELECT eid FROM Emp WHERE did = 5")
	est := NewEstimator(q.Meta)
	est.UseHistograms = false
	rows := est.Stats(q.Root).Rows
	// Falls back to 1/distinct = 1/100 → ~100 rows.
	if rows < 40 || rows > 250 {
		t.Errorf("fallback rows = %v", rows)
	}
}

func TestLimitAndValuesStats(t *testing.T) {
	f := newFixture(t, AnalyzeOptions{})
	q := f.build(t, "SELECT eid FROM Emp LIMIT 7")
	est := NewEstimator(q.Meta)
	if got := est.Stats(q.Root).Rows; got != 7 {
		t.Errorf("limit rows = %v", got)
	}
	q = f.build(t, "SELECT 1")
	est = NewEstimator(q.Meta)
	if got := est.Stats(q.Root).Rows; got != 1 {
		t.Errorf("values rows = %v", got)
	}
}

func TestSemiAntiJoinStats(t *testing.T) {
	f := newFixture(t, AnalyzeOptions{Buckets: 20})
	q := f.build(t, "SELECT e.eid FROM Emp e, Dept d WHERE e.did = d.did")
	// Manually rewrite the inner join to semi/anti to exercise estimation.
	var join *logical.Join
	logical.VisitRel(q.Root, func(e logical.RelExpr) {
		if j, ok := e.(*logical.Join); ok {
			join = j
		}
	})
	if join == nil {
		t.Fatal("no join")
	}
	est := NewEstimator(q.Meta)
	semi := &logical.Join{Kind: logical.SemiJoin, Left: join.Left, Right: join.Right, On: join.On}
	anti := &logical.Join{Kind: logical.AntiJoin, Left: join.Left, Right: join.Right, On: join.On}
	sr := est.Stats(semi).Rows
	ar := est.Stats(anti).Rows
	lr := est.Stats(join.Left).Rows
	if sr < 0 || sr > lr {
		t.Errorf("semi rows %v out of [0, %v]", sr, lr)
	}
	if ar < 0 || ar > lr {
		t.Errorf("anti rows %v out of [0, %v]", ar, lr)
	}
	if math.Abs(sr+ar-lr) > lr*0.5 {
		t.Errorf("semi (%v) + anti (%v) should roughly partition left (%v)", sr, ar, lr)
	}
}

func TestOuterJoinStats(t *testing.T) {
	f := newFixture(t, AnalyzeOptions{Buckets: 20})
	q := f.build(t, "SELECT d.did FROM Dept d LEFT OUTER JOIN Emp e ON d.did = e.did AND e.sal < 0")
	est := NewEstimator(q.Meta)
	rows := est.Stats(q.Root).Rows
	// All 100 Dept rows must be preserved even though no Emp matches.
	if rows < 100 {
		t.Errorf("left outer rows = %v, want >= 100", rows)
	}
}
